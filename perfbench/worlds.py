"""Seeded input worlds for the `fas` workloads, built without adjfas.

A world is a fixed template DAG over a treatment X, an outcome Y, k observed
confounders C1..Ck and a few isolated noise columns N1..Nm, with random CPTs.
C1 and C2 cause both X and Y; every further confounder hangs off an earlier
one in a binary tree (C3, C4 -> C1; C5, C6 -> C2; ...), so each Ci is a
common cause of X and Y and no node has more than three parents. Every CPT
is a softmax of random logits in which each parent value pushes its child
towards a different category with a random strength, so every edge carries a
dependence that the G² filter finds at 1e4 rows; noise columns depend on
nothing and enter the pool only by a false positive on both tests.

The seed changes CPT values, rows and trial counts, never the template, so
the work per search stays comparable from seed to seed. The truth
P(Y | do(X=x)) comes from the generator's own CPTs by truncated
factorisation with np.einsum.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass

import numpy as np

LETTERS = string.ascii_letters  # einsum subscripts, one per variable


CARD_X, CARD_Y = 2, 3
N_PER_ARM = 500  # trial units per arm


@dataclass(frozen=True)
class WorldSpec:
    n_conf: int
    n_noise: int
    n_rows: int


@dataclass
class World:
    names: tuple[str, ...]           # column order of the CSV
    rows: np.ndarray                 # (n_rows, len(names)) codes
    truth: dict[int, np.ndarray]     # P(Y | do(X=x))


def _template(spec: WorldSpec) -> tuple[list[str], dict[str, tuple[str, ...]], dict[str, int]]:
    confs = [f"C{i + 1}" for i in range(spec.n_conf)]
    parents: dict[str, tuple[str, ...]] = {}
    for i, c in enumerate(confs):
        parents[c] = tuple(confs[j] for j in (2 * i + 2, 2 * i + 3) if j < len(confs))
    order = confs[::-1]  # every confounder's parents have higher indices
    top = confs[:2]
    parents["X"] = tuple(top)
    parents["Y"] = ("X", *top)
    noise = [f"N{i + 1}" for i in range(spec.n_noise)]
    for v in noise:
        parents[v] = ()
    cards = {c: 2 + (i % 2) for i, c in enumerate(confs)}
    cards.update({v: 2 for v in noise})
    cards["X"], cards["Y"] = CARD_X, CARD_Y
    return order + ["X", "Y"] + noise, parents, cards


def _random_cpt(rng: np.random.Generator, card: int, pcards: list[int]) -> np.ndarray:
    logits = rng.normal(0.0, 0.5, size=(*pcards, card))
    for axis, pc in enumerate(pcards):
        strength = rng.uniform(1.5, 2.5)
        offset = int(rng.integers(card))
        push = np.zeros((pc, card))
        push[np.arange(pc), (np.arange(pc) + offset) % card] = strength
        shape = [1] * len(pcards) + [card]
        shape[axis] = pc
        logits = logits + push.reshape(shape)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _sample(rng, order, parents, cards, cpts, n) -> dict[str, np.ndarray]:
    cols: dict[str, np.ndarray] = {}
    for v in order:
        pa = parents[v]
        idx = (np.ravel_multi_index([cols[p] for p in pa], [cards[p] for p in pa]) if pa
               else np.zeros(n, dtype=np.int64))
        cum = np.cumsum(cpts[v].reshape(-1, cards[v]), axis=1)[idx, :-1]
        cols[v] = (rng.random(n)[:, None] >= cum).sum(axis=1)
    return cols


def interventional(order, parents, cards, cpts, x_value: int) -> np.ndarray:
    """P(Y | do(X=x)): drop X's CPT, fix X=x in its children, sum out the rest."""
    sub = {v: LETTERS[i] for i, v in enumerate(order) if v != "X"}
    operands = []
    for v in order:
        if v == "X":
            continue
        t = cpts[v]
        pa = parents[v]
        if "X" in pa:
            ax = pa.index("X")
            t = np.take(t, x_value, axis=ax)
            pa = pa[:ax] + pa[ax + 1:]
        operands += [t, [sub[p] for p in pa] + [sub[v]]]
    spec = ",".join("".join(s) for s in operands[1::2]) + "->" + sub["Y"]
    out = np.einsum(spec, *operands[0::2], optimize=True)
    return out / out.sum()


def make_world(spec: WorldSpec, seed: int) -> World:
    rng = np.random.default_rng(seed)
    order, parents, cards = _template(spec)
    cpts = {v: _random_cpt(rng, cards[v], [cards[p] for p in parents[v]]) for v in order}
    cols = _sample(rng, order, parents, cards, cpts, spec.n_rows)
    names = tuple(order)
    rows = np.column_stack([cols[v] for v in names]).astype(np.uint8)
    truth = {xv: interventional(order, parents, cards, cpts, xv) for xv in range(cards["X"])}
    return World(names, rows, truth)


def draw_arms(world: World, rng: np.random.Generator) -> list[dict]:
    """Trial arms of N_PER_ARM units each, drawn from P(Y | do(X=x))."""
    return [{"x": xv, "counts": rng.multinomial(N_PER_ARM, p).tolist()}
            for xv, p in world.truth.items()]


def write_world(world: World, arms: list[dict], csv_path, exp_path) -> None:
    """Header plus one line of single-digit codes per row, and the trial JSON."""
    n, m = world.rows.shape
    text = np.empty((n, 2 * m), dtype=np.uint8)
    text[:, 0::2] = world.rows + ord("0")
    text[:, 1::2] = ord(",")
    text[:, -1] = ord("\n")
    with open(csv_path, "wb") as f:
        f.write((",".join(world.names) + "\n").encode())
        f.write(text.tobytes())
    with open(exp_path, "w", encoding="utf-8") as f:
        json.dump({"treatment": "X", "outcome": "Y", "population": "same",
                   "arms": arms, "marginals": {}}, f)


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Parse a file written by write_world back into names and codes."""
    with open(path, "rb") as f:
        data = f.read()
    cut = data.index(b"\n") + 1
    names = data[:cut].decode().strip().split(",")
    body = np.frombuffer(data, dtype=np.uint8, offset=cut).reshape(-1, 2 * len(names))
    return names, (body[:, 0::2] - ord("0")).astype(np.int64)
