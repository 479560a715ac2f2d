"""Discrete Bayesian networks over observational tables.

Covers the full observational-model pipeline: BDeu hill-climbing structure
search, product-Dirichlet posteriors over CPT parameters, parameter sampling,
and exact inference by variable elimination. The learned network only has to
model the joint distribution of the data; no causal reading is attached to its
edges.

The factor helpers at the bottom are shared with the selection solver and the
simulator. Factors are (vars, values) pairs whose array axes follow ``vars``;
a factor may carry extra batch axes by listing a pseudo-variable, which lets a
whole Monte-Carlo batch of parameter draws run through one elimination pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.special import gammaln

from .data import CategoricalTable, contingency_counts
from .graph import Admg


class ZeroEvidenceError(ValueError):
    """Conditional query against evidence of probability zero."""


Factor = tuple[tuple[str, ...], np.ndarray]


@dataclass(frozen=True)
class BayesNetPosterior:
    """DAG plus per-node Dirichlet pseudo-count tensors (prior + data counts).

    ``alpha[v]`` has shape (*parent cardinalities, cardinality of v) with
    parents ordered as in ``parents[v]``; every entry is strictly positive.
    """

    dag: Admg
    cardinalities: dict[str, int]
    parents: dict[str, tuple[str, ...]]
    alpha: dict[str, np.ndarray]
    ess: float

    def __post_init__(self):
        for v in self.dag.nodes:
            a = self.alpha[v]
            expect = tuple(self.cardinalities[p] for p in self.parents[v]) + (self.cardinalities[v],)
            if a.shape != expect:
                raise ValueError(f"alpha tensor for {v!r} has shape {a.shape}, expected {expect}")
            if not (a > 0).all():
                raise ValueError(f"alpha tensor for {v!r} must be strictly positive")


@dataclass(frozen=True)
class ParamInstantiation:
    """One concrete CPT per node; every conditional row sums to 1."""

    cardinalities: dict[str, int]
    parents: dict[str, tuple[str, ...]]
    cpts: dict[str, np.ndarray]

    def __post_init__(self):
        for v, cpt in self.cpts.items():
            sums = cpt.sum(axis=-1)
            if not np.allclose(sums, 1.0, atol=1e-12):
                raise ValueError(f"CPT rows for {v!r} do not sum to 1")

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self.cpts)

    def factors(self) -> list[Factor]:
        return [((*self.parents[v], v), self.cpts[v]) for v in self.cpts]


# --- structure learning


def _bdeu_local(table: CategoricalTable, node: str, parents: tuple[str, ...],
                ess: float, cache: dict) -> float:
    key = (node, parents)
    hit = cache.get(key)
    if hit is not None:
        return hit
    r = table.cardinality(node)
    counts = contingency_counts(table, [*parents, node]).reshape(-1, r).astype(float)
    q = counts.shape[0]
    a_jk = ess / (q * r)
    a_j = ess / q
    nj = counts.sum(axis=1)
    score = float(np.sum(gammaln(a_j) - gammaln(a_j + nj))
                  + np.sum(gammaln(a_jk + counts) - gammaln(a_jk)))
    cache[key] = score
    return score


def _canonical(parents: Iterable[str], order: Mapping[str, int]) -> tuple[str, ...]:
    return tuple(sorted(parents, key=order.__getitem__))


class _HillClimbState:
    def __init__(self, nodes, table, ess, max_parents, cache):
        self.nodes = nodes
        self.order = {v: i for i, v in enumerate(nodes)}
        self.table = table
        self.ess = ess
        self.max_parents = max_parents
        self.cache = cache
        self.parents = {v: set() for v in nodes}
        self.children = {v: set() for v in nodes}
        self.local = {v: _bdeu_local(table, v, (), ess, cache) for v in nodes}

    def creates_cycle(self, u, v) -> bool:
        # adding u -> v cycles iff v already reaches u
        stack, seen = [v], set()
        while stack:
            w = stack.pop()
            if w == u:
                return True
            if w in seen:
                continue
            seen.add(w)
            stack.extend(self.children[w])
        return False

    def local_with(self, v, parents) -> float:
        return _bdeu_local(self.table, v, _canonical(parents, self.order), self.ess, self.cache)

    def moves(self):
        out = []
        for u in self.nodes:
            for v in self.nodes:
                if u == v:
                    continue
                if v in self.children[u]:
                    out.append(("del", u, v))
                    if len(self.parents[u]) < self.max_parents and not self._reverse_cycles(u, v):
                        out.append(("rev", u, v))
                elif u not in self.children[v]:
                    if len(self.parents[v]) < self.max_parents and not self.creates_cycle(u, v):
                        out.append(("add", u, v))
        return out

    def _reverse_cycles(self, u, v) -> bool:
        # u -> v becomes v -> u; cycle iff u reaches v without the edge u -> v
        stack, seen = list(self.children[u] - {v}), set()
        while stack:
            w = stack.pop()
            if w == v:
                return True
            if w in seen:
                continue
            seen.add(w)
            stack.extend(self.children[w])
        return False

    def delta(self, move) -> float:
        kind, u, v = move
        if kind == "add":
            return self.local_with(v, self.parents[v] | {u}) - self.local[v]
        if kind == "del":
            return self.local_with(v, self.parents[v] - {u}) - self.local[v]
        d = self.local_with(v, self.parents[v] - {u}) - self.local[v]
        d += self.local_with(u, self.parents[u] | {v}) - self.local[u]
        return d

    def apply(self, move):
        kind, u, v = move
        if kind in ("del", "rev"):
            self.parents[v].discard(u)
            self.children[u].discard(v)
            self.local[v] = self.local_with(v, self.parents[v])
        if kind in ("add",):
            self.parents[v].add(u)
            self.children[u].add(v)
            self.local[v] = self.local_with(v, self.parents[v])
        if kind == "rev":
            self.parents[u].add(v)
            self.children[v].add(u)
            self.local[u] = self.local_with(u, self.parents[u])

    def total(self) -> float:
        return float(sum(self.local.values()))


def learn_structure(table: CategoricalTable, *, ess: float = 1.0, max_parents: int = 4,
                    restarts: int = 5, rng: np.random.Generator | int | None = None) -> Admg:
    """Greedy hill-climbing DAG search under the BDeu score.

    Moves are single-edge additions, deletions and reversals; the search runs
    ``restarts`` times from the empty graph (the first pass in canonical move
    order, the rest in a shuffled order to break ties differently) and keeps
    the best-scoring local maximum.
    """
    if table.n < 1:
        raise ValueError("structure learning needs at least one sample")
    rng = np.random.default_rng(rng)
    nodes = table.variable_names
    cache: dict = {}

    best_score, best_parents = -np.inf, None
    for restart in range(max(1, restarts)):
        state = _HillClimbState(nodes, table, ess, max_parents, cache)
        while True:
            moves = state.moves()
            if restart > 0:
                perm = rng.permutation(len(moves))
                moves = [moves[i] for i in perm]
            best_move, best_delta = None, 1e-9
            for m in moves:
                d = state.delta(m)
                if d > best_delta:
                    best_move, best_delta = m, d
            if best_move is None:
                break
            state.apply(best_move)
        score = state.total()
        if score > best_score + 1e-9:
            best_score = score
            best_parents = {v: frozenset(ps) for v, ps in state.parents.items()}

    edges = [(u, v) for v, ps in best_parents.items() for u in ps]
    return Admg(nodes, directed=edges)


# --- posterior and sampling


def fit_posterior(dag: Admg, table: CategoricalTable, ess: float = 1.0) -> BayesNetPosterior:
    """Product-Dirichlet posterior: a flat BDeu-style prior plus observed counts."""
    if set(dag.nodes) != set(table.variable_names):
        raise ValueError("dag nodes must equal the table's variables")
    order = {v: i for i, v in enumerate(dag.nodes)}
    cards = {v: table.cardinality(v) for v in dag.nodes}
    parents = {v: _canonical(dag.parents(v), order) for v in dag.nodes}
    alpha = {}
    for v in dag.nodes:
        pa = parents[v]
        shape = tuple(cards[p] for p in pa) + (cards[v],)
        counts = contingency_counts(table, [*pa, v]).astype(float).reshape(shape)
        q = int(np.prod(shape[:-1], dtype=np.int64))
        alpha[v] = ess / (q * cards[v]) + counts
    return BayesNetPosterior(dag=dag, cardinalities=cards, parents=parents, alpha=alpha, ess=ess)


def _normalize_rows(draws: np.ndarray) -> np.ndarray:
    draws = np.maximum(draws, 1e-300)
    return draws / draws.sum(axis=-1, keepdims=True)


def sample_parameters(post: BayesNetPosterior, rng: np.random.Generator) -> ParamInstantiation:
    """Draw one CPT set from the posterior (independent Gammas, row-normalized)."""
    cpts = {v: _normalize_rows(rng.standard_gamma(post.alpha[v])) for v in post.dag.nodes}
    return ParamInstantiation(post.cardinalities, post.parents, cpts)


def sample_parameter_batch(post: BayesNetPosterior, rng: np.random.Generator,
                           n: int) -> dict[str, np.ndarray]:
    """n independent posterior draws per node, stacked on a leading axis."""
    return {v: _normalize_rows(rng.standard_gamma(post.alpha[v], size=(n, *post.alpha[v].shape)))
            for v in post.dag.nodes}


def posterior_mean(post: BayesNetPosterior) -> ParamInstantiation:
    cpts = {v: post.alpha[v] / post.alpha[v].sum(axis=-1, keepdims=True) for v in post.dag.nodes}
    return ParamInstantiation(post.cardinalities, post.parents, cpts)


# --- factor algebra and variable elimination

def _expand(values: np.ndarray, vars: tuple[str, ...], target: tuple[str, ...]) -> np.ndarray:
    """View of ``values`` broadcastable over the axes of ``target``."""
    have = set(vars)
    order = [v for v in target if v in have]
    if order != list(vars):
        values = values.transpose([vars.index(v) for v in order])
    idx = tuple(slice(None) if v in have else None for v in target)
    return values[idx]


def _multiply(factors: Sequence[Factor], target: tuple[str, ...] | None = None) -> Factor:
    """Product of the factors over ``target`` (default: the order variables first appear).

    With a target given the product is C-contiguous in that order, as the
    caller reads it; mid-elimination it is summed at once, so numpy may keep
    whatever layout the inputs have.
    """
    order = "K" if target is None else "C"
    if target is None:
        target = tuple(dict.fromkeys(v for vars, _ in factors for v in vars))
    out = _expand(factors[0][1], factors[0][0], target)
    for vars, values in factors[1:]:
        out = np.multiply(out, _expand(values, vars, target), order=order)
    return target, out


def _min_fill_order(scopes: Sequence[tuple[str, ...]], elim: set[str]) -> list[str]:
    adj: dict[str, set[str]] = {}
    for scope in scopes:
        for v in scope:
            adj.setdefault(v, set()).update(w for w in scope if w != v)
    for v in elim:
        adj.setdefault(v, set())
    order = []
    remaining = set(elim)
    while remaining:
        def fill(v):
            nbrs = [w for w in adj[v] if w in adj]
            return sum(1 for i, a in enumerate(nbrs) for b in nbrs[i + 1:] if b not in adj[a])
        v = min(remaining, key=lambda w: (fill(w), w))
        order.append(v)
        remaining.discard(v)
        nbrs = [w for w in adj[v] if w in adj and w != v]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
        for w in nbrs:
            adj[w].discard(v)
        del adj[v]
    return order


def product_marginal(factors: Sequence[Factor], keep: Sequence[str],
                     elim_order: Sequence[str] | None = None) -> np.ndarray:
    """Sum-product of the factor list, reduced to a tensor over ``keep``.

    Eliminates every other variable (min-fill order unless one is given) and
    returns the unnormalized result with axes ordered as ``keep``. With no
    factors, or ``keep`` empty, the result degenerates to a scalar array.
    """
    keep = tuple(keep)
    if not factors:
        return np.ones(()) if not keep else np.ones([1] * len(keep))
    all_vars = {v for vars, _ in factors for v in vars}
    missing = set(keep) - all_vars
    if missing:
        raise ValueError(f"variables absent from every factor: {sorted(missing)}")
    elim = all_vars - set(keep)
    if elim_order is None:
        order = _min_fill_order([vars for vars, _ in factors], elim)
    else:
        order = [v for v in elim_order if v in elim]
        if set(order) != elim:
            raise ValueError("elim_order must cover exactly the eliminated variables")

    live = [(tuple(vars), np.asarray(values, dtype=float)) for vars, values in factors]
    for v in order:
        group = [f for f in live if v in f[0]]
        live = [f for f in live if v not in f[0]]
        vars, prod = _multiply(group)
        summed = prod.sum(axis=vars.index(v))
        live.append((tuple(w for w in vars if w != v), summed))
    # only kept variables survive, so the last product is built in keep order
    return np.asarray(_multiply(live, keep)[1])


def _evidence_sliced(factors: Sequence[Factor], evidence: Mapping[str, int]) -> list[Factor]:
    out = []
    for vars, values in factors:
        for v, code in evidence.items():
            if v in vars:
                ax = vars.index(v)
                values = np.take(values, int(code), axis=ax)
                vars = vars[:ax] + vars[ax + 1:]
        out.append((vars, values))
    return out


def _check_query(params: ParamInstantiation, vars: Iterable[str],
                 evidence: Mapping[str, int] | None = None) -> None:
    known = set(params.cpts)
    for v in vars:
        if v not in known:
            raise KeyError(f"unknown variable {v!r}")
    for v, code in (evidence or {}).items():
        if v not in known:
            raise KeyError(f"unknown evidence variable {v!r}")
        if not 0 <= int(code) < params.cardinalities[v]:
            raise ValueError(f"evidence {v}={code} outside cardinality {params.cardinalities[v]}")


def infer_conditional(params: ParamInstantiation, target: str,
                      evidence: Mapping[str, int] | None = None,
                      elim_order: Sequence[str] | None = None) -> np.ndarray:
    """Exact P(target | evidence) by variable elimination.

    Raises ZeroEvidenceError when the evidence has probability zero, so a
    degenerate network fails loudly instead of returning NaNs.
    """
    evidence = dict(evidence or {})
    if target in evidence:
        raise ValueError("target must not appear in the evidence")
    _check_query(params, [target], evidence)
    factors = _evidence_sliced(params.factors(), evidence)
    t = product_marginal(factors, (target,), elim_order)
    total = t.sum()
    if total <= 0.0:
        raise ZeroEvidenceError(f"evidence {evidence} has probability 0")
    return t / total


def joint_marginal(params: ParamInstantiation, vars: Sequence[str],
                   elim_order: Sequence[str] | None = None) -> np.ndarray:
    """Exact joint probability tensor over ``vars`` (scalar 1 for the empty set)."""
    vars = tuple(vars)
    _check_query(params, vars)
    if not vars:
        return np.array(1.0)
    return product_marginal(params.factors(), vars, elim_order)

