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

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import CategoricalTable, column_counts, contingency_counts
from .graph import Dag, reach


Factor = tuple[tuple[str, ...], np.ndarray]


@dataclass(frozen=True)
class BayesNetPosterior:
    """DAG plus per-node Dirichlet pseudo-count tensors (prior + data counts).

    ``alpha[v]`` has shape (*parent cardinalities, cardinality of v) with
    parents ordered as in ``parents[v]``; every entry is strictly positive.
    """

    dag: Dag
    cardinalities: dict[str, int]
    parents: dict[str, tuple[str, ...]]
    alpha: dict[str, np.ndarray]

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
            # written so that a NaN row fails too
            if not (np.abs(cpt.sum(axis=-1) - 1.0) <= 1e-12).all():
                raise ValueError(f"CPT rows for {v!r} do not sum to 1")

    def factors(self) -> list[Factor]:
        return [((*self.parents[v], v), self.cpts[v]) for v in self.cpts]


# --- structure learning

# Two BDeu scores closer than this share of their magnitude count as tied
# (see ``learn_structure``).
_TIE_RTOL = 1e-12
MAX_PARENTS = 4


def _bdeu_local(table: CategoricalTable, node: int, parents: tuple[int, ...],
                ess: float) -> float:
    """BDeu local score of column ``node`` given the ``parents`` columns, which
    are listed in table order: every family score of the learner passes here."""
    r = table.cardinalities[node]
    counts = column_counts(table, (*parents, node)).reshape(-1, r)
    q = counts.shape[0]
    a_jk = ess / (q * r)
    a_j = ess / q
    # an empty cell or parent row adds lgamma(a) - lgamma(a) = 0, so only
    # the nonzero counts are visited
    lg_j, lg_jk = math.lgamma(a_j), math.lgamma(a_jk)
    return (sum(lg_j - math.lgamma(a_j + n) for n in counts.sum(axis=1).tolist() if n)
            + sum(math.lgamma(a_jk + c) - lg_jk for c in counts.ravel().tolist() if c))


def _canonical(parents: Iterable[str], order: Mapping[str, int]) -> tuple[str, ...]:
    return tuple(sorted(parents, key=order.__getitem__))


def learn_structure(table: CategoricalTable, *, ess: float = 1.0) -> Dag:
    """Greedy hill-climbing DAG search under the BDeu score.

    One pass from the empty graph: each step takes the best single-edge
    addition, deletion or reversal that keeps every node at ``MAX_PARENTS``
    parents or fewer, scanning moves in canonical order (the table's column
    order), until no move raises the score. The DAG depends only on the table
    and ``ess``; no random number is drawn.

    Tie rule: a move is taken only if its score gain beats the incumbent's
    (at first, no move: 0) by more than ``_TIE_RTOL``·|total score|, and
    otherwise the earlier move wins. BDeu is score-equivalent, so adding u→v
    or v→u to two parentless nodes is an exact tie; the rule settles it by
    move order, never by the last bits of the log-gamma sums.

    The climb holds each node's parent and child sets, over column indices,
    and one row of score changes per node, ``delta[v][u] = local(v, Pa(v) ^
    {u}) − local(v, Pa(v))``, None for an addition past ``MAX_PARENTS``.
    BDeu is decomposable, so a move refreshes only the rows of the one or two
    nodes whose parents it changes. Each family is scored once; the ``Dag``
    is built at the end, and its own check rejects a cycle.
    """
    if table.n < 1:
        raise ValueError("structure learning needs at least one sample")
    nodes = range(len(table.variable_names))
    cache: dict[tuple[int, frozenset[int]], float] = {}

    def local(v: int, ps: frozenset[int]) -> float:
        key = (v, ps)
        if key not in cache:
            cache[key] = _bdeu_local(table, v, tuple(sorted(ps)), ess)
        return cache[key]

    parents = [frozenset()] * len(nodes)
    children = [set() for _ in nodes]
    score = [local(v, parents[v]) for v in nodes]

    def row(v: int) -> list[float | None]:
        full = len(parents[v]) >= MAX_PARENTS
        return [None if u == v or full and u not in parents[v]
                else local(v, parents[v] ^ {u}) - score[v] for u in nodes]

    delta = [row(v) for v in nodes]
    while True:
        tol = _TIE_RTOL * abs(sum(score))
        best_move, best_gain = None, 0.0
        # a move must beat the incumbent and be legal; the cheap test comes first
        for u in nodes:
            for v in nodes:
                if u == v:
                    continue
                if v in children[u]:
                    gain = 0.0 + delta[v][u]
                    if gain - best_gain > tol:
                        best_move, best_gain = ((u, v),), gain
                    # reversing u -> v cycles iff another child of u reaches v
                    back = delta[u][v]
                    if back is not None:
                        gain += back
                        if gain - best_gain > tol and v not in reach(children, children[u] - {v}):
                            best_move, best_gain = ((u, v), (v, u)), gain
                elif u not in children[v]:
                    # adding u -> v cycles iff v already reaches u
                    add = delta[v][u]
                    if add is not None:
                        gain = 0.0 + add
                        if gain - best_gain > tol and u not in reach(children, (v,)):
                            best_move, best_gain = ((u, v),), gain
        if best_move is None:
            names = table.variable_names
            return Dag(names, [(names[u], names[v]) for v in nodes for u in parents[v]])
        # each pair toggles one edge: a deletion or an addition, and a
        # reversal deletes u -> v and adds v -> u
        for u, v in best_move:
            parents[v] ^= {u}
            children[u] ^= {v}
            score[v] = local(v, parents[v])
        for _, v in best_move:
            delta[v] = row(v)


# --- posterior and sampling


def fit_posterior(dag: Dag, table: CategoricalTable, ess: float = 1.0) -> BayesNetPosterior:
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
    return BayesNetPosterior(dag=dag, cardinalities=cards, parents=parents, alpha=alpha)


def _normalize_rows(draws: np.ndarray) -> np.ndarray:
    draws = np.maximum(draws, 1e-300)
    return draws / draws.sum(axis=-1, keepdims=True)


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
    values = values.transpose([vars.index(v) for v in target if v in have])
    return values[tuple(slice(None) if v in have else None for v in target)]


def _multiply(factors: Sequence[Factor], target: tuple[str, ...] | None = None) -> Factor:
    """Product of the factors over ``target`` (default: the order variables
    first appear); a product of two or more factors is C-contiguous."""
    if target is None:
        target = tuple(dict.fromkeys(v for vars, _ in factors for v in vars))
    out = _expand(factors[0][1], factors[0][0], target)
    for vars, values in factors[1:]:
        out = np.multiply(out, _expand(values, vars, target), order="C")
    return target, out


def _min_fill_order(scopes: Sequence[tuple[str, ...]], elim: set[str]) -> list[str]:
    """Greedy min-fill order of ``elim`` (every one in some scope), ties to the smaller name."""
    adj: dict[str, set[str]] = {}
    for scope in scopes:
        for v in scope:
            adj.setdefault(v, set()).update(w for w in scope if w != v)
    order = []
    remaining = set(elim)
    while remaining:
        # each non-adjacent pair of w's neighbours is counted once from either end
        v = min(remaining, key=lambda w: (sum(len(adj[w] - adj[a]) - 1 for a in adj[w]), w))
        order.append(v)
        remaining.discard(v)
        nbrs = adj.pop(v)
        for a in nbrs:
            adj[a] |= nbrs
            adj[a] -= {a, v}
    return order


def product_marginal(factors: Sequence[Factor], keep: Sequence[str]) -> np.ndarray:
    """Sum-product of the factor list, reduced to a tensor over ``keep``.

    Eliminates every other variable in min-fill order and returns the
    unnormalized result with axes ordered as ``keep``. With ``keep`` empty,
    the result degenerates to a scalar array.
    """
    keep = tuple(keep)
    all_vars = {v for vars, _ in factors for v in vars}
    missing = set(keep) - all_vars
    if missing:
        raise ValueError(f"variables absent from every factor: {sorted(missing)}")
    order = _min_fill_order([vars for vars, _ in factors], all_vars - set(keep))

    live = [(tuple(vars), np.asarray(values, dtype=float)) for vars, values in factors]
    for v in order:
        group = [f for f in live if v in f[0]]
        live = [f for f in live if v not in f[0]]
        vars, prod = _multiply(group)
        summed = prod.sum(axis=vars.index(v))
        live.append((tuple(w for w in vars if w != v), summed))
    # only kept variables survive, so the last product is built in keep order
    return np.asarray(_multiply(live, keep)[1])
