"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (path
enumeration, full-joint loops, a generic convex optimizer) and never calls
the library's inference or graph-search code paths it is checking. Three
exceptions: ``eliminated_conditional`` is a network's exact query spelled
with the library's elimination, so tests can hold it to enumeration and read
a selected population with it; ``score_one_arm`` drives the library's
scorer on a one-arm trial so that tests can hold it to closed forms; and
``ideal_pick`` takes the library's candidate pool, no-set score and tie rule
so that only its adjusted θ differs from the program's.
"""

from __future__ import annotations

import csv
import math
from itertools import combinations, product

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from adjfas.bayesnet import ParamInstantiation, product_marginal, sample_parameter_batch
from adjfas.data import CategoricalTable, ExperimentSummary, ValidationError
from adjfas.graph import Dag
from adjfas.score import (FasConfig, Hypothesis, PreparedScoring, _pick, candidate_pool,
                          enumerate_hypotheses, score_hypotheses, score_not_exists)
from adjfas.sim import GroundTruth


# --- graph oracles


def _edges_at(g: Dag, v: str):
    """(neighbor, head_at_v, head_at_neighbor) triples for every edge at v."""
    out = []
    for u, w in g.directed_edges:
        if u == v:
            out.append((w, False, True))
        elif w == v:
            out.append((u, True, False))
    return out


def _all_paths(g: Dag, a: str, b: str):
    """All simple paths a..b as lists of (node, head_in, head_out) triples."""
    paths = []

    def walk(v, seen, trail):
        if v == b:
            paths.append(list(trail))
            return
        for w, head_v, head_w in _edges_at(g, v):
            if w in seen:
                continue
            trail.append((v, w, head_v, head_w))
            walk(w, seen | {w}, trail)
            trail.pop()

    walk(a, {a}, [])
    return paths


def dsep_by_enumeration(g: Dag, a: str, b: str, z: set[str]) -> bool:
    """d-separation decided by checking every simple path explicitly."""
    anz = g.ancestors(z) if z else set()
    for path in _all_paths(g, a, b):
        blocked = False
        for i in range(1, len(path)):
            node = path[i][0]
            head_in = path[i - 1][3]   # mark at node on the incoming edge
            head_out = path[i][2]      # mark at node on the outgoing edge
            collider = head_in and head_out
            if collider:
                if node not in anz:
                    blocked = True
                    break
            else:
                if node in z:
                    blocked = True
                    break
        if not blocked:
            return False
    return True


def forbidden_by_enumeration(g: Dag, x: str, y: str) -> set[str]:
    """Descendants of nodes on directed x..y paths, via explicit DFS."""
    on_path = set()

    def walk(v, trail):
        if v == y:
            on_path.update(trail[1:] + [y])
            return
        for u, w in g.directed_edges:
            if u == v and w not in trail:
                walk(w, trail + [w])

    walk(x, [x])
    forb = set()
    for w in on_path:
        stack = [w]
        while stack:
            v = stack.pop()
            if v in forb:
                continue
            forb.add(v)
            stack.extend(c for (p, c) in g.directed_edges if p == v)
    return forb


# --- counting, sampling and loading, one row or one cell at a time


def contingency_by_row_pass(table: CategoricalTable, vars) -> np.ndarray:
    """Count tensor of ``vars`` by one bincount over every row of the table."""
    idx = [table.index(v) for v in vars]
    cards = [table.cardinalities[i] for i in idx]
    flat = np.zeros(table.n, dtype=np.int64)
    for i, c in zip(idx, cards):
        flat = flat * c + table.rows[:, i]
    return np.bincount(flat, minlength=int(np.prod(cards))).reshape(cards)


def contingency_by_add_at(table: CategoricalTable, vars) -> np.ndarray:
    """Count tensor of ``vars`` by one ``np.add.at`` over every row of the table."""
    idx = [table.index(v) for v in vars]
    if not idx:
        return np.array(table.n, dtype=np.int64)
    counts = np.zeros([table.cardinalities[i] for i in idx], dtype=np.int64)
    np.add.at(counts, tuple(table.rows[:, i] for i in idx), 1)
    return counts


def bdeu_by_cells(table: CategoricalTable, node, parents, ess: float) -> float:
    """BDeu local score of ``node`` given ``parents`` (names, in table order)
    over an ``np.add.at`` count, summing the learner's nonzero terms in the
    learner's order, so that the two agree bit for bit."""
    r = table.cardinality(node)
    counts = contingency_by_add_at(table, [*parents, node]).reshape(-1, r)
    q = counts.shape[0]
    a_jk = ess / (q * r)
    a_j = ess / q
    lg_j, lg_jk = math.lgamma(a_j), math.lgamma(a_jk)
    return (sum(lg_j - math.lgamma(a_j + n) for n in counts.sum(axis=1).tolist() if n)
            + sum(math.lgamma(a_jk + c) - lg_jk for c in counts[counts > 0].tolist()))


def forward_sample_by_argmax(gt: GroundTruth, n: int, rng) -> dict[str, np.ndarray]:
    """Forward sampling with each row's own CPT cumsum: the first category
    whose cumulative probability exceeds the row's uniform."""
    cards = gt.params.cardinalities
    cols = {}
    for v in gt.dag.topological_order():
        pa = gt.params.parents[v]
        r = cards[v]
        flat = gt.params.cpts[v].reshape(-1, r)
        if pa:
            probs = flat[np.ravel_multi_index([cols[p] for p in pa], [cards[p] for p in pa])]
        else:
            probs = np.broadcast_to(flat[0], (n, r))
        cum = probs.cumsum(axis=1)
        cum[:, -1] = 1.0
        u = rng.random(n)
        cols[v] = (u[:, None] < cum).argmax(axis=1).astype(np.int64)
    return cols


def load_observational_by_cells(path) -> CategoricalTable:
    """The CSV loader that reads every file through csv.reader and int()."""
    with open(path, encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if not header or all(not h.strip() for h in header):
            raise ValidationError(f"{path}: missing header row")
        names = [h.strip() for h in header]
        data = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise ValidationError(f"{path}: line {lineno}: expected {len(names)} cells, got {len(row)}")
            parsed = []
            for j, cell in enumerate(row):
                try:
                    code = int(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}: line {lineno}, column {names[j]!r}: not an integer: {cell!r}") from None
                if code < 0:
                    raise ValidationError(f"{path}: line {lineno}, column {names[j]!r}: negative code {code}")
                parsed.append(code)
            data.append(parsed)
    rows = np.asarray(data, dtype=np.int64).reshape(len(data), len(names))
    if not len(rows):
        raise ValidationError(f"{path}: no data rows to infer cardinalities from")
    cards = tuple(int(rows[:, j].max()) + 1 for j in range(len(names)))
    return CategoricalTable(tuple(names), cards, rows)


# --- exact joint enumeration


def enumerate_joint(nodes, cards, parents, cpts) -> np.ndarray:
    """Full joint tensor over ``nodes`` by looping every assignment."""
    shape = tuple(cards[v] for v in nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    joint = np.zeros(shape)
    for assign in product(*(range(cards[v]) for v in nodes)):
        p = 1.0
        for v in nodes:
            key = tuple(assign[idx[p_]] for p_ in parents[v]) + (assign[idx[v]],)
            p *= float(cpts[v][key])
        joint[assign] = p
    return joint


def conditional_from_joint(joint, nodes, target, evidence) -> np.ndarray:
    idx = {v: i for i, v in enumerate(nodes)}
    sl = joint
    kept = list(nodes)
    for v, c in sorted(evidence.items(), key=lambda kv: -idx[kv[0]]):
        sl = np.take(sl, c, axis=kept.index(v))
        kept.remove(v)
    axes = tuple(i for i, v in enumerate(kept) if v != target)
    t = sl.sum(axis=axes)
    return t / t.sum()


def _evidence_sliced(factors, evidence):
    """Each factor with every evidence variable's axis fixed at its observed code."""
    out = []
    for vars, values in factors:
        for v, code in evidence.items():
            if v in vars:
                ax = vars.index(v)
                values = np.take(values, int(code), axis=ax)
                vars = vars[:ax] + vars[ax + 1:]
        out.append((vars, values))
    return out


def eliminated_conditional(params: ParamInstantiation, target, evidence=None, tilts=None):
    """P(target | evidence) in the population ∝ P(V) · ∏_v tilts[v][V_v], by elimination."""
    factors = params.factors() + [((v,), np.asarray(w, dtype=float))
                                  for v, w in (tilts or {}).items()]
    t = product_marginal(_evidence_sliced(factors, evidence or {}), (target,))
    return t / t.sum()


def min_fill_order_by_pairs(scopes, elim) -> list[str]:
    """Greedy min-fill elimination order, ties to the smaller name, by
    counting every non-adjacent pair of a candidate's neighbours."""
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


def i_projection_by_dual(joint, targets) -> np.ndarray:
    """The I-projection of ``joint`` onto one marginal per axis (Csiszár 1975).

    Minimizes the convex dual log Σ_r P(r)·exp(Σ_i λ_i[r_i]) − Σ_i λ_i·t_i with
    scipy's BFGS; the minimizer's tilted joint P(r)·exp(Σ_i λ_i[r_i]) / Z
    is the projection.
    """
    targets = [np.asarray(t, dtype=float) for t in targets]
    splits = np.cumsum([len(t) for t in targets])[:-1]

    def tilted(lam):
        logq = np.log(joint)
        for i, l in enumerate(np.split(lam, splits)):
            shape = [1] * joint.ndim
            shape[i] = -1
            logq = logq + l.reshape(shape)
        return logq

    def dual(lam):
        logq = tilted(lam)
        log_z = logsumexp(logq)
        q = np.exp(logq - log_z)
        margins = [q.sum(axis=tuple(j for j in range(joint.ndim) if j != i))
                   for i in range(joint.ndim)]
        return (log_z - float(lam @ np.concatenate(targets)),
                np.concatenate(margins) - np.concatenate(targets))

    lam = minimize(dual, np.zeros(int(sum(len(t) for t in targets))), jac=True,
                   method="BFGS", options={"gtol": 1e-12}).x
    logq = tilted(lam)
    return np.exp(logq - logsumexp(logq))


def interventional_by_enumeration(gt: GroundTruth, x_value: int) -> np.ndarray:
    """P(Y | do(X=x)) from the mutilated joint, by explicit loops."""
    nodes = list(gt.dag.nodes)
    cards, parents, cpts = gt.params.cardinalities, gt.params.parents, gt.params.cpts
    idx = {v: i for i, v in enumerate(nodes)}
    out = np.zeros(cards[gt.y])
    for assign in product(*(range(cards[v]) for v in nodes)):
        if assign[idx[gt.x]] != x_value:
            continue
        p = 1.0
        for v in nodes:
            if v == gt.x:
                continue
            key = tuple(assign[idx[q]] for q in parents[v]) + (assign[idx[v]],)
            p *= float(cpts[v][key])
        out[assign[idx[gt.y]]] += p
    return out


def adjusted_by_enumeration(gt: GroundTruth, z, x_value: int) -> np.ndarray:
    """Σ_z P(y|x,z)P(z) evaluated on the exact enumerated joint."""
    nodes = list(gt.dag.nodes)
    cards = gt.params.cardinalities
    joint = enumerate_joint(nodes, cards, gt.params.parents, gt.params.cpts)
    idx = {v: i for i, v in enumerate(nodes)}
    zvars = sorted(z)
    out = np.zeros(cards[gt.y])
    for zvals in product(*(range(cards[v]) for v in zvars)):
        sl = joint
        kept = list(nodes)
        for v, c in sorted(zip(zvars, zvals), key=lambda kv: -idx[kv[0]]):
            sl = np.take(sl, c, axis=kept.index(v))
            kept.remove(v)
        pz = sl.sum()
        if pz == 0.0:
            continue
        sx = np.take(sl, x_value, axis=kept.index(gt.x))
        kept2 = [v for v in kept if v != gt.x]
        pxz = sx.sum()
        if pxz == 0.0:
            continue
        py = sx.sum(axis=tuple(i for i, v in enumerate(kept2) if v != gt.y))
        out += (py / pxz) * pz
    return out


def observed_joint(gt: GroundTruth) -> tuple[np.ndarray, list[str]]:
    """P over the observed nodes (axes in node order): one broadcast product of
    every CPT over the full joint, latent axes summed out."""
    nodes = list(gt.dag.nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    operands = []
    for v in nodes:
        operands += [gt.params.cpts[v], [idx[p] for p in gt.params.parents[v]] + [idx[v]]]
    kept = [v for v in nodes if v in gt.dag.observed]
    return np.einsum(*operands, [idx[v] for v in kept]), kept


def adjusted_from_joint(joint: np.ndarray, kept: list[str], x: str, y: str, z) -> np.ndarray:
    """Σ_z P(Y|x,z)P(z) at every x, shape (|X|, |Y|), from the observed joint
    and its axis names as ``observed_joint`` returns them."""
    sub = np.einsum(joint, list(range(len(kept))), [kept.index(v) for v in (x, y, *sorted(z))])
    pz = sub.sum(axis=(0, 1))
    cond = sub / sub.sum(axis=1, keepdims=True)  # P(Y | x, z)
    return (cond * pz).reshape(*cond.shape[:2], -1).sum(axis=2)


def ideal_pick(gt: GroundTruth, table: CategoricalTable, exp: ExperimentSummary,
               alpha: float) -> Hypothesis:
    """The pick of a scorer that knows the world's CPTs.

    Every subset of the program's candidate pool scores the multinomial
    sequence log-likelihood of the arm counts under its exact adjusted θ,
    Σ_z P(y|x,z)P(z) of the true joint; NOT_EXISTS scores ``score_not_exists``
    and the tie rule is ``_pick``'s. The prior is uniform, so it drops out.
    """
    x, y = exp.treatment, exp.outcome
    joint, kept = observed_joint(gt)
    values = {}
    for h in enumerate_hypotheses(candidate_pool(table, x, y, alpha)):
        if h.is_not_exists:
            values[h] = sum(score_not_exists(arm) for arm in exp.arms)
            continue
        theta = adjusted_from_joint(joint, kept, x, y, h.z)
        total = 0.0
        for arm in exp.arms:
            total += sum(c * np.log(t) for c, t in zip(arm.outcome_counts, theta[arm.x_value])
                         if c > 0)
        values[h] = float(total)
    return _pick(values)


# --- constructed worlds


def random_cpts(dag: Dag, cards, rng) -> dict[str, np.ndarray]:
    order = {v: i for i, v in enumerate(dag.nodes)}
    cpts = {}
    for v in dag.nodes:
        pa = tuple(sorted(dag.parents(v), key=order.__getitem__))
        q = int(np.prod([cards[p] for p in pa], dtype=np.int64)) if pa else 1
        d = np.maximum(rng.standard_gamma(1.0, size=(q, cards[v])), 1e-300)
        cpts[v] = (d / d.sum(axis=1, keepdims=True)).reshape(
            tuple(cards[p] for p in pa) + (cards[v],))
    return cpts


def make_ground_truth(dag: Dag, cards, cpts, x="X", y="Y", selection=None) -> GroundTruth:
    """A world over ``dag``; each CPT's parents are in the dag's node order."""
    order = {v: i for i, v in enumerate(dag.nodes)}
    parents = {v: tuple(sorted(dag.parents(v), key=order.__getitem__)) for v in dag.nodes}
    params = ParamInstantiation(dict(cards), parents, {v: cpts[v] for v in dag.nodes})
    gt = GroundTruth(dag=dag, params=params, x=x, y=y, selection=selection, true_id={})
    for xv in range(cards[x]):
        gt.true_id[xv] = tuple(interventional_by_enumeration(gt, xv).tolist())
    return gt


def confounded_world(rng=None) -> GroundTruth:
    """Observed confounder C of X and Y with strong, fixed mechanisms."""
    dag = Dag(["C", "X", "Y"], directed=[("C", "X"), ("C", "Y"), ("X", "Y")])
    cards = {"C": 2, "X": 2, "Y": 2}
    cpts = {
        "C": np.array([0.5, 0.5]),
        "X": np.array([[0.85, 0.15], [0.15, 0.85]]),
        "Y": np.array([[[0.85, 0.15], [0.40, 0.60]],
                       [[0.55, 0.45], [0.10, 0.90]]]),  # axes (C, X, Y)
    }
    return make_ground_truth(dag, cards, cpts)


def mean_abs_diff(est, truth: GroundTruth) -> float:
    diffs = []
    for xv, vec in est.items():
        diffs.append(np.abs(np.asarray(vec) - np.asarray(truth.true_id[xv])))
    return float(np.concatenate(diffs).mean())


def latent_confounder_world(rng, min_bias: float = 0.05) -> GroundTruth:
    """X and Y share a latent cause; no observed subset passes the criterion.

    CPTs are redrawn until the unadjusted estimate is off by at least
    ``min_bias``, so the confounding is detectable at benchmark sample sizes.
    """
    dag = Dag(["L", "C1", "C2", "X", "Y"],
              directed=[("L", "X"), ("L", "Y"), ("X", "Y"), ("C1", "X"), ("C2", "Y")],
              observed=["C1", "C2", "X", "Y"])
    cards = {"L": 2, "C1": 2, "C2": 2, "X": 2, "Y": 2}
    while True:
        cpts = random_cpts(dag, cards, rng)
        gt = make_ground_truth(dag, cards, cpts)
        unadj = {xv: tuple(adjusted_by_enumeration(gt, (), xv).tolist())
                 for xv in range(cards["X"])}
        if mean_abs_diff(unadj, gt) >= min_bias:
            return gt


def valid_set_world(rng, min_bias: float = 0.05) -> GroundTruth:
    """A criterion-valid observed set {C} exists and matters.

    C confounds X and Y; an extra covariate B (cause of Y only) and a latent
    cause of B add texture without breaking {C}'s validity. Redraws until the
    unadjusted bias is at least ``min_bias`` so the confounder is detectable.
    """
    dag = Dag(["U", "C", "B", "X", "Y"],
              directed=[("C", "X"), ("C", "Y"), ("X", "Y"), ("B", "Y"), ("U", "B"), ("U", "C")],
              observed=["C", "B", "X", "Y"])
    cards = {"U": 2, "C": 2, "B": 2, "X": 2, "Y": 2}
    while True:
        cpts = random_cpts(dag, cards, rng)
        gt = make_ground_truth(dag, cards, cpts)
        unadj = {xv: tuple(adjusted_by_enumeration(gt, (), xv).tolist())
                 for xv in range(cards["X"])}
        if mean_abs_diff(unadj, gt) >= min_bias:
            return gt


def all_valid_subsets(gt: GroundTruth):
    from adjfas.graph import satisfies_adjustment_criterion
    covs = sorted(set(gt.dag.observed) - {gt.x, gt.y})
    out = []
    for size in range(len(covs) + 1):
        for z in combinations(covs, size):
            if satisfies_adjustment_criterion(gt.dag, gt.x, gt.y, z):
                out.append(frozenset(z))
    return out


# --- per-hypothesis scoring


def score_one_arm(x, y, z, post, arm, niters, seed):
    """The scorer's ``ArmScore`` of one arm under 'z adjusts', from ``niters``
    posterior draws seeded by ``seed``: ``score_hypotheses`` on a trial of
    that arm alone, in the observational population."""
    prep = PreparedScoring(exp=ExperimentSummary(x, y, (arm,)), pool=tuple(z), post=post,
                           selection=None)
    h = Hypothesis.adjustment(z)
    return score_hypotheses(prep, FasConfig(niters=niters, seed=seed), [h])[h].arm_scores[0]


def _predictive_by_elimination(batched, parents, x, y, zvars, x_value, tilts=None):
    """θ_{Y_x} per draw for one set, from its own elimination: (batch, |Y|), (batch,)."""
    factors = [(("batch", *parents[v], v), batched[v]) for v in batched]
    if tilts:
        factors += [((v,), np.asarray(t, dtype=float)) for v, t in tilts.items()]
    joint = product_marginal(factors, ("batch", y, x, *zvars))
    pz = joint.sum(axis=(1, 2))
    if tilts:
        pz = pz / pz.reshape(len(pz), -1).sum(axis=1).reshape((-1,) + (1,) * (pz.ndim - 1))
    sliced = np.take(joint, x_value, axis=2)
    denom = sliced.sum(axis=1)
    cond = np.where(denom[:, None] > 0, sliced / np.where(denom > 0, denom, 1.0)[:, None], 0.0)
    zaxes = tuple(range(1, 1 + len(zvars)))
    theta = (cond * pz[:, None]).sum(axis=tuple(a + 1 for a in zaxes))
    degenerate = ((denom == 0) & (pz > 0)).any(axis=zaxes) if zvars else (denom == 0) & (pz > 0)
    return theta, degenerate


def score_by_elimination(prep, config, hypotheses=None):
    """Arm scores of each subset hypothesis from its own variable elimination.

    The slow, obvious form of the scorer: every hypothesis runs a full
    ``product_marginal`` on every arm (the lattice walk under test derives
    all of them from one root per group of sets). It draws the scorer's one
    parameter batch per search, so the two agree up to rounding. Returns
    {hypothesis: [(log_marginal, id_estimate, trial_estimate) per arm]}.
    """
    post, exp = prep.post, prep.exp
    x, y = exp.treatment, exp.outcome
    tilts = None if prep.selection is None else prep.selection.theta_s
    if hypotheses is None:
        hypotheses = enumerate_hypotheses(prep.pool, config.max_subset_size)
    out = {h: [] for h in hypotheses if not h.is_not_exists}
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    batched = sample_parameter_batch(post, rng, config.niters)
    for arm in exp.arms:
        counts = np.asarray(arm.outcome_counts, dtype=float)
        for h in out:
            zvars = tuple(v for v in post.dag.nodes if v in h.z)
            th_t, dg_t = _predictive_by_elimination(batched, post.parents, x, y, zvars,
                                                    arm.x_value, tilts)
            th_i, dg_i = (_predictive_by_elimination(batched, post.parents, x, y, zvars,
                                                     arm.x_value) if tilts else (th_t, dg_t))
            with np.errstate(divide="ignore"):
                ll = np.log(th_t[:, counts > 0]) @ counts[counts > 0]
            ll = np.where(dg_t, -np.inf, ll)
            out[h].append((float(logsumexp(ll) - np.log(config.niters)),
                           th_i[~dg_i].mean(axis=0), th_t[~dg_t].mean(axis=0)))
    return out
