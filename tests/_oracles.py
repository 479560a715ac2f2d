"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (path
enumeration, full-joint loops) and never calls the library's inference or
graph-search code paths it is checking.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
from scipy.special import logsumexp

from adjfas.bayesnet import product_marginal, sample_parameter_batch
from adjfas.graph import Admg
from adjfas.score import enumerate_hypotheses
from adjfas.sim import GroundTruth


# --- graph oracles


def _edges_at(g: Admg, v: str):
    """(neighbor, head_at_v, head_at_neighbor) triples for every edge at v."""
    out = []
    for u, w in g.directed_edges:
        if u == v:
            out.append((w, False, True))
        elif w == v:
            out.append((u, True, False))
    for e in g.bidirected_edges:
        if v in e:
            (other,) = tuple(e - {v}) if len(e) == 2 else (v,)
            out.append((other, True, True))
    return out


def _all_paths(g: Admg, a: str, b: str):
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


def msep_by_enumeration(g: Admg, a: str, b: str, z: set[str]) -> bool:
    """m-separation decided by checking every simple path explicitly."""
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


def forbidden_by_enumeration(g: Admg, x: str, y: str) -> set[str]:
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


def interventional_by_enumeration(gt: GroundTruth, x_value: int) -> np.ndarray:
    """P(Y | do(X=x)) from the mutilated joint, by explicit loops."""
    nodes = list(gt.dag.nodes)
    cards = gt.cardinalities
    idx = {v: i for i, v in enumerate(nodes)}
    out = np.zeros(cards[gt.y])
    for assign in product(*(range(cards[v]) for v in nodes)):
        if assign[idx[gt.x]] != x_value:
            continue
        p = 1.0
        for v in nodes:
            if v == gt.x:
                continue
            key = tuple(assign[idx[q]] for q in gt.parents(v)) + (assign[idx[v]],)
            p *= float(gt.cpts[v][key])
        out[assign[idx[gt.y]]] += p
    return out


def adjusted_by_enumeration(gt: GroundTruth, z, x_value: int) -> np.ndarray:
    """Σ_z P(y|x,z)P(z) evaluated on the exact enumerated joint."""
    nodes = list(gt.dag.nodes)
    joint = enumerate_joint(nodes, gt.cardinalities, {v: gt.parents(v) for v in nodes}, gt.cpts)
    idx = {v: i for i, v in enumerate(nodes)}
    zvars = sorted(z)
    out = np.zeros(gt.cardinalities[gt.y])
    for zvals in product(*(range(gt.cardinalities[v]) for v in zvars)):
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


# --- constructed worlds


def random_cpts(dag: Admg, cards, rng) -> dict[str, np.ndarray]:
    order = {v: i for i, v in enumerate(dag.nodes)}
    cpts = {}
    for v in dag.nodes:
        pa = tuple(sorted(dag.parents(v), key=order.__getitem__))
        q = int(np.prod([cards[p] for p in pa], dtype=np.int64)) if pa else 1
        d = np.maximum(rng.standard_gamma(1.0, size=(q, cards[v])), 1e-300)
        cpts[v] = (d / d.sum(axis=1, keepdims=True)).reshape(
            tuple(cards[p] for p in pa) + (cards[v],))
    return cpts


def make_ground_truth(dag: Admg, cards, cpts, x="X", y="Y", selection=None) -> GroundTruth:
    gt = GroundTruth(dag=dag, cardinalities=dict(cards), cpts=cpts, x=x, y=y,
                     selection=selection, true_id={})
    for xv in range(cards[x]):
        gt.true_id[xv] = tuple(interventional_by_enumeration(gt, xv).tolist())
    return gt


def confounded_world(rng=None) -> GroundTruth:
    """Observed confounder C of X and Y with strong, fixed mechanisms."""
    dag = Admg(["C", "X", "Y"], directed=[("C", "X"), ("C", "Y"), ("X", "Y")])
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
    dag = Admg(["L", "C1", "C2", "X", "Y"],
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
    dag = Admg(["U", "C", "B", "X", "Y"],
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
    all of them from one root per arm). It draws the same parameter batch
    per arm as the scorer, so the two agree up to rounding. Returns
    {hypothesis: [(log_marginal, id_estimate, trial_estimate) per arm]}.
    """
    post, exp = prep.post, prep.exp
    x, y = exp.treatment, exp.outcome
    tilts = None if prep.selection is None else prep.selection.theta_s
    if hypotheses is None:
        hypotheses = enumerate_hypotheses(prep.pool, config.max_subset_size)
    out = {h: [] for h in hypotheses if not h.is_not_exists}
    for a_idx, arm in enumerate(exp.arms):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, a_idx)))
        batched = sample_parameter_batch(post, rng, config.niters)
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
