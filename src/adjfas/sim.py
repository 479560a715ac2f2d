"""Ground-truth worlds, dataset generation and the benchmark harness.

Worlds are random DAGs over a treatment, an outcome, observed covariates and
latent covariates, with random categorical mechanisms and an enforced directed
path from treatment to outcome. Datasets are forward samples (observational)
and mutilated-graph samples (per-arm experimental), optionally thinned by a
per-variable inclusion mechanism to mimic a selected trial population. The
benchmark runs the search and the baselines over many replicated worlds and
reports the error |Δθ| of each method's interventional estimate against the
unselected truth.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .bayesnet import (Factor, _evidence_sliced, fit_posterior, learn_structure,
                       posterior_mean, product_marginal)
from .data import Arm, CategoricalTable, ExperimentSummary
from .graph import Admg, satisfies_adjustment_criterion
from .score import (FasConfig, Hypothesis, _assemble, _root_joint, _walk_lattice, pick_min_kl,
                    prepare_scoring, score_hypotheses)

MAX_STATE_SPACE = 3 ** 12
MIN_ACCEPTANCE = 1e-6

METHODS = ("FAS", "KL", "DEXP", "VWS")


@dataclass
class SimConfig:
    n_observed: int = 6
    n_latent: int = 4
    mean_in_degree: float = 2.0
    cardinalities: tuple[int, ...] = (2, 3)
    n_obs: int = 10000
    n_per_arm: int = 500
    mode: str = "random"          # random | pretreatment
    selection: str = "none"       # none | observed | latent
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("random", "pretreatment"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.selection not in ("none", "observed", "latent"):
            raise ValueError(f"unknown selection setting {self.selection!r}")
        if min(self.n_obs, self.n_per_arm) < 1 or self.n_observed < 0 or self.n_latent < 0:
            raise ValueError("counts must be positive")
        if self.selection == "latent" and self.n_observed < 2:
            raise ValueError("latent selection needs at least two observed covariates")


@dataclass
class GroundTruth:
    """A fully specified world: graph, mechanisms, treatment/outcome, truths."""

    dag: Admg
    cardinalities: dict[str, int]
    cpts: dict[str, np.ndarray]     # shape (*parent cards, card), parents in dag order
    x: str
    y: str
    selection: dict[str, np.ndarray] | None
    true_id: dict[int, tuple[float, ...]]

    def parents(self, v: str) -> tuple[str, ...]:
        order = {u: i for i, u in enumerate(self.dag.nodes)}
        return tuple(sorted(self.dag.parents(v), key=order.__getitem__))

    def factors(self) -> list[Factor]:
        return [((*self.parents(v), v), self.cpts[v]) for v in self.dag.nodes]


def _state_space(cards: Mapping[str, int]) -> int:
    out = 1
    for c in cards.values():
        out *= int(c)
    return out


def _interventional(dag: Admg, cpts, parents, x: str, y: str, x_value: int) -> np.ndarray:
    factors = [((*parents(v), v), cpts[v]) for v in dag.nodes if v != x]
    return product_marginal(_evidence_sliced(factors, {x: x_value}), (y,))


def true_interventional(gt: GroundTruth, x_value: int) -> np.ndarray:
    """Exact P(Y | do(X=x)) by truncated factorization (treatment mechanism removed)."""
    if _state_space(gt.cardinalities) > MAX_STATE_SPACE:
        raise ValueError(
            f"state space {_state_space(gt.cardinalities)} exceeds the exact-computation limit")
    if not 0 <= x_value < gt.cardinalities[gt.x]:
        raise ValueError(f"x value {x_value} outside cardinality of {gt.x!r}")
    return _interventional(gt.dag, gt.cpts, gt.parents, gt.x, gt.y, x_value)


def generate_world(cfg: SimConfig, rng: np.random.Generator) -> GroundTruth:
    """Random world per the config; redraws until structural constraints hold.

    Covariates precede the treatment in pretreatment mode; a directed path
    from treatment to outcome is always enforced; selection (when configured)
    attaches Uniform(0.2, 1) inclusion weights to up to three observed
    pre-treatment covariates.
    """
    covs = [f"V{i + 1}" for i in range(cfg.n_observed)]
    lats = [f"U{i + 1}" for i in range(cfg.n_latent)]
    observed = set(covs) | {"X", "Y"}

    for _ in range(10000):
        others = list(covs + lats)
        rng.shuffle(others)
        order = others + ["X", "Y"]
        if cfg.mode == "random":
            rng.shuffle(order)
            ix, iy = order.index("X"), order.index("Y")
            if ix > iy:
                order[ix], order[iy] = order[iy], order[ix]

        n = len(order)
        p_edge = min(1.0, 2.0 * cfg.mean_in_degree / max(1, n - 1))
        edges = []
        for j in range(1, n):
            mask = rng.random(j) < p_edge
            edges.extend((order[i], order[j]) for i in range(j) if mask[i])
        dag = Admg(order, directed=edges, observed=observed & set(order))

        if "Y" not in dag.descendants({"X"}):
            continue
        if cfg.mode == "pretreatment" and (dag.descendants({"X"}) - {"X", "Y"}) & set(covs + lats):
            continue

        selection = None
        if cfg.selection != "none":
            candidates = sorted(set(covs) - dag.descendants({"X"}))
            k = min(3, len(candidates))
            if cfg.selection == "latent":
                # at least one observed covariate must stay reportable
                k = min(k, cfg.n_observed - 1)
            if k < 1:
                continue
            chosen = [candidates[i] for i in sorted(rng.choice(len(candidates), k, replace=False))]
            selection = {}
        break
    else:
        raise RuntimeError("could not draw a world satisfying the structural constraints")

    cards = {v: int(rng.choice(cfg.cardinalities)) for v in order}
    order_idx = {v: i for i, v in enumerate(dag.nodes)}
    cpts = {}
    for v in dag.nodes:
        pa = tuple(sorted(dag.parents(v), key=order_idx.__getitem__))
        q = int(np.prod([cards[p] for p in pa], dtype=np.int64)) if pa else 1
        draws = rng.standard_gamma(1.0, size=(q, cards[v]))
        draws = np.maximum(draws, 1e-300)
        cpt = draws / draws.sum(axis=1, keepdims=True)
        cpts[v] = cpt.reshape(tuple(cards[p] for p in pa) + (cards[v],))

    if cfg.selection != "none":
        for v in chosen:
            selection[v] = rng.uniform(0.2, 1.0, cards[v])

    parents = lambda v: tuple(sorted(dag.parents(v), key=order_idx.__getitem__))
    true_id = {
        xv: tuple(_interventional(dag, cpts, parents, "X", "Y", xv).tolist())
        for xv in range(cards["X"])
    }
    return GroundTruth(dag=dag, cardinalities=cards, cpts=cpts, x="X", y="Y",
                       selection=selection, true_id=true_id)


# --- sampling


def _forward_sample(gt: GroundTruth, n: int, rng: np.random.Generator,
                    do: Mapping[str, int] | None = None) -> dict[str, np.ndarray]:
    cols: dict[str, np.ndarray] = {}
    for v in gt.dag.topological_order():
        if do and v in do:
            cols[v] = np.full(n, do[v], dtype=np.int64)
            continue
        pa = gt.parents(v)
        r = gt.cardinalities[v]
        flat = gt.cpts[v].reshape(-1, r)
        if pa:
            idx = np.ravel_multi_index([cols[p] for p in pa], [gt.cardinalities[p] for p in pa])
            probs = flat[idx]
        else:
            probs = np.broadcast_to(flat[0], (n, r))
        cum = probs.cumsum(axis=1)
        cum[:, -1] = 1.0
        u = rng.random(n)
        cols[v] = (u[:, None] < cum).argmax(axis=1).astype(np.int64)
    return cols


def _acceptance_prob(gt: GroundTruth, x_value: int) -> float:
    tilt = [((v,), w) for v, w in (gt.selection or {}).items()]
    factors = [f for f in gt.factors() if f[0][-1] != gt.x]
    return float(product_marginal(_evidence_sliced(factors + tilt, {gt.x: x_value}), ()))


def _selected_marginal_exact(gt: GroundTruth, var: str) -> np.ndarray:
    tilt = [((v,), w) for v, w in (gt.selection or {}).items()]
    t = product_marginal(gt.factors() + tilt, (var,))
    return t / t.sum()


def sample_datasets(gt: GroundTruth, cfg: SimConfig,
                    rng: np.random.Generator) -> tuple[CategoricalTable, ExperimentSummary]:
    """Draw an observational table and a trial summary from the world.

    The table is unselected forward samples with latent columns dropped. Each
    arm samples the mutilated graph; under selection, units are accepted with
    probability ∏_i θ_{S_i=1|v_i} until the arm is full. Reported marginals
    are exact (selected-population) values for a random subset of observed
    covariates: the subset covers all selected variables in ``observed`` mode
    and omits every selected variable in ``latent`` mode.
    """
    if (gt.selection is not None) != (cfg.selection != "none"):
        raise ValueError("config selection setting disagrees with the world's mechanism")

    obs_vars = [v for v in gt.dag.nodes if v in gt.dag.observed]
    cols = _forward_sample(gt, cfg.n_obs, rng)
    rows = np.column_stack([cols[v] for v in obs_vars])
    table = CategoricalTable(tuple(obs_vars), tuple(gt.cardinalities[v] for v in obs_vars), rows)

    arms = []
    for xv in range(gt.cardinalities[gt.x]):
        if gt.selection:
            acc = _acceptance_prob(gt, xv)
            if acc < MIN_ACCEPTANCE:
                raise ValueError(
                    f"acceptance probability {acc:.2e} for arm x={xv} below {MIN_ACCEPTANCE:g}")
            got = []
            need = cfg.n_per_arm
            while need > 0:
                batch = int(min(2_000_000, max(1000, need / max(acc, 1e-9) * 1.3)))
                draw = _forward_sample(gt, batch, rng, do={gt.x: xv})
                w = np.ones(batch)
                for v, th in gt.selection.items():
                    w *= th[draw[v]]
                keep = rng.random(batch) < w
                got.append(draw[gt.y][keep][:need])
                need -= got[-1].size
            ycol = np.concatenate(got)
        else:
            ycol = _forward_sample(gt, cfg.n_per_arm, rng, do={gt.x: xv})[gt.y]
        counts = np.bincount(ycol, minlength=gt.cardinalities[gt.y])
        arms.append(Arm.from_counts(xv, counts.tolist()))

    covs = [v for v in obs_vars if v not in (gt.x, gt.y)]
    selected = sorted(gt.selection) if gt.selection else []
    reported: list[str] = []
    if cfg.selection == "observed":
        reported = list(selected)
        extra = [v for v in covs if v not in selected]
        reported += [v for v in extra if rng.random() < 0.5]
    elif cfg.selection == "latent":
        pool = [v for v in covs if v not in selected]
        reported = [v for v in pool if rng.random() < 0.5]
        if not reported:
            reported = [pool[int(rng.integers(len(pool)))]]
    else:
        reported = [v for v in covs if rng.random() < 0.5]

    marginals = {v: tuple(_selected_marginal_exact(gt, v).tolist()) for v in sorted(reported)}
    population = "same" if cfg.selection == "none" else "selected"
    return table, ExperimentSummary(
        treatment=gt.x, outcome=gt.y, arms=tuple(arms),
        reported_marginals=marginals, population=population)


# --- evaluation


def delta_theta(est: Mapping[int, Sequence[float]], truth: GroundTruth) -> float:
    """Mean absolute difference between estimated and true interventional parameters."""
    if est is None:
        raise ValueError("estimate is unavailable (N/A)")
    diffs = []
    for xv, vec in est.items():
        true = np.asarray(truth.true_id[xv], dtype=float)
        diffs.append(np.abs(np.asarray(vec, dtype=float) - true))
    return float(np.concatenate(diffs).mean())


def vws_baseline(gt: GroundTruth) -> frozenset[str]:
    """Disjunctive-criterion set: observed causes of treatment or outcome.

    Descendants of the treatment are dropped; with no qualifying covariate the
    set is empty and the estimate degenerates to the unadjusted conditional.
    """
    causes = (gt.dag.ancestors({gt.x}) | gt.dag.ancestors({gt.y})) - {gt.x, gt.y}
    return frozenset((causes & gt.dag.observed) - gt.dag.descendants({gt.x}))


def _adjusted_from_instantiation(params, x: str, y: str, z: Sequence[str]) -> dict[int, tuple[float, ...]]:
    """Σ_z P(Y|x,z)P(z) of one CPT set for every x, by the scorer's own formula."""
    batched = {v: cpt[None] for v, cpt in params.cpts.items()}  # a batch of one draw
    zvars = tuple(sorted(z))
    joint = _root_joint(batched, params.parents, x, y, zvars)
    full = (1 << len(zvars)) - 1  # the mask of the root's own set
    out = {}
    for xv in range(joint.shape[1]):
        theta, _ = _walk_lattice(joint, xv, [full])[full]  # (|Y|, 1)
        out[xv] = tuple(theta[:, 0].tolist())
    return out


def _no_valid_set_exists(gt: GroundTruth) -> bool:
    covs = sorted((set(gt.dag.observed) - {gt.x, gt.y}))
    from itertools import combinations
    for size in range(len(covs) + 1):
        for z in combinations(covs, size):
            if satisfies_adjustment_criterion(gt.dag, gt.x, gt.y, z):
                return False
    return True


@dataclass
class ReplicateResult:
    replicate: int
    method: str
    hypothesis: str
    delta: float | None
    criterion_valid: bool | None
    not_exists: bool
    seconds: float
    error: str | None = None


@dataclass
class BenchmarkReport:
    config: SimConfig
    fas_config: FasConfig
    methods: tuple[str, ...]
    results: list[ReplicateResult] = field(default_factory=list)

    def summary(self) -> dict:
        out: dict = {
            "replicates": len({r.replicate for r in self.results}),
            "methods": {},
            "sim_config": {
                "n_observed": self.config.n_observed, "n_latent": self.config.n_latent,
                "mean_in_degree": self.config.mean_in_degree, "n_obs": self.config.n_obs,
                "n_per_arm": self.config.n_per_arm, "mode": self.config.mode,
                "selection": self.config.selection, "seed": self.config.seed,
            },
            "fas_config": {
                "alpha": self.fas_config.alpha, "niters": self.fas_config.niters,
                "ess": self.fas_config.ess,
                "max_subset_size": self.fas_config.max_subset_size,
            },
        }
        for m in self.methods:
            rows = [r for r in self.results if r.method == m]
            deltas = [r.delta for r in rows if r.delta is not None]
            flags = [r.criterion_valid for r in rows if r.criterion_valid is not None]
            out["methods"][m] = {
                "n": len(rows),
                "errors": sum(1 for r in rows if r.error),
                "missing": sum(1 for r in rows if r.delta is None and not r.error),
                "delta_median": float(np.median(deltas)) if deltas else None,
                "delta_q1": float(np.percentile(deltas, 25)) if deltas else None,
                "delta_q3": float(np.percentile(deltas, 75)) if deltas else None,
                "not_exists_rate": (sum(1 for r in rows if r.not_exists) / len(rows)) if rows else None,
                "criterion_valid_rate": (sum(flags) / len(flags)) if flags else None,
                "mean_seconds": float(np.mean([r.seconds for r in rows])) if rows else None,
            }
        return out


def _run_replicate(rep: int, cfg: SimConfig, fas_config: FasConfig,
                   methods: Sequence[str]) -> list[ReplicateResult]:
    results: list[ReplicateResult] = []
    world_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(rep, 0)))
    gt = generate_world(cfg, world_rng)
    data_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(rep, 1)))
    table, exp = sample_datasets(gt, cfg, data_rng)
    method_seed = int(np.random.SeedSequence(cfg.seed, spawn_key=(rep, 2)).generate_state(1)[0])
    fcfg = replace(fas_config, seed=method_seed)

    none_valid: bool | None = None

    def valid_flag(h: Hypothesis) -> bool:
        nonlocal none_valid
        if h.is_not_exists:
            if none_valid is None:
                none_valid = _no_valid_set_exists(gt)
            return none_valid
        return satisfies_adjustment_criterion(gt.dag, gt.x, gt.y, h.z)

    records = None
    if "FAS" in methods or "KL" in methods:
        t0 = time.perf_counter()
        try:
            prep = prepare_scoring(table, exp, fcfg)
            records = score_hypotheses(prep, fcfg)
        except Exception as e:  # noqa: BLE001 - replicate failures are recorded, not fatal
            msg = f"{type(e).__name__}: {e}"
            for m in ("FAS", "KL"):
                if m in methods:
                    results.append(ReplicateResult(rep, m, "", None, None, False,
                                                   time.perf_counter() - t0, msg))
        shared_seconds = time.perf_counter() - t0

    if records is not None and "FAS" in methods:
        found = _assemble(prep, records, fcfg)
        best = found.best
        delta = None if found.estimate is None else delta_theta(found.estimate, gt)
        results.append(ReplicateResult(rep, "FAS", best.label(), delta,
                                       valid_flag(best), best.is_not_exists, shared_seconds))

    if records is not None and "KL" in methods:
        choice = pick_min_kl(exp, records)
        rec = records[choice]
        est = {a.x_value: s.id_estimate for a, s in zip(exp.arms, rec.arm_scores)}
        results.append(ReplicateResult(rep, "KL", choice.label(), delta_theta(est, gt),
                                       valid_flag(choice), False, shared_seconds))

    if "DEXP" in methods:
        t0 = time.perf_counter()
        est = {a.x_value: tuple((np.asarray(a.outcome_counts) / max(a.total, 1)).tolist())
               for a in exp.arms}
        results.append(ReplicateResult(rep, "DEXP", "", delta_theta(est, gt),
                                       None, False, time.perf_counter() - t0))

    if "VWS" in methods:
        t0 = time.perf_counter()
        try:
            z = vws_baseline(gt)
            sub = table.restrict(set(z) | {gt.x, gt.y})
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(rep, 3)))
            dag = learn_structure(sub, ess=fcfg.ess, max_parents=fcfg.max_parents,
                                  restarts=fcfg.restarts, rng=rng)
            params = posterior_mean(fit_posterior(dag, sub, fcfg.ess))
            est = _adjusted_from_instantiation(params, gt.x, gt.y, z)
            results.append(ReplicateResult(
                rep, "VWS", Hypothesis.adjustment(z).label(), delta_theta(est, gt),
                satisfies_adjustment_criterion(gt.dag, gt.x, gt.y, z), False,
                time.perf_counter() - t0))
        except Exception as e:  # noqa: BLE001
            results.append(ReplicateResult(rep, "VWS", "", None, None, False,
                                           time.perf_counter() - t0, f"{type(e).__name__}: {e}"))
    return results


def run_benchmark(cfg: SimConfig, replicates: int, methods: Sequence[str] = METHODS,
                  fas_config: FasConfig | None = None) -> BenchmarkReport:
    """Replicated evaluation of the requested methods on fresh random worlds.

    Each replicate is seeded from the config seed and its own index, so a
    replicate's rows do not depend on the others. Failures inside a replicate
    are recorded on the affected rows instead of aborting the run.
    """
    methods = tuple(methods)
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    fas_config = fas_config or FasConfig()

    report = BenchmarkReport(config=cfg, fas_config=fas_config, methods=methods)
    for r in range(replicates):
        report.results.extend(_run_replicate(r, cfg, fas_config, methods))
    order = {m: i for i, m in enumerate(METHODS)}
    report.results.sort(key=lambda r: (r.replicate, order[r.method]))
    return report


CSV_COLUMNS = ("replicate", "method", "hypothesis", "delta_theta",
               "criterion_valid", "not_exists", "error")


def write_benchmark_csv(report: BenchmarkReport, path) -> None:
    """One row per replicate x method. Timing is deliberately excluded so the
    file is byte-identical for a given seed; per-row seconds live in the JSON
    summary.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in report.results:
            w.writerow([
                r.replicate, r.method, r.hypothesis,
                "" if r.delta is None else repr(r.delta),
                "" if r.criterion_valid is None else str(r.criterion_valid).lower(),
                str(r.not_exists).lower(),
                r.error or "",
            ])


def write_benchmark_summary(report: BenchmarkReport, path) -> None:
    doc = report.summary()
    doc["per_replicate_seconds"] = [
        {"replicate": r.replicate, "method": r.method, "seconds": r.seconds}
        for r in report.results
    ]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
