"""Ground-truth worlds, dataset generation and the benchmark harness.

Worlds are random DAGs over a treatment, an outcome, observed covariates and
latent covariates, with random categorical mechanisms and an enforced directed
path from treatment to outcome. The observational table is a forward sample.
Each trial arm's outcome counts are one multinomial draw from the exact
P(Y | do(x)), or P(Y | do(x), S=1) when a per-variable inclusion mechanism
selects the trial population. The benchmark runs the search and the baselines
over many replicated worlds and reports the error |Δθ| of each method's
interventional estimate against the unselected truth.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .bayesnet import (ParamInstantiation, _normalize_rows, fit_posterior, learn_structure,
                       posterior_mean, product_marginal)
from .data import Arm, CategoricalTable, ExperimentSummary
from .graph import Dag, forbidden_set, satisfies_adjustment_criterion
from .score import (NOT_EXISTS, FasConfig, FasResult, Hypothesis, _root_joint, _walk_lattice,
                    check_int_flag, find_adjustment_set, pick_min_kl)
from .selection import _marginal_fn

MIN_ACCEPTANCE = 1e-6
CARDINALITIES = (2, 3)  # each variable's number of categories is drawn from these

METHODS = ("FAS", "KL", "DEXP", "VWS")
MODES = ("random", "pretreatment")
SELECTIONS = ("none", "observed", "latent")


@dataclass
class SimConfig:
    """World settings; each field's metadata holds the help (and choices) of
    its command-line flag."""

    n_observed: int = field(default=6, metadata={"help": "observed covariates"})
    n_latent: int = field(default=4, metadata={"help": "latent covariates"})
    mean_in_degree: float = field(default=2.0, metadata={"help": "mean parents per variable"})
    n_obs: int = field(default=10000, metadata={"help": "rows of the observational table"})
    n_per_arm: int = field(default=500, metadata={"help": "trial units per arm"})
    mode: str = field(default="random", metadata={
        "choices": MODES, "help": "pretreatment: no covariate descends from the treatment"})
    selection: str = field(default="none", metadata={
        "choices": SELECTIONS, "help": "trial selected on reported/unreported covariates"})
    seed: int = field(default=0, metadata={"help": "master random seed"})

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.selection not in SELECTIONS:
            raise ValueError(f"unknown selection setting {self.selection!r}")
        check_int_flag("--seed", self.seed, 0)
        for name, least in (("n_observed", 0), ("n_latent", 0), ("n_obs", 1), ("n_per_arm", 1)):
            check_int_flag(f"--{name.replace('_', '-')}", getattr(self, name), least)
        if not (math.isfinite(self.mean_in_degree) and self.mean_in_degree > 0):
            raise ValueError(
                f"--mean-in-degree must be finite and greater than 0, got {self.mean_in_degree}")
        # a selected covariate must be observed; latent selection also keeps one reportable
        need = {"none": 0, "observed": 1, "latent": 2}[self.selection]
        if self.n_observed < need:
            raise ValueError(f"--selection {self.selection} needs --n-observed of at least {need}")


@dataclass
class GroundTruth:
    """A fully specified world: graph, mechanisms, treatment/outcome, truths.

    ``params`` holds the mechanisms over every node of ``dag``, in its node
    order, with each CPT's parents in that order too.
    """

    dag: Dag
    params: ParamInstantiation
    x: str
    y: str
    selection: dict[str, np.ndarray] | None
    true_id: dict[int, tuple[float, ...]]


def _interventional(params: ParamInstantiation, x: str, y: str,
                    tilts: Mapping[str, np.ndarray] | None = None) -> np.ndarray:
    """Exact P(y | do(x)) for every x by truncated factorization: x's own
    mechanism dropped and x left free, so row x of the (x, y) table is the
    law under do(x). x keeps its axis as a parent in its children's CPTs.

    With ``tilts`` (variable -> inclusion probability per category) row x is
    P(y, S=1 | do(x)), unnormalized, whose total is the acceptance probability.
    """
    tilt = [((v,), w) for v, w in (tilts or {}).items()]
    return product_marginal([f for f in params.factors() if f[0][-1] != x] + tilt, (x, y))


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

        p_edge = min(1.0, 2.0 * cfg.mean_in_degree / max(1, len(order) - 1))
        parents = {}  # each node's parents, in node order
        for j, v in enumerate(order):
            mask = rng.random(j) < p_edge
            parents[v] = tuple(order[i] for i in range(j) if mask[i])
        dag = Dag(order, directed=[(u, v) for v, ps in parents.items() for u in ps],
                  observed=observed & set(order))

        if "Y" not in dag.descendants({"X"}):
            continue

        if cfg.selection != "none":
            candidates = sorted(set(covs) - dag.descendants({"X"}))
            k = min(3, len(candidates))
            if cfg.selection == "latent":
                # at least one observed covariate must stay reportable
                k = min(k, cfg.n_observed - 1)
            if k < 1:
                continue
            chosen = [candidates[i] for i in sorted(rng.choice(len(candidates), k, replace=False))]
        break
    else:
        raise ValueError("could not draw a world satisfying the structural constraints; "
                         "try a larger --mean-in-degree")

    cards = {v: int(rng.choice(CARDINALITIES)) for v in order}
    cpts = {}
    for v, ps in parents.items():
        shape = (*(cards[p] for p in ps), cards[v])
        cpts[v] = _normalize_rows(rng.standard_gamma(1.0, size=shape))
    params = ParamInstantiation(cards, parents, cpts)
    selection = (None if cfg.selection == "none"
                 else {v: rng.uniform(0.2, 1.0, cards[v]) for v in chosen})
    true_id = {xv: tuple(law) for xv, law in enumerate(_interventional(params, "X", "Y").tolist())}
    return GroundTruth(dag=dag, params=params, x="X", y="Y",
                       selection=selection, true_id=true_id)


# --- sampling


def _forward_sample(gt: GroundTruth, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """n joint draws of every node, in topological order, one uniform u per
    row and node: a row takes the first category whose cumulative CPT entry
    exceeds u, or the last. A cumsum of probabilities never decreases, so
    that category is the number of entries ≤ u before the last."""
    cards = gt.params.cardinalities
    cols: dict[str, np.ndarray] = {}
    for v in gt.dag.topological_order():
        pa = gt.params.parents[v]
        r = cards[v]
        cum = gt.params.cpts[v].reshape(-1, r).cumsum(axis=1)
        idx = np.ravel_multi_index([cols[p] for p in pa], [cards[p] for p in pa]) if pa else 0
        u = rng.random(n)
        out = np.zeros(n, dtype=np.int64)
        for j in range(r - 1):
            out += u >= cum[idx, j]
        cols[v] = out
    return cols


def sample_datasets(gt: GroundTruth, cfg: SimConfig,
                    rng: np.random.Generator) -> tuple[CategoricalTable, ExperimentSummary]:
    """Draw an observational table and a trial summary from the world.

    The table is unselected forward samples with latent columns dropped. Each
    arm's outcome counts are one draw from Multinomial(n_per_arm,
    P(Y | do(x), S=1)): the truncated factorization times every inclusion
    probability θ_{S_i=1|v_i}, over its total, the arm's acceptance
    probability; one elimination gives every arm's law. Without selection
    that law is P(Y | do(x)). Reported marginals are exact
    (selected-population) values for a random subset of observed covariates:
    the subset covers all selected variables in ``observed`` mode and omits
    every selected variable in ``latent`` mode. They are read off one
    elimination over the reported and the selected variables, the selection
    solver's ``_marginal_fn``.
    """
    if (gt.selection is not None) != (cfg.selection != "none"):
        raise ValueError("config selection setting disagrees with the world's mechanism")

    obs_vars = [v for v in gt.dag.nodes if v in gt.dag.observed]
    cols = _forward_sample(gt, cfg.n_obs, rng)
    rows = np.column_stack([cols[v] for v in obs_vars])
    cards = gt.params.cardinalities
    table = CategoricalTable(tuple(obs_vars), tuple(cards[v] for v in obs_vars), rows)

    arms = []
    for xv, p in enumerate(_interventional(gt.params, gt.x, gt.y, tilts=gt.selection)):
        acc = float(p.sum())
        if acc < MIN_ACCEPTANCE:
            raise ValueError(
                f"acceptance probability {acc:.2e} for arm x={xv} below {MIN_ACCEPTANCE:g}")
        counts = rng.multinomial(cfg.n_per_arm, p / acc)
        arms.append(Arm(xv, counts.tolist()))

    covs = [v for v in obs_vars if v not in (gt.x, gt.y)]
    tilts = gt.selection or {}
    pool = [v for v in covs if v not in tilts]
    reported = [v for v in pool if rng.random() < 0.5]
    if cfg.selection == "observed":
        reported += list(tilts)
    elif cfg.selection == "latent" and not reported:
        reported = [pool[int(rng.integers(len(pool)))]]

    marginal = _marginal_fn(gt.params, tuple(sorted(set(reported) | set(tilts))))
    marginals = {v: tuple(marginal(v, tilts).tolist()) for v in sorted(reported)}
    population = "same" if cfg.selection == "none" else "selected"
    return table, ExperimentSummary(
        treatment=gt.x, outcome=gt.y, arms=tuple(arms),
        reported_marginals=marginals, population=population)


# --- evaluation


def delta_theta(est: Mapping[int, Sequence[float]], truth: GroundTruth) -> float:
    """Mean absolute difference between estimated and true interventional parameters."""
    diffs = [np.abs(np.asarray(vec, dtype=float) - truth.true_id[xv]) for xv, vec in est.items()]
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
    joint = _root_joint(batched, params.parents, x, y, zvars, {})
    theta, _ = _walk_lattice(joint, zvars, [zvars])[zvars]  # (|Y|, |X|, 1 population, 1 draw)
    return {xv: tuple(theta[:, xv, 0, 0].tolist()) for xv in range(theta.shape[1])}


def _is_valid(gt: GroundTruth, h: Hypothesis) -> bool:
    """Whether h holds in the world. NOT_EXISTS takes one criterion test: some
    observed set is an adjustment set exactly when the canonical one,
    (An({x, y}) ∩ observed) − {x, y} − forbidden, is (van der Zander,
    Liśkiewicz & Textor, Artificial Intelligence 2019)."""
    g, x, y = gt.dag, gt.x, gt.y
    if h.is_not_exists:
        canonical = (g.ancestors({x, y}) & g.observed) - {x, y} - forbidden_set(g, x, y)
        return not satisfies_adjustment_criterion(g, x, y, canonical)
    return satisfies_adjustment_criterion(g, x, y, h.z)


@dataclass
class ReplicateResult:
    replicate: int
    method: str
    hypothesis: str
    delta: float | None
    criterion_valid: bool | None
    seconds: float
    error: str | None = None


@dataclass
class BenchmarkReport:
    config: SimConfig
    fas_config: FasConfig
    methods: tuple[str, ...]
    results: list[ReplicateResult] = field(default_factory=list)

    def summary(self) -> dict:
        fas_config = asdict(self.fas_config)
        del fas_config["seed"]  # each replicate's search draws its own seed
        out: dict = {
            "replicates": len({r.replicate for r in self.results}),
            "methods": {},
            "sim_config": asdict(self.config),
            "fas_config": fas_config,
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
                "not_exists_rate": (sum(1 for r in rows if r.hypothesis == NOT_EXISTS.label())
                                    / len(rows)) if rows else None,
                "criterion_valid_rate": (sum(flags) / len(flags)) if flags else None,
                "mean_seconds": float(np.mean([r.seconds for r in rows])) if rows else None,
            }
        return out


def simulate_replicate(cfg: SimConfig, rep: int
                       ) -> tuple[GroundTruth, CategoricalTable, ExperimentSummary]:
    """Replicate ``rep`` of the config's study: its world, drawn from spawn key
    (rep, 0) of the seed, and that world's table and trial, from (rep, 1)."""
    world, data = map(np.random.default_rng,
                      np.random.SeedSequence(cfg.seed, spawn_key=(rep,)).spawn(2))
    gt = generate_world(cfg, world)
    return (gt, *sample_datasets(gt, cfg, data))


def _run_replicate(rep: int, cfg: SimConfig, fas_config: FasConfig,
                   methods: Sequence[str]) -> list[ReplicateResult]:
    """One row per requested method, in ``METHODS`` order; a method that
    raises gets an error row and the others still run."""
    gt, table, exp = simulate_replicate(cfg, rep)
    method_seed = int(np.random.SeedSequence(cfg.seed, spawn_key=(rep, 2)).generate_state(1)[0])
    fcfg = replace(fas_config, seed=method_seed)

    # FAS and KL read one search, and their rows carry its seconds
    found: FasResult | Exception | None = None
    if "FAS" in methods or "KL" in methods:
        t0 = time.perf_counter()
        try:
            found = find_adjustment_set(table, exp, fcfg)
        except Exception as e:  # noqa: BLE001 - recorded on the FAS and KL rows
            found = e
        search_seconds = time.perf_counter() - t0

    def answer(method: str) -> tuple[Hypothesis | None, dict | None]:
        """The method's hypothesis (None for DEXP, which picks none) and estimate."""
        if isinstance(found, Exception) and method in ("FAS", "KL"):
            raise found
        if method == "FAS":
            return found.best, found.estimate
        if method == "KL":
            h = pick_min_kl(exp, found.records)
            return h, {a.x_value: s.id_estimate
                       for a, s in zip(exp.arms, found.records[h].arm_scores)}
        if method == "DEXP":
            return None, {a.x_value: a.frequencies for a in exp.arms}
        z = vws_baseline(gt)
        sub = table.restrict(set(z) | {gt.x, gt.y})
        dag = learn_structure(sub, ess=fcfg.ess)
        params = posterior_mean(fit_posterior(dag, sub, fcfg.ess))
        return Hypothesis.adjustment(z), _adjusted_from_instantiation(params, gt.x, gt.y, z)

    results = []
    for m in (m for m in METHODS if m in methods):
        t0 = time.perf_counter()
        try:
            h, est = answer(m)
            row = ReplicateResult(rep, m, "" if h is None else h.label(),
                                  None if est is None else delta_theta(est, gt),
                                  None if h is None else _is_valid(gt, h), 0.0)
        except Exception as e:  # noqa: BLE001 - replicate failures are recorded, not fatal
            row = ReplicateResult(rep, m, "", None, None, 0.0, f"{type(e).__name__}: {e}")
        row.seconds = search_seconds if m in ("FAS", "KL") else time.perf_counter() - t0
        results.append(row)
    return results


def _die_with_parent(parent: int) -> None:
    """Worker initializer: the kernel sends this worker SIGKILL when the
    benchmark process dies (Linux prctl PR_SET_PDEATHSIG), and a worker whose
    parent died before that was set leaves at once."""
    import ctypes
    import signal

    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def run_benchmark(cfg: SimConfig, replicates: int, methods: Sequence[str] = METHODS,
                  fas_config: FasConfig | None = None) -> BenchmarkReport:
    """Replicated evaluation of the requested methods on fresh random worlds.

    Each replicate is seeded from the config seed and its own index, so a
    replicate's rows do not depend on the others or on the process that ran
    it. Replicates run in forked worker processes, one per CPU in the
    affinity set, at most one per replicate; rows come back in replicate
    order. A method's failure is recorded on its rows; a replicate that
    raises (a world that cannot be drawn) ends the run: its workers are
    killed, so the replicates they run or have queued stop there.
    """
    methods = tuple(methods)
    if not methods:
        raise ValueError("--methods names no method")
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    check_int_flag("--replicates", replicates, 1)
    fas_config = fas_config or FasConfig()

    # imported here: at module level they cost every other command ~9 ms of start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    report = BenchmarkReport(config=cfg, fas_config=fas_config, methods=methods)
    workers = min(len(os.sched_getaffinity(0)), replicates)
    others = multiprocessing.active_children()
    # fork, not spawn: a spawned worker imports numpy and adjfas afresh (~0.1 s each)
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_die_with_parent, initargs=(os.getpid(),))
    try:
        for rows in pool.map(_run_replicate, range(replicates), repeat(cfg), repeat(fas_config),
                             repeat(methods)):
            report.results.extend(rows)
    except BaseException:
        # the calls the pool has already queued cannot be cancelled: kill its workers
        for p in set(multiprocessing.active_children()) - set(others):
            p.kill()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
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
                str(r.hypothesis == NOT_EXISTS.label()).lower(),
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
