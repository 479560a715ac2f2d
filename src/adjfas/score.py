"""Scoring covariate-adjustment hypotheses against trial summaries.

Each hypothesis states either that a specific covariate set Z makes the
adjustment formula Σ_z P(Y|x,z)P(z) equal the interventional distribution, or
that no such set exists among the measured variables. A hypothesis is scored
by the marginal likelihood it assigns to the observed per-arm outcome counts:
for a concrete Z that likelihood is a Monte-Carlo average over CPT draws from
the observational posterior; for the no-set hypothesis it has a closed form
under a flat prior on the interventional parameters. Totals combine the
per-arm log marginals with a uniform hypothesis prior, and the best set (or
the no-set verdict) is returned together with an improved interventional
estimate.

All arm likelihoods are sequence likelihoods: the multinomial coefficient is
omitted everywhere (it is constant across hypotheses and cancels in the
argmax), so log scores are comparable only within a single run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from .bayesnet import (BayesNetPosterior, fit_posterior, learn_structure, posterior_mean,
                       product_marginal, sample_parameter_batch)
from .data import Arm, CategoricalTable, ExperimentSummary, ValidationError, g2_independence_test
from .selection import SelectionBn, build_selection_bn, check_empirical_support

POOL_ENUMERATION_LIMIT = 16
TIE_TOL = 1e-9
# Largest root tensor, in cells with the Monte-Carlo axis counted, that one
# lattice walk builds; past it every hypothesis is eliminated on its own.
LATTICE_CELL_BUDGET = 1 << 22

_BATCH = "\x00batch"  # reserved pseudo-variable naming the Monte-Carlo axis


class EnumerationLimitError(RuntimeError):
    """Candidate pool too large to enumerate without a subset-size cap."""


class ScoringError(RuntimeError):
    """Every sampling iteration was degenerate for some hypothesis/arm."""


@dataclass(frozen=True)
class Hypothesis:
    """Either 'z is an adjustment set' or 'no adjustment set exists'.

    ``z`` is a frozenset of variable names, or None for the no-set hypothesis.
    """

    z: frozenset[str] | None

    @classmethod
    def adjustment(cls, vars) -> "Hypothesis":
        return cls(frozenset(vars))

    @property
    def is_not_exists(self) -> bool:
        return self.z is None

    def label(self) -> str:
        if self.z is None:
            return "NOT_EXISTS"
        return "{" + ",".join(sorted(self.z)) + "}"

    def sort_key(self) -> tuple:
        if self.z is None:
            return (1, 0, ())
        return (0, len(self.z), tuple(sorted(self.z)))


NOT_EXISTS = Hypothesis(None)


@dataclass(frozen=True)
class FasConfig:
    alpha: float = 0.05
    niters: int = 100
    ess: float = 1.0
    seed: int = 0
    max_subset_size: int | None = None
    max_parents: int = 4
    restarts: int = 5
    selection_tol: float = 1e-6


@dataclass(frozen=True)
class ArmScore:
    """Per-arm result: log P(arm counts | data, hypothesis) and estimates.

    ``id_estimate`` is the interventional distribution for the observational
    population; ``trial_estimate`` is the predictive distribution in the trial
    population (identical unless the trial was selection-biased). Either may
    be None for the no-set hypothesis.
    """

    log_marginal: float
    id_estimate: tuple[float, ...] | None
    trial_estimate: tuple[float, ...] | None


@dataclass(frozen=True)
class HypothesisRecord:
    hypothesis: Hypothesis
    prior_log: float
    arm_scores: tuple[ArmScore, ...]

    @property
    def total(self) -> float:
        return self.prior_log + sum(a.log_marginal for a in self.arm_scores)


@dataclass
class FasResult:
    """Outcome of a full search: best hypothesis, all scores, diagnostics."""

    best: Hypothesis
    scores: dict[Hypothesis, float]
    estimate: dict[int, tuple[float, ...]] | None
    pool: tuple[str, ...]
    records: dict[Hypothesis, HypothesisRecord]
    population: str
    config: FasConfig

    def ranked(self) -> list[tuple[Hypothesis, float]]:
        """``best`` first (it wins ties within TIE_TOL), then by total and sort key."""
        rest = sorted(((h, t) for h, t in self.scores.items() if h != self.best),
                      key=lambda kv: (-kv[1], kv[0].sort_key()))
        return [(self.best, self.scores[self.best]), *rest]

    def to_dict(self) -> dict:
        return {
            "population": self.population,
            "pool": list(self.pool),
            "best": _hypothesis_dict(self.best),
            "estimate": (None if self.estimate is None
                         else {str(x): list(p) for x, p in self.estimate.items()}),
            "hypotheses": [
                {
                    **_hypothesis_dict(h),
                    "total_log_score": self.scores[h],
                    "prior_log": self.records[h].prior_log,
                    "arm_log_marginals": [a.log_marginal for a in self.records[h].arm_scores],
                    "arm_id_estimates": [None if a.id_estimate is None else list(a.id_estimate)
                                         for a in self.records[h].arm_scores],
                }
                for h, _ in self.ranked()
            ],
            "config": {
                "alpha": self.config.alpha, "niters": self.config.niters,
                "ess": self.config.ess, "seed": self.config.seed,
                "max_subset_size": self.config.max_subset_size,
                "max_parents": self.config.max_parents, "restarts": self.config.restarts,
                "selection_tol": self.config.selection_tol,
            },
        }


def _hypothesis_dict(h: Hypothesis) -> dict:
    return {"not_exists": h.is_not_exists,
            "z": None if h.is_not_exists else sorted(h.z)}


# --- candidate pool and prior


def candidate_pool(table: CategoricalTable, x: str, y: str, alpha: float = 0.05) -> tuple[str, ...]:
    """Variables marginally dependent on both treatment and outcome.

    Membership is decided by the G² test rejecting independence at ``alpha``
    against each of x and y. Returned in the table's column order.
    """
    if x == y:
        raise ValueError("treatment and outcome must differ")
    table.index(x), table.index(y)
    pool = []
    for v in table.variable_names:
        if v in (x, y):
            continue
        if (g2_independence_test(table, v, x) < alpha
                and g2_independence_test(table, v, y) < alpha):
            pool.append(v)
    return tuple(pool)


def prior_log_prob(h: Hypothesis, pool: Sequence[str]) -> float:
    """Uniform prior over all 2^|pool| subsets plus the no-set hypothesis."""
    if not h.is_not_exists and not h.z <= set(pool):
        raise ValueError(f"hypothesis {h.label()} is not a subset of the candidate pool")
    return -math.log(2 ** len(pool) + 1)


# --- per-arm scoring


def score_not_exists(arm: Arm) -> float:
    """Closed-form log marginal of the arm counts under a flat simplex prior.

    The Dirichlet(1)-multinomial compound:
    log Γ(|Y|) + Σ_y log Γ(N^y + 1) − log Γ(N + |Y|).
    """
    k = len(arm.outcome_counts)
    counts = np.asarray(arm.outcome_counts, dtype=float)
    return float(gammaln(k) + gammaln(counts + 1.0).sum() - gammaln(arm.total + k))


def _root_joint(batched: Mapping[str, np.ndarray], parents: Mapping[str, tuple[str, ...]],
                x: str, y: str, zvars: tuple[str, ...],
                tilts: Mapping[str, np.ndarray] | None = None) -> np.ndarray:
    """P(Y, X, *zvars) for every draw in the batch, by one variable elimination.

    The result is C-contiguous with axes (Y, X, *zvars, batch): the
    Monte-Carlo axis goes last so that summing out a covariate reduces over
    contiguous runs of draws. With ``tilts`` the joint is that of the
    reweighted population (unnormalized).
    """
    factors = [((*parents[v], v, _BATCH), np.moveaxis(batched[v], 0, -1)) for v in batched]
    if tilts:
        factors += [((v,), np.asarray(t, dtype=float)) for v, t in tilts.items()]
    return np.ascontiguousarray(product_marginal(factors, (y, x, *zvars, _BATCH)))


def _walk_lattice(joint: np.ndarray, x_value: int, masks: Sequence[int],
                  tilted: bool = False) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Adjustment-formula predictive θ_{Y_x} for subsets of the root's covariates.

    ``joint`` is a root from ``_root_joint`` over covariates z_0..z_{k-1};
    each mask names a subset (bit i set keeps z_i). Returns mask ->
    (theta, degenerate): theta has shape (|Y|, batch) and degenerate flags
    draws where some stratum (x, z) has probability zero while P(z) > 0,
    making the conditional undefined. ``tilted`` marks a root of the
    reweighted population, whose P(z) is normalized per draw.

    The subsets are walked depth-first from the root, each child being its
    parent summed over one more covariate (removed in increasing index
    order, so every subset is reached once), and only branches holding a
    requested set are entered: memory holds one chain, never the lattice.
    """
    k = joint.ndim - 3
    pz = joint.sum(axis=(0, 1))  # (*z, batch)
    if tilted:
        qtot = pz.reshape(-1, pz.shape[-1]).sum(axis=0)
        if not (qtot > 0).all():
            raise ScoringError("selection weights annihilate the whole distribution")
        pz = pz / qtot
    sliced = joint[:, x_value]  # (|Y|, *z, batch)
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def visit(mask, last, wanted, sl, p):
        # wanted: the requested sets inside this node's subtree
        if mask in wanted:
            n_y, n_b = sl.shape[0], sl.shape[-1]
            denom = sl.sum(axis=0)
            if denom.all():
                cond, degenerate = sl / denom, np.zeros(n_b, dtype=bool)
            else:
                # a zero stratum has a zero conditional; its P(z) mass is lost
                cond = sl / np.where(denom > 0, denom, 1.0)
                degenerate = ((denom == 0) & (p > 0)).reshape(-1, n_b).any(axis=0)
            theta = (cond * p).reshape(n_y, -1, n_b).sum(axis=1)
            out[mask] = (theta, degenerate)
        for j in range(last + 1, k):
            child, below = mask & ~(1 << j), (1 << j) - 1
            # child's subtree drops only covariates past j, so it holds w iff
            # w is inside child and every covariate child keeps below j is in w
            sub = [w for w in wanted if not w & ~child and not child & ~w & below]
            if sub:
                ax = bin(mask & below).count("1")  # position of z_j among mask's axes
                visit(child, j, sub, sl.sum(axis=1 + ax), p.sum(axis=ax))

    visit((1 << k) - 1, -1, list(dict.fromkeys(masks)), sliced, pz)
    return out


def _loglik(theta: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """Log sequence likelihood of ``counts``; theta is (..., |Y|, batch)."""
    counts = np.asarray(counts, dtype=float)
    pos = counts > 0
    with np.errstate(divide="ignore"):
        return np.einsum("y,...yb->...b", counts[pos], np.log(theta[..., pos, :]))


def _masked_means(theta: np.ndarray, degenerate: np.ndarray) -> list[tuple[float, ...]]:
    """Per set, the mean predictive over its non-degenerate draws."""
    ok = ~degenerate
    means = (theta * ok[:, None, :]).sum(axis=-1) / ok.sum(axis=-1)[:, None]
    return [tuple(row) for row in means.tolist()]


def _predictives(batched, parents, x, y, zsets: Sequence[tuple[str, ...]], arm: Arm,
                 tilts=None) -> tuple[np.ndarray, np.ndarray]:
    """θ_{Y_x} of every set in ``zsets`` for the arm's x: shapes (H, |Y|, batch), (H, batch).

    One root holds the union of the sets; past ``LATTICE_CELL_BUDGET`` cells
    each set is its own root instead.
    """
    union = set().union(*zsets)
    zvars = tuple(v for v in batched if v in union)
    n_draws = len(batched[x])
    cells = n_draws * np.prod([batched[v].shape[-1] for v in (y, x, *zvars)], dtype=float)
    if cells <= LATTICE_CELL_BUDGET:
        groups = [(zvars, zsets)]
    else:
        groups = [(z, [z]) for z in dict.fromkeys(zsets)]
    found = {}
    for root, members in groups:
        joint = _root_joint(batched, parents, x, y, root, tilts)
        bit = {v: 1 << i for i, v in enumerate(root)}
        masks = {z: sum(bit[v] for v in z) for z in members}
        walked = _walk_lattice(joint, arm.x_value, list(masks.values()), tilted=bool(tilts))
        found.update((z, walked[m]) for z, m in masks.items())
    theta = np.stack([found[z][0] for z in zsets])
    degenerate = np.stack([found[z][1] for z in zsets])
    for z, d in zip(zsets, degenerate):
        if d.all():
            raise ScoringError(
                f"every sampling iteration degenerate for arm x={arm.x_value}, z={sorted(z)}")
    return theta, degenerate


def _score_arm(batched, parents, x, y, zsets: Sequence[tuple[str, ...]], arm: Arm,
               tilts=None) -> list[ArmScore]:
    """ArmScore of every set in ``zsets`` (each ordered as the network's nodes),
    all from the same parameter batch."""
    theta_trial, degen_trial = _predictives(batched, parents, x, y, zsets, arm, tilts)
    ll = np.where(degen_trial, -np.inf, _loglik(theta_trial, arm.outcome_counts))
    log_marginals = logsumexp(ll, axis=-1) - math.log(ll.shape[-1])
    if tilts:
        theta_id, degen_id = _predictives(batched, parents, x, y, zsets, arm)
    else:
        theta_id, degen_id = theta_trial, degen_trial
    return [ArmScore(float(lm), ide, tre) for lm, ide, tre in zip(
        log_marginals.tolist(), _masked_means(theta_id, degen_id),
        _masked_means(theta_trial, degen_trial))]


def score_exp_arm(x: str, y: str, z: Sequence[str], post: BayesNetPosterior, arm: Arm,
                  niters: int, rng: np.random.Generator | int | None,
                  tilts: Mapping[str, np.ndarray] | None = None) -> ArmScore:
    """Monte-Carlo marginal likelihood of one arm under the hypothesis 'z adjusts'.

    Per draw from the posterior: compute θ_{Y|x,z} and θ_z exactly, combine
    through the adjustment formula into θ_{Y_x}, and weigh the arm counts by
    ∏_y θ_{y_x}^{N^y}. The log marginal is the log of the mean over draws;
    the estimate is the mean predictive over non-degenerate draws.
    """
    if niters < 1:
        raise ValueError("niters must be >= 1")
    nodes = set(post.dag.nodes)
    missing = (set(z) | {x, y}) - nodes
    if missing:
        raise ValueError(f"variables not in the network: {sorted(missing)}")
    if not 0 <= arm.x_value < post.cardinalities[x]:
        raise ValidationError(f"arm x value {arm.x_value} outside cardinality of {x!r}")
    rng = np.random.default_rng(rng)
    batched = sample_parameter_batch(post, rng, niters)
    zvars = tuple(v for v in post.dag.nodes if v in set(z))
    return _score_arm(batched, post.parents, x, y, [zvars], arm, tilts=tilts)[0]


# --- hypothesis enumeration and the search itself


def enumerate_hypotheses(pool: Sequence[str], max_subset_size: int | None = None) -> list[Hypothesis]:
    """All subset hypotheses in (size, lexicographic) order, then the no-set one."""
    if max_subset_size is None and len(pool) > POOL_ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"candidate pool has {len(pool)} variables "
            f"(2^{len(pool)} subsets); set max_subset_size to proceed")
    names = sorted(pool)
    top = len(names) if max_subset_size is None else min(max_subset_size, len(names))
    hyps = [Hypothesis.adjustment(c) for size in range(top + 1)
            for c in combinations(names, size)]
    hyps.append(NOT_EXISTS)
    return hyps


@dataclass
class PreparedScoring:
    """Pool, restricted table and fitted posterior shared by every hypothesis.

    ``selection`` holds the solved inclusion weights when the trial population
    was selected, and is None when it is the observational one.
    """

    table: CategoricalTable
    exp: ExperimentSummary
    pool: tuple[str, ...]
    sub: CategoricalTable
    post: BayesNetPosterior
    selection: SelectionBn | None


def prepare_scoring(table: CategoricalTable, exp: ExperimentSummary,
                    config: FasConfig) -> PreparedScoring:
    """Validate the inputs, pick the pool, learn and fit the network.

    For a selected trial the network also covers every variable with a
    reported marginal, and the inclusion weights that reproduce those
    marginals are solved on its posterior mean.
    """
    x, y = exp.treatment, exp.outcome
    # a selected trial always reports marginals (ExperimentSummary checks it)
    reported = exp.reported_marginals if exp.population == "selected" else {}
    unknown = set(reported) - set(table.variable_names)
    if unknown:
        raise ValidationError(f"reported marginals for unknown variables: {sorted(unknown)}")
    check_empirical_support(table, reported)
    if exp.n_outcomes != table.cardinality(y):
        raise ValidationError(
            f"experiment reports {exp.n_outcomes} outcome categories, "
            f"table has {table.cardinality(y)} for {y!r}")
    for arm in exp.arms:
        if not 0 <= arm.x_value < table.cardinality(x):
            raise ValidationError(f"arm x value {arm.x_value} outside cardinality of {x!r}")
    pool = candidate_pool(table, x, y, config.alpha)
    enumerate_hypotheses(pool, config.max_subset_size)  # enforce the enumeration guard early
    keep = set(pool) | {x, y} | set(reported)
    sub = table.restrict(keep)
    learn_rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    dag = learn_structure(sub, ess=config.ess, max_parents=config.max_parents,
                          restarts=config.restarts, rng=learn_rng)
    post = fit_posterior(dag, sub, config.ess)
    selection = (build_selection_bn(posterior_mean(post), reported, tol=config.selection_tol)
                 if reported else None)
    return PreparedScoring(table=table, exp=exp, pool=pool, sub=sub, post=post,
                           selection=selection)


def _empirical(arm: Arm) -> tuple[float, ...]:
    if arm.total == 0:
        k = len(arm.outcome_counts)
        return tuple([1.0 / k] * k)
    return tuple(c / arm.total for c in arm.outcome_counts)


def score_hypotheses(prep: PreparedScoring, config: FasConfig,
                     hypotheses: Sequence[Hypothesis] | None = None
                     ) -> dict[Hypothesis, HypothesisRecord]:
    """Score every hypothesis over every arm.

    One parameter batch is drawn per arm (seed derived from (seed, arm)) and
    shared by every hypothesis: common random numbers make the score
    differences between near-equivalent hypotheses reflect their true gap
    instead of independent Monte-Carlo noise. A selected trial's arms are
    scored in the population tilted by ``prep.selection``.
    """
    exp, post = prep.exp, prep.post
    x, y = exp.treatment, exp.outcome
    all_hyps = set(enumerate_hypotheses(prep.pool, config.max_subset_size))
    if hypotheses is None:
        hypotheses = sorted(all_hyps, key=Hypothesis.sort_key)
    tilts = None if prep.selection is None else dict(prep.selection.theta_s)

    batches = []
    for a_idx in range(len(exp.arms)):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, a_idx)))
        batches.append(sample_parameter_batch(post, rng, config.niters))

    for h in hypotheses:
        if h not in all_hyps:
            raise ValueError(f"hypothesis {h.label()} outside the enumerated space")
    subsets = [h for h in hypotheses if not h.is_not_exists]
    zsets = [tuple(v for v in post.dag.nodes if v in h.z) for h in subsets]
    per_arm = [_score_arm(batch, post.parents, x, y, zsets, arm, tilts=tilts) if zsets else []
               for batch, arm in zip(batches, exp.arms)]
    subset_scores = {h: tuple(arm_scores[i] for arm_scores in per_arm)
                     for i, h in enumerate(subsets)}

    records = {}
    for h in hypotheses:
        if h.is_not_exists:
            arm_scores = tuple(ArmScore(
                log_marginal=score_not_exists(arm),
                id_estimate=None if prep.selection is not None else _empirical(arm),
                trial_estimate=None) for arm in exp.arms)
        else:
            arm_scores = subset_scores[h]
        records[h] = HypothesisRecord(h, prior_log_prob(h, prep.pool), arm_scores)
    return records


def pick_best(records: Mapping[Hypothesis, HypothesisRecord]) -> Hypothesis:
    """Highest total score; ties within 1e-9 go to smaller sets, then lexicographic."""
    totals = {h: r.total for h, r in records.items()}
    m = max(totals.values())
    ties = [h for h, t in totals.items() if t >= m - TIE_TOL]
    return min(ties, key=Hypothesis.sort_key)


def _assemble(prep: PreparedScoring, records, config: FasConfig) -> FasResult:
    """The search's result: the best hypothesis, its estimate and every score.

    Under selection the no-set verdict has no estimate: the raw trial
    frequencies describe the selected population, not the observational one.
    """
    best = pick_best(records)
    rec = records[best]
    if best.is_not_exists and prep.selection is not None:
        estimate = None
    else:
        estimate = {arm.x_value: score.id_estimate
                    for arm, score in zip(prep.exp.arms, rec.arm_scores)}
    return FasResult(
        best=best,
        scores={h: r.total for h, r in records.items()},
        estimate=estimate,
        pool=prep.pool,
        records=dict(records),
        population=prep.exp.population,
        config=config)


def find_adjustment_set(table: CategoricalTable, exp: ExperimentSummary,
                        config: FasConfig | None = None) -> FasResult:
    """Search all candidate subsets plus the no-set hypothesis; return the best.

    The trial comes from the table's population or, when flagged
    ``selected``, from one selected on its reported covariate marginals;
    arms are then scored with the selected-population predictive
    Σ_z P(Y|x,z,S=1)·P(z|S=1). The estimate is always for the observational
    population: the posterior-mean adjusted distribution of the winning set,
    or, when no set wins, the raw per-arm frequencies (same population) or
    None (selected).
    """
    config = config or FasConfig()
    prep = prepare_scoring(table, exp, config)
    return _assemble(prep, score_hypotheses(prep, config), config)


def kl_divergences(exp: ExperimentSummary,
                   records: Mapping[Hypothesis, HypothesisRecord]) -> dict[Hypothesis, float]:
    """Σ over arms of KL(empirical arm distribution ‖ predicted trial distribution)."""
    out = {}
    for h, rec in records.items():
        if h.is_not_exists:
            continue
        kl = 0.0
        for arm, score in zip(exp.arms, rec.arm_scores):
            pred = np.asarray(score.trial_estimate, dtype=float)
            for c, q in zip(arm.outcome_counts, pred):
                if c == 0 or arm.total == 0:
                    continue
                p = c / arm.total
                kl += p * (math.log(p) - (math.log(q) if q > 0 else -math.inf))
        out[h] = kl
    return out


def pick_min_kl(exp: ExperimentSummary,
                records: Mapping[Hypothesis, HypothesisRecord]) -> Hypothesis:
    kls = kl_divergences(exp, records)
    m = min(kls.values())
    ties = [h for h, v in kls.items() if v <= m + TIE_TOL]
    return min(ties, key=Hypothesis.sort_key)

