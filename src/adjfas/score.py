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
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Collection, Mapping, Sequence

import numpy as np

from .bayesnet import (BayesNetPosterior, fit_posterior, learn_structure, posterior_mean,
                       product_marginal, sample_parameter_batch)
from .data import Arm, CategoricalTable, ExperimentSummary, ValidationError, g2_independence_test
from .graph import Dag, d_separated
from .selection import SelectionBn, build_selection_bn, check_empirical_support

POOL_ENUMERATION_LIMIT = 16
TIE_TOL = 1e-9
# Most cells, Monte-Carlo axis counted, of a root that serves several sets:
# elimination and the lattice walk cost grow with the largest tensor built,
# and most cells of a wide root are summed away again by the walk.
ROOT_BUDGET = 1 << 17

_BATCH = "\x00batch"  # reserved pseudo-variable naming the Monte-Carlo axis
_POPULATION = "\x00population"  # reserved pseudo-variable: 0 observational, 1 the trial's
_SELECTED = "\x00selected"  # reserved node: trial inclusion, child of the selected variables


class EnumerationLimitError(RuntimeError):
    """Candidate pool too large to enumerate without a subset-size cap."""


class ScoringError(RuntimeError):
    """A set cannot be scored: every draw was degenerate for it in some arm
    (``score_hypotheses``), or the selection weights annihilate (``_walk_lattice``)."""


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
    """Search settings, checked here for every command that reads them. Each
    field's metadata holds the help (and type, where the default is None) of
    its command-line flag."""

    alpha: float = field(default=0.05, metadata={"help": "significance for pool membership"})
    niters: int = field(default=100, metadata={
        "help": "posterior draws per search, shared by every arm and hypothesis"})
    ess: float = field(default=1.0, metadata={"help": "equivalent sample size of the BDeu prior"})
    seed: int = field(default=0, metadata={"help": "master random seed"})
    max_subset_size: int | None = field(default=None, metadata={
        "type": int, "help": "cap on candidate subset size (required for pools over 16 variables)"})

    def __post_init__(self):
        if not (math.isfinite(self.ess) and self.ess > 0):
            raise ValueError(f"--ess must be finite and greater than 0, got {self.ess}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"--alpha must lie strictly between 0 and 1, got {self.alpha}")
        if self.niters < 1:
            raise ValueError(f"--niters must be at least 1, got {self.niters}")
        if self.seed < 0:
            raise ValueError(f"--seed must be at least 0, got {self.seed}")
        if self.max_subset_size is not None and self.max_subset_size < 0:
            raise ValueError(f"--max-subset-size must be at least 0, got {self.max_subset_size}")


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
    """Prior, arm scores and the class representative they were scored for
    (``_representatives``; None for the no-set hypothesis)."""

    prior_log: float
    arm_scores: tuple[ArmScore, ...]
    representative: frozenset[str] | None

    @property
    def total(self) -> float:
        return self.prior_log + sum(a.log_marginal for a in self.arm_scores)


@dataclass
class FasResult:
    """Outcome of a full search: best hypothesis, every scored record, diagnostics.

    ``selection`` is the solved selection model the arms were scored with,
    or None when the trial population is the observational one.
    """

    best: Hypothesis
    estimate: dict[int, tuple[float, ...]] | None
    pool: tuple[str, ...]
    records: dict[Hypothesis, HypothesisRecord]
    config: FasConfig
    selection: SelectionBn | None

    @property
    def population(self) -> str:
        """The trial's population: a selected trial is scored with a selection model."""
        return "same" if self.selection is None else "selected"

    def ranked(self) -> list[tuple[Hypothesis, float]]:
        """(hypothesis, total): ``best`` first (it wins ties within TIE_TOL),
        then by total and sort key."""
        rest = sorted(((h, r.total) for h, r in self.records.items() if h != self.best),
                      key=lambda kv: (-kv[1], kv[0].sort_key()))
        return [(self.best, self.records[self.best].total), *rest]

    def to_dict(self) -> dict:
        rep = self.records[self.best].representative
        tied = sorted((h for h, r in self.records.items()
                       if rep is not None and r.representative == rep), key=Hypothesis.sort_key)
        return {
            "population": self.population,
            "pool": list(self.pool),
            "best": _hypothesis_dict(self.best),
            "tied_with": [sorted(h.z) for h in tied],
            "estimate": (None if self.estimate is None
                         else {str(x): list(p) for x, p in self.estimate.items()}),
            "hypotheses": [hypothesis_entry(h, self.records[h]) for h, _ in self.ranked()],
            "config": asdict(self.config),
            "selection": None if self.selection is None else self.selection.to_dict(),
        }


def _hypothesis_dict(h: Hypothesis) -> dict:
    return {"not_exists": h.is_not_exists,
            "z": None if h.is_not_exists else sorted(h.z)}


def hypothesis_entry(h: Hypothesis, record: HypothesisRecord) -> dict:
    """One scored hypothesis as the `fas` report lists it and `score` writes it."""
    return {
        **_hypothesis_dict(h),
        "total_log_score": record.total,
        "prior_log": record.prior_log,
        "arm_log_marginals": [a.log_marginal for a in record.arm_scores],
        "arm_id_estimates": [None if a.id_estimate is None else list(a.id_estimate)
                             for a in record.arm_scores],
        "representative": (None if record.representative is None
                           else sorted(record.representative)),
    }


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


def prior_log_prob(pool: Sequence[str]) -> float:
    """Log prior of each hypothesis: uniform over all 2^|pool| subsets plus the
    no-set hypothesis."""
    return -math.log(2 ** len(pool) + 1)


# --- per-arm scoring


def score_not_exists(arm: Arm) -> float:
    """Closed-form log marginal of the arm counts under a flat simplex prior.

    The Dirichlet(1)-multinomial compound:
    log Γ(|Y|) + Σ_y log Γ(N^y + 1) − log Γ(N + |Y|).
    """
    k = len(arm.outcome_counts)
    return (math.lgamma(k) + sum(math.lgamma(c + 1.0) for c in arm.outcome_counts)
            - math.lgamma(arm.total + k))


def _root_joint(batched: Mapping[str, np.ndarray], parents: Mapping[str, tuple[str, ...]],
                x: str, y: str, zvars: tuple[str, ...],
                tilts: Mapping[str, np.ndarray]) -> np.ndarray:
    """P(Y, X, *zvars) for every population and draw, by one variable elimination.

    The result is C-contiguous with axes (Y, X, *zvars, population, batch):
    the Monte-Carlo axis goes last so that summing out a covariate reduces
    over contiguous runs of draws. Population 0 is the observational one;
    ``tilts`` add the reweighted one (unnormalized) as population 1, by a
    factor [1, tilts[v]] over (v, population) per tilted variable.
    """
    factors = [((*parents[v], v, _BATCH), np.moveaxis(batched[v], 0, -1)) for v in batched]
    factors += [((v, _POPULATION), np.stack([np.ones(len(t)), t], axis=-1))
                for v, t in tilts.items()]
    keep = (y, x, *zvars, *([_POPULATION] if tilts else []), _BATCH)
    joint = product_marginal(factors, keep)
    return np.ascontiguousarray(joint.reshape(*joint.shape[:2 + len(zvars)], -1, joint.shape[-1]))


def _walk_lattice(joint: np.ndarray, root: Sequence[str], sets: Sequence[Collection[str]]
                  ) -> dict[Collection[str], tuple[np.ndarray, np.ndarray]]:
    """Adjustment-formula predictive θ_{Y_x} at every x for subsets of the
    root's covariates.

    ``joint`` is a root from ``_root_joint`` over the covariates ``root``,
    and each of ``sets`` is a subset of them. Returns set ->
    (theta, degenerate): theta has shape (|Y|, |X|, population, batch) and
    degenerate (|X|, population, batch) flags the (x, population, draw)
    slices, each with P(z) normalized, where some stratum (x, z) has
    probability zero while P(z) > 0, making the conditional undefined.

    Each set is the root with the covariates it lacks summed out one at a
    time, in root order. The sets are walked sorted by those dropped
    covariates, so one stack of partial sums from the root serves them
    all: it is popped back to the longest prefix the next set shares, and
    only the rest is summed. Memory holds one chain, never the lattice.
    """
    draws = joint.shape[-2:]  # (population, batch), walked as one axis
    joint = joint.reshape(*joint.shape[:-2], -1)
    pz = joint.sum(axis=(0, 1))  # (*z, population × batch)
    qtot = pz.reshape(-1, pz.shape[-1]).sum(axis=0)
    if not (qtot > 0).all():
        raise ScoringError("selection weights annihilate the whole distribution")
    dropped = {z: tuple(j for j, v in enumerate(root) if v not in z) for z in sets}
    stack = [((), joint, pz / qtot)]  # (covariates summed out, (|Y|, |X|, *z, draws), P(z))
    out = {}
    for z in sorted(dropped, key=dropped.__getitem__):
        while dropped[z][:len(stack[-1][0])] != stack[-1][0]:
            stack.pop()
        done, sl, p = stack[-1]
        for j in dropped[z][len(done):]:
            ax = j - len(done)  # z_j's axis once the earlier covariates are gone
            done, sl, p = (*done, j), sl.sum(axis=2 + ax), p.sum(axis=ax)
            stack.append((done, sl, p))
        n_y, n_x, n_b = *sl.shape[:2], sl.shape[-1]
        denom = sl.sum(axis=0)
        if denom.all():
            cond, degenerate = sl / denom, np.zeros((n_x, n_b), dtype=bool)
        else:
            # a zero stratum has a zero conditional; its P(z) mass is lost
            cond = sl / np.where(denom > 0, denom, 1.0)
            degenerate = ((denom == 0) & (p > 0)).reshape(n_x, -1, n_b).any(axis=1)
        theta = (cond * p).reshape(n_y, n_x, -1, n_b).sum(axis=2)
        out[z] = (theta.reshape(n_y, n_x, *draws), degenerate.reshape(n_x, *draws))
    return out


def _loglik(theta: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """Log sequence likelihood of ``counts``; theta is (..., |Y|, batch)."""
    counts = np.asarray(counts, dtype=float)
    pos = counts > 0
    with np.errstate(divide="ignore"):
        return np.einsum("y,...yb->...b", counts[pos], np.log(theta[..., pos, :]))


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log Σ exp(a) over the last axis, with the numerics of scipy 1.17's logsumexp.

    The m entries tied at the maximum are taken out of the sum, which gives
    log1p(s/m) + log(m) + max; a row where that is not finite (all -inf, or
    +inf) falls back to the direct log of the sum of exponentials.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.exp(a).sum(axis=-1))
        top = a.max(axis=-1, keepdims=True)
        tied = a == top
        m = tied.sum(axis=-1, keepdims=True, dtype=a.dtype)
        s = np.exp(np.where(tied, -np.inf, a) - top).sum(axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + top)[..., 0]
    return np.where(np.isfinite(out), out, direct)


def _predictives(batched, parents, x, y, zsets: Sequence[frozenset[str]],
                 tilts: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """θ_{Y_x} of every set in ``zsets`` at every X value, in every population
    of ``_root_joint``, and the degenerate flags of ``_walk_lattice``: shapes
    (H, |Y|, |X|, population, batch) and (H, |X|, population, batch).

    The sets are grouped under roots of at most ``ROOT_BUDGET`` cells per
    population (draws × |Y| × |X| × the covariates' cardinalities), so a
    selected trial's root holds up to twice that. Taken largest first, each
    set joins the first group whose root, unioned with it, stays within the
    budget, and otherwise starts a group of its own; so a set over the
    budget by itself is its own root. Each group is one elimination to its
    root, walked once for its members at every X value and in every
    population, so every trial arm reads its own x slice of one walk.
    """
    card = {v: batched[v].shape[-1] for v in batched}
    base = len(batched[x]) * card[y] * card[x]
    groups: list[tuple[set[str], list[frozenset[str]]]] = []
    for z in sorted(zsets, key=lambda z: -math.prod(card[v] for v in z)):
        for union, members in groups:
            if base * math.prod(card[v] for v in union.union(z)) <= ROOT_BUDGET:
                union.update(z)
                members.append(z)
                break
        else:
            groups.append((set(z), [z]))
    found = {}
    for union, members in groups:
        root = tuple(v for v in batched if v in union)
        found.update(_walk_lattice(_root_joint(batched, parents, x, y, root, tilts), root, members))
    return np.stack([found[z][0] for z in zsets]), np.stack([found[z][1] for z in zsets])


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
    """Trial, candidate pool and fitted posterior shared by every hypothesis.

    ``selection`` holds the solved inclusion weights when the trial population
    was selected, and is None when it is the observational one.
    """

    exp: ExperimentSummary
    pool: tuple[str, ...]
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
    keep = set(pool) | {x, y} | set(reported)
    sub = table.restrict(keep)
    dag = learn_structure(sub, ess=config.ess)
    post = fit_posterior(dag, sub, config.ess)
    selection = build_selection_bn(posterior_mean(post), reported) if reported else None
    return PreparedScoring(exp=exp, pool=pool, post=post, selection=selection)


def _representatives(prep: PreparedScoring, sets: Sequence[frozenset[str]]
                     ) -> dict[frozenset[str], frozenset[str]]:
    """The confounding-equivalence class representative of every set.

    v drops from Z when v ⊥ X | Z∖{v} (Pearl & Paz, J. Causal Inference 2014)
    or v ⊥ Y | Z∖{v} ∪ {X} (de Luna, Waernbaum & Richardson, Biometrika 2011)
    in the learned DAG: either leaves Σ_z P(y|x,z)P(z) unchanged on every
    posterior draw. rep(Z) is rep(Z∖{v}) for the first droppable v in
    topological order, else Z, so it is a subset of every member. Every test
    conditions on a leaf child of the selected variables (none for a `same`
    trial), to which the tilted draws are Markov; conditioning on a leaf only
    opens paths, so each drop also holds for the untilted estimates.
    """
    post, x, y = prep.post, prep.exp.treatment, prep.exp.outcome
    selected = () if prep.selection is None else prep.selection.selected_vars
    dag = Dag((*post.dag.nodes, _SELECTED),
              (*post.dag.directed_edges, *((v, _SELECTED) for v in selected)))
    rep = {}
    # a neighbour is never d-separated, so it skips that test's walk
    near_x, near_y = (post.dag.parents(u) | post.dag.children(u) for u in (x, y))

    def find(z):
        if z not in rep:
            drop = next((v for v in post.dag.topological_order() if v in z and (
                v not in near_x and d_separated(dag, {v}, {x}, z - {v} | {_SELECTED})
                or v not in near_y and d_separated(dag, {v}, {y}, z - {v} | {_SELECTED, x}))),
                None)
            rep[z] = z if drop is None else find(z - {drop})
        return rep[z]

    return {z: find(z) for z in sets}


def score_hypotheses(prep: PreparedScoring, config: FasConfig,
                     hypotheses: Sequence[Hypothesis] | None = None
                     ) -> dict[Hypothesis, HypothesisRecord]:
    """Score every hypothesis over every arm.

    Only each class representative (``_representatives``) is scored, and
    its members share its arm scores. When a subset hypothesis is asked, one
    parameter batch is drawn per search (seed derived from (seed, 1)) and
    shared by every arm and every hypothesis, so each group of sets runs one
    elimination and one lattice walk for all arms, and common random numbers
    make the score differences between near-equivalent hypotheses reflect
    their true gap instead of independent Monte-Carlo noise. A selected
    trial's arms are scored in the population tilted by ``prep.selection``,
    and there the no-set hypothesis has no estimate: the raw trial
    frequencies describe the selected population, not the observational one.

    Each draw serves both populations: the trial's (the last slice) gives
    the likelihood and ``trial_estimate``, the observational one (slice 0)
    ``id_estimate``. Each arm reads its own x slice of the predictives and
    is checked for degenerate draws in arm order. One log-mean-exp reduces
    the per-draw log-likelihoods, an (arms × representatives × draws) array,
    to the per-arm log marginals, which with the prior sum to the total.
    """
    exp, post = prep.exp, prep.post
    x, y = exp.treatment, exp.outcome
    pool, cap = set(prep.pool), config.max_subset_size
    if hypotheses is None:
        hypotheses = enumerate_hypotheses(prep.pool, cap)
    for h in hypotheses:
        if not h.is_not_exists and not (h.z <= pool and (cap is None or len(h.z) <= cap)):
            limit = "" if cap is None else f" of at most {cap} variables"
            raise ValidationError(
                f"hypothesis {h.label()} outside the enumerated space: the subsets"
                f"{limit} of the candidate pool {{{','.join(prep.pool)}}}")
    tilts = {} if prep.selection is None else prep.selection.theta_s

    subsets = [h for h in hypotheses if not h.is_not_exists]
    rep, scores = {}, {}
    if subsets:
        rep = _representatives(prep, [h.z for h in subsets])
        reps = list(dict.fromkeys(rep.values()))
        seeds = np.random.SeedSequence(config.seed, spawn_key=(1,))
        batch = sample_parameter_batch(post, np.random.default_rng(seeds), config.niters)
        theta_x, degenerate_x = _predictives(batch, post.parents, x, y, reps, tilts)
        ll, means = [], []  # per arm: log-likelihoods (H, draws); means [set][population][y]
        for arm in exp.arms:
            theta, degenerate = theta_x[:, :, arm.x_value], degenerate_x[:, arm.x_value]
            failed = degenerate.all(axis=-1).any(axis=-1)  # per set: no usable draw in a population
            if failed.any():
                z = reps[failed.argmax()]
                asked = next(h.label() for h in subsets if rep[h.z] == z)
                raise ScoringError(
                    f"every sampling iteration degenerate for arm x={arm.x_value}, "
                    f"z={sorted(z)}, the class representative scored for {asked}")
            ll.append(np.where(degenerate[:, -1], -np.inf,
                               _loglik(theta[:, :, -1], arm.outcome_counts)))
            ok = ~degenerate  # each mean is over the non-degenerate draws
            means.append(((theta * ok[:, None]).sum(axis=-1) / ok.sum(axis=-1)[:, None])
                         .transpose(0, 2, 1).tolist())
        log_marginals = (_logsumexp(np.stack(ll)) - math.log(config.niters)).tolist()
        scores = {z: tuple(ArmScore(lm[i], tuple(m[i][0]), tuple(m[i][-1]))
                           for lm, m in zip(log_marginals, means))
                  for i, z in enumerate(reps)}
    scores[None] = tuple(ArmScore(
        log_marginal=score_not_exists(arm),
        id_estimate=None if prep.selection is not None else arm.frequencies,
        trial_estimate=None) for arm in exp.arms)
    rep[None] = None
    prior = prior_log_prob(prep.pool)
    return {h: HypothesisRecord(prior, scores[rep[h.z]], rep[h.z]) for h in hypotheses}


def _pick(values: Mapping[Hypothesis, float]) -> Hypothesis:
    """Highest value; ties within TIE_TOL go to smaller sets, then lexicographic."""
    top = max(values.values())
    return min((h for h, v in values.items() if v >= top - TIE_TOL), key=Hypothesis.sort_key)


def pick_best(records: Mapping[Hypothesis, HypothesisRecord]) -> Hypothesis:
    """Highest total score, with the tie rule of ``_pick``."""
    return _pick({h: r.total for h, r in records.items()})


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
    records = score_hypotheses(prep, config)
    best = pick_best(records)
    estimates = [s.id_estimate for s in records[best].arm_scores]
    estimate = (None if any(e is None for e in estimates)
                else {arm.x_value: e for arm, e in zip(exp.arms, estimates)})
    return FasResult(best=best, estimate=estimate, pool=prep.pool, records=records,
                     config=config, selection=prep.selection)


def kl_divergences(exp: ExperimentSummary,
                   records: Mapping[Hypothesis, HypothesisRecord]) -> dict[Hypothesis, float]:
    """Σ over arms of KL(empirical arm distribution ‖ predicted trial distribution)."""
    out = {}
    for h, rec in records.items():
        if h.is_not_exists:
            continue
        kl = 0.0
        for arm, score in zip(exp.arms, rec.arm_scores):
            for c, p, q in zip(arm.outcome_counts, arm.frequencies, score.trial_estimate):
                if c > 0:
                    kl += p * (math.log(p) - (math.log(q) if q > 0 else -math.inf))
        out[h] = kl
    return out


def pick_min_kl(exp: ExperimentSummary,
                records: Mapping[Hypothesis, HypothesisRecord]) -> Hypothesis:
    """Smallest KL divergence, with the tie rule of ``_pick``."""
    return _pick({h: -kl for h, kl in kl_divergences(exp, records).items()})

