import dataclasses
import math
import re
from itertools import combinations

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from _oracles import (confounded_world, eliminated_conditional, latent_confounder_world,
                      mean_abs_diff, score_by_elimination, score_one_arm, valid_set_world)
from adjfas import score as score_module
from adjfas.bayesnet import BayesNetPosterior, fit_posterior, posterior_mean
from adjfas.data import (Arm, CategoricalTable, ExperimentSummary, ValidationError,
                         g2_independence_test)
from adjfas.graph import Dag, satisfies_adjustment_criterion
from adjfas.score import (NOT_EXISTS, TIE_TOL, EnumerationLimitError, FasConfig, FasResult,
                          Hypothesis, HypothesisRecord, PreparedScoring, ScoringError,
                          candidate_pool, enumerate_hypotheses,
                          find_adjustment_set, pick_best, pick_min_kl, prepare_scoring,
                          prior_log_prob, score_hypotheses, score_not_exists)
from adjfas.sim import SimConfig, generate_world, sample_datasets, simulate_replicate


def datasets_for(gt, n_obs, n_per_arm, seed):
    cfg = SimConfig(n_obs=n_obs, n_per_arm=n_per_arm, seed=0)
    return sample_datasets(gt, cfg, np.random.default_rng(seed))


class TestCandidatePool:
    def test_confounder_detected(self):
        gt = confounded_world()
        table, _ = datasets_for(gt, 10000, 100, seed=1)
        assert candidate_pool(table, "X", "Y", 0.05) == ("C",)

    def test_irrelevant_variable_excluded(self):
        rng = np.random.default_rng(2)
        n = 10000
        c = rng.integers(0, 2, n)
        x = (c ^ (rng.random(n) < 0.2)).astype(int)
        y = ((x & c) ^ (rng.random(n) < 0.2)).astype(int)
        w = rng.integers(0, 2, n)
        t = CategoricalTable(("W", "C", "X", "Y"), (2, 2, 2, 2), np.column_stack([w, c, x, y]))
        pool = candidate_pool(t, "X", "Y", 0.05)
        assert "W" not in pool and "C" in pool

    def test_constant_column_excluded(self):
        # cardinality 1 leaves the G² test no degree of freedom: p = 1, never in the pool
        rng = np.random.default_rng(2)
        n = 10000
        c = rng.integers(0, 2, n)
        x = (c ^ (rng.random(n) < 0.2)).astype(int)
        y = ((x & c) ^ (rng.random(n) < 0.2)).astype(int)
        t = CategoricalTable(("K", "C", "X", "Y"), (1, 2, 2, 2),
                             np.column_stack([np.zeros(n, int), c, x, y]))
        assert g2_independence_test(t, "K", "X") == g2_independence_test(t, "K", "Y") == 1.0
        assert candidate_pool(t, "X", "Y", 0.05) == ("C",)

    def test_no_covariates(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, 500)
        y = (x ^ (rng.random(500) < 0.3)).astype(int)
        t = CategoricalTable(("X", "Y"), (2, 2), np.column_stack([x, y]))
        assert candidate_pool(t, "X", "Y", 0.05) == ()
        hyps = enumerate_hypotheses(())
        assert hyps == [Hypothesis.adjustment(()), NOT_EXISTS]


class TestPrior:
    def test_uniform_over_pool_of_two(self):
        pool = ("A", "B")
        hyps = enumerate_hypotheses(pool)
        assert len(hyps) == 5
        assert prior_log_prob(pool) == pytest.approx(math.log(1 / 5))

    def test_empty_pool(self):
        assert enumerate_hypotheses(()) == [Hypothesis.adjustment(()), NOT_EXISTS]
        assert prior_log_prob(()) == pytest.approx(math.log(0.5))

    def test_normalization(self):
        pool = ("A", "B", "C")
        total = len(enumerate_hypotheses(pool)) * math.exp(prior_log_prob(pool))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestScoreNotExists:
    def test_hand_computed_values(self):
        # Dirichlet(1)-multinomial: Γ(2)Γ(2)Γ(2)/Γ(4) = 1/6 and Γ(2)Γ(3)Γ(1)/Γ(4) = 1/3
        assert score_not_exists(Arm(0, [1, 1])) == pytest.approx(math.log(1 / 6), abs=1e-12)
        assert score_not_exists(Arm(0, [2, 0])) == pytest.approx(math.log(1 / 3), abs=1e-12)

    def test_empty_arm(self):
        assert score_not_exists(Arm(0, [0, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_three_categories(self):
        # Γ(3)·Γ(2)Γ(2)Γ(1)/Γ(5) = 2/24
        assert score_not_exists(Arm(0, [1, 1, 0])) == pytest.approx(
            math.log(2 / 24), abs=1e-12)


def xy_posterior(seed, n=400, p0=0.3, p1=0.7):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n)
    y = (rng.random(n) < np.where(x == 1, p1, p0)).astype(int)
    t = CategoricalTable(("X", "Y"), (2, 2), np.column_stack([x, y]))
    return fit_posterior(Dag(["X", "Y"], directed=[("X", "Y")]), t, 1.0)


def dirichlet_multinomial_log(alpha, counts):
    alpha = np.asarray(alpha, dtype=float)
    counts = np.asarray(counts, dtype=float)
    return float(gammaln(alpha.sum()) - gammaln(alpha).sum()
                 + gammaln(alpha + counts).sum() - gammaln(alpha.sum() + counts.sum()))


class TestScoreExpArm:
    """The per-arm Monte-Carlo scorer on the empty set, against closed forms."""

    def test_closed_form_oracle_small(self):
        post = xy_posterior(0)
        arm = Arm(1, [12, 28])
        sc = score_one_arm("X", "Y", (), post, arm, 50000, 1)
        exact = dirichlet_multinomial_log(post.alpha["Y"][1], arm.outcome_counts)
        assert abs(sc.log_marginal - exact) / abs(exact) < 0.01

    def test_empty_arm_scores_zero(self):
        post = xy_posterior(2)
        arm = Arm(0, [0, 0])
        sc = score_one_arm("X", "Y", (), post, arm, 100, 3)
        assert sc.log_marginal == pytest.approx(0.0, abs=1e-12)

    def test_concentration_limit(self):
        post = xy_posterior(4)
        theta0 = np.array([0.3, 0.7])
        big = {v: a for v, a in post.alpha.items()}
        big["Y"] = np.array([[0.5, 0.5], theta0]) * 1e10
        big["X"] = np.array([0.5, 0.5]) * 1e10
        post2 = type(post)(dag=post.dag, cardinalities=post.cardinalities,
                           parents=post.parents, alpha=big)
        arm = Arm(1, [30, 70])
        sc = score_one_arm("X", "Y", (), post2, arm, 200, 5)
        want = 30 * math.log(theta0[0]) + 70 * math.log(theta0[1])
        assert sc.log_marginal == pytest.approx(want, abs=1e-2)
        assert np.allclose(sc.id_estimate, theta0, atol=1e-4)

    def test_estimate_normalized(self):
        post = xy_posterior(6)
        sc = score_one_arm("X", "Y", (), post, Arm(0, [10, 20]), 100, 7)
        assert sum(sc.id_estimate) == pytest.approx(1.0, abs=1e-9)


class TestLogSumExp:
    """``score._logsumexp`` gives scipy's ``logsumexp`` bit for bit."""

    @staticmethod
    def _same_bits(a):
        got, want = score_module._logsumexp(a), logsumexp(a, axis=-1)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (got, want)

    def test_random_rows(self):
        rng = np.random.default_rng(0)
        for shape in [(1, 1), (3, 7), (5, 100), (40, 2000), (2, 3, 64)]:
            for scale in (1e-3, 1.0, 50.0, 800.0):
                self._same_bits(rng.normal(-scale, scale, size=shape))

    def test_minus_infinity_and_repeated_maxima(self):
        rng = np.random.default_rng(1)
        a = rng.normal(-40.0, 5.0, size=(60, 500))
        a[rng.random(a.shape) < 0.3] = -np.inf  # degenerate draws
        a[1] = -np.inf  # every draw degenerate
        a[2, :7] = a[2].max() + 1.0  # seven tied maxima
        a[3] = -12.5  # every entry tied
        a[4, 0] = 0.0  # one finite entry among -inf
        a[4, 1:] = -np.inf
        a[5, ::2] = np.round(a[5, ::2])  # many repeats
        self._same_bits(a)
        assert score_module._logsumexp(a)[1] == -np.inf


class TestFindAdjustmentSet:
    def test_confounded_world_picks_confounder(self):
        gt = confounded_world()
        table, exp = datasets_for(gt, 10000, 1000, seed=11)
        res = find_adjustment_set(table, exp, FasConfig(seed=7))
        assert res.best == Hypothesis.adjustment(("C",))
        fas_err = mean_abs_diff(res.estimate, gt)
        # compare against the unadjusted and the raw-arm estimates
        unadj = find_adjustment_set(table, exp, FasConfig(seed=7))  # reuse records
        empty_rec = unadj.records[Hypothesis.adjustment(())]
        unadj_est = {a.x_value: s.id_estimate for a, s in zip(exp.arms, empty_rec.arm_scores)}
        emp = {a.x_value: tuple(np.array(a.outcome_counts) / a.total) for a in exp.arms}
        assert fas_err < mean_abs_diff(unadj_est, gt)
        assert fas_err < mean_abs_diff(emp, gt)

    def test_latent_confounding_returns_not_exists_majority(self):
        hits = 0
        for rep in range(10):
            rng = np.random.default_rng(1000 + rep)
            gt = latent_confounder_world(rng)
            table, exp = datasets_for(gt, 10000, 5000, seed=2000 + rep)
            res = find_adjustment_set(table, exp, FasConfig(seed=rep))
            hits += res.best.is_not_exists
            if res.best.is_not_exists:  # same population: the raw trial frequencies
                assert res.estimate == {a.x_value: tuple(c / a.total for c in a.outcome_counts)
                                        for a in exp.arms}
        assert hits >= 6

    def test_no_covariates_unconfounded(self):
        rng = np.random.default_rng(12)
        dag = Dag(["X", "Y"], directed=[("X", "Y")])
        cpts = {"X": np.array([0.5, 0.5]), "Y": np.array([[0.8, 0.2], [0.3, 0.7]])}
        from _oracles import make_ground_truth
        gt = make_ground_truth(dag, {"X": 2, "Y": 2}, cpts)
        table, exp = datasets_for(gt, 10000, 1000, seed=13)
        res = find_adjustment_set(table, exp, FasConfig(seed=3))
        assert res.best == Hypothesis.adjustment(())
        for xv, vec in res.estimate.items():
            assert np.abs(np.array(vec) - np.array(gt.true_id[xv])).max() < 0.05

    def test_determinism_bit_identical(self):
        gt = confounded_world()
        table, exp = datasets_for(gt, 4000, 300, seed=15)
        r1 = find_adjustment_set(table, exp, FasConfig(seed=9))
        r2 = find_adjustment_set(table, exp, FasConfig(seed=9))
        assert r1.best == r2.best
        assert r1.ranked() == r2.ranked()
        for h in r1.records:
            for a, b in zip(r1.records[h].arm_scores, r2.records[h].arm_scores):
                assert a.log_marginal == b.log_marginal
                assert a.id_estimate == b.id_estimate

    def test_enumeration_guard(self):
        rng = np.random.default_rng(16)
        n = 2000
        cols = {}
        x = rng.integers(0, 2, n)
        y = (x ^ (rng.random(n) < 0.1)).astype(int)
        # 17 noisy copies of X land in the pool and trip the guard
        for i in range(17):
            cols[f"V{i:02d}"] = (y ^ (rng.random(n) < 0.2)).astype(int)
        rows = np.column_stack([*cols.values(), x, y])
        t = CategoricalTable((*cols, "X", "Y"), (2,) * 19, rows)
        arms = (Arm(0, [50, 50]), Arm(1, [40, 60]))
        exp = type(datasets_for(confounded_world(), 100, 10, 0)[1])(
            treatment="X", outcome="Y", arms=arms)
        with pytest.raises(EnumerationLimitError):
            find_adjustment_set(t, exp, FasConfig(seed=0))
        res = find_adjustment_set(t, exp, FasConfig(seed=0, max_subset_size=1))
        assert res.best is not None

    def test_best_ranked_first_over_near_tied_superset(self):
        # a superset within 1e-13 of best, above it by its last bits
        totals = {Hypothesis.adjustment(()): -12.0,
                  Hypothesis.adjustment(("A",)): -5.0,
                  Hypothesis.adjustment(("A", "B")): -5.0 + 1e-13,
                  NOT_EXISTS: -20.0}
        records = {h: HypothesisRecord(t, (), h.z) for h, t in totals.items()}
        best = pick_best(records)
        assert best == Hypothesis.adjustment(("A",))
        res = FasResult(best=best, estimate=None, pool=("A", "B"),
                        records=records, config=FasConfig(), selection=None)
        assert [h for h, _ in res.ranked()] == [
            best, Hypothesis.adjustment(("A", "B")), Hypothesis.adjustment(()), NOT_EXISTS]
        assert res.to_dict()["hypotheses"][0]["z"] == ["A"]

    def test_tie_break_prefers_smaller_then_lexicographic(self):
        recs = {}

        class R:
            def __init__(self, total):
                self.total = total

        h1 = Hypothesis.adjustment(("A", "B"))
        h2 = Hypothesis.adjustment(("B",))
        h3 = Hypothesis.adjustment(("A",))
        recs = {h1: R(-10.0), h2: R(-10.0 + 4e-10), h3: R(-10.0 - 4e-10), NOT_EXISTS: R(-10.0)}
        assert pick_best(recs) == h3  # all within 1e-9: smallest size, then lexicographic

    def test_normalization_of_estimates(self):
        gt = confounded_world()
        table, exp = datasets_for(gt, 5000, 500, seed=17)
        res = find_adjustment_set(table, exp, FasConfig(seed=1))
        for h, rec in res.records.items():
            for sc in rec.arm_scores:
                if sc.id_estimate is not None:
                    assert sum(sc.id_estimate) == pytest.approx(1.0, abs=1e-9)


def kl_pick(table, exp, config):
    return pick_min_kl(exp, score_hypotheses(prepare_scoring(table, exp, config), config))


class TestKlSelect:
    def test_confounded_world(self):
        gt = confounded_world()
        table, exp = datasets_for(gt, 10000, 1000, seed=18)
        assert kl_pick(table, exp, FasConfig(seed=2)) == Hypothesis.adjustment(("C",))

    def test_never_not_exists_under_latent_confounding(self):
        for rep in range(5):
            rng = np.random.default_rng(3000 + rep)
            gt = latent_confounder_world(rng)
            table, exp = datasets_for(gt, 10000, 5000, seed=4000 + rep)
            h = kl_pick(table, exp, FasConfig(seed=rep))
            assert not h.is_not_exists

    def test_exact_match_gives_zero_kl(self):
        from adjfas.score import kl_divergences, HypothesisRecord, ArmScore
        arm = Arm(0, [25, 75])
        exp = type(datasets_for(confounded_world(), 100, 10, 0)[1])(
            treatment="X", outcome="Y", arms=(arm,))
        h = Hypothesis.adjustment(())
        rec = HypothesisRecord(0.0, (ArmScore(0.0, (0.25, 0.75), (0.25, 0.75)),), frozenset())
        assert kl_divergences(exp, {h: rec})[h] == pytest.approx(0.0, abs=1e-12)


class TestScoreProperties:
    def test_monotone_evidence(self):
        # growing the trial (same proportions) never shrinks the true-vs-false gap on average
        gaps1, gaps3 = [], []
        for rep in range(20):
            rng = np.random.default_rng(500 + rep)
            gt = valid_set_world(rng)
            table, exp = datasets_for(gt, 10000, 600, seed=600 + rep)
            scaled = type(exp)(
                treatment=exp.treatment, outcome=exp.outcome,
                arms=tuple(Arm(a.x_value, [3 * c for c in a.outcome_counts])
                           for a in exp.arms),
                reported_marginals=exp.reported_marginals, population=exp.population)
            true_h, false_h = Hypothesis.adjustment(("C",)), Hypothesis.adjustment(())
            r1 = find_adjustment_set(table, exp, FasConfig(seed=rep))
            r3 = find_adjustment_set(table, scaled, FasConfig(seed=rep))
            if not all(h in r1.records for h in (true_h, false_h)):
                continue
            gaps1.append(r1.records[true_h].total - r1.records[false_h].total)
            gaps3.append(r3.records[true_h].total - r3.records[false_h].total)
        assert len(gaps1) >= 8
        assert np.mean(gaps3) >= np.mean(gaps1)

    def test_prior_washout(self):
        # bounded reweighting of the uniform prior leaves the argmax unchanged at
        # 5000/arm; the world has a unique valid set so no equivalent optimum exists
        rng = np.random.default_rng(21)
        gt = confounded_world()
        table, exp = datasets_for(gt, 10000, 5000, seed=901)
        res = find_adjustment_set(table, exp, FasConfig(seed=5))
        hyps = list(res.records)
        for _ in range(10):
            w = rng.uniform(0.1, 10.0, len(hyps))
            w = w / w.sum()
            perturbed = {
                h: sum(s.log_marginal for s in res.records[h].arm_scores) + math.log(w[i])
                for i, h in enumerate(hyps)
            }
            best = max(perturbed.items(), key=lambda kv: kv[1])[0]
            assert best == res.best

    def test_consistency_with_adjustment_faithfulness(self):
        # on detectable-confounding worlds with a criterion-valid observed set,
        # the top hypothesis is itself criterion-valid in >= 80% of replicates
        ok = 0
        reps = 25
        for rep in range(reps):
            rng = np.random.default_rng(7000 + rep)
            gt = valid_set_world(rng)
            table, exp = datasets_for(gt, 10000, 1000, seed=7100 + rep)
            res = find_adjustment_set(table, exp, FasConfig(seed=rep))
            if res.best.is_not_exists:
                continue
            ok += satisfies_adjustment_criterion(gt.dag, "X", "Y", res.best.z)
        assert ok / reps >= 0.8


def _scoring_world(selection, seed=2):
    """Simulated world whose candidate pool has four variables."""
    cfg = SimConfig(selection=selection, seed=seed, n_obs=5000, n_per_arm=500)
    gt = generate_world(cfg, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))))
    table, exp = sample_datasets(
        gt, cfg, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,))))
    config = FasConfig(seed=seed)
    return prepare_scoring(table, exp, config), config


def _assert_matches_elimination(records, oracle):
    for h, arms in oracle.items():
        for got, (log_marginal, id_est, trial_est) in zip(records[h].arm_scores, arms,
                                                          strict=True):
            assert got.log_marginal == pytest.approx(log_marginal, rel=0, abs=1e-10)
            np.testing.assert_allclose(got.id_estimate, id_est, rtol=0, atol=1e-10)
            np.testing.assert_allclose(got.trial_estimate, trial_est, rtol=0, atol=1e-10)


class TestLatticeScoring:
    """The lattice walk against one variable elimination per hypothesis."""

    @pytest.mark.parametrize("selection", ["none", "observed", "latent"])
    def test_full_enumeration_matches_elimination(self, selection):
        prep, config = _scoring_world(selection)
        assert len(prep.pool) == 4
        assert (prep.selection is None) == (selection == "none")
        records = score_hypotheses(prep, config)
        assert list(records) == sorted(enumerate_hypotheses(prep.pool), key=Hypothesis.sort_key)
        oracle = score_by_elimination(prep, config)
        _assert_matches_elimination(records, oracle)
        totals = {h: prior_log_prob(prep.pool) + sum(a[0] for a in arms)
                  for h, arms in oracle.items()}
        totals[NOT_EXISTS] = records[NOT_EXISTS].total
        top = max(totals.values())
        want = min((h for h, t in totals.items() if t >= top - TIE_TOL), key=Hypothesis.sort_key)
        assert pick_best(records) == want

    @pytest.mark.parametrize("selection", ["none", "observed", "latent"])
    def test_single_hypothesis_matches_elimination(self, selection):
        prep, config = _scoring_world(selection)
        for z in ((), prep.pool[1:3], prep.pool):
            h = Hypothesis.adjustment(z)
            records = score_hypotheses(prep, config, hypotheses=[h])
            assert list(records) == [h]
            _assert_matches_elimination(records, score_by_elimination(prep, config, [h]))

    def test_over_cell_budget_scores_each_set_alone(self, monkeypatch):
        prep, config = _scoring_world("none")
        hyps = [Hypothesis.adjustment(prep.pool[:2]), Hypothesis.adjustment(prep.pool[2:])]
        roots = []
        build = score_module._root_joint
        monkeypatch.setattr(score_module, "ROOT_BUDGET", 1)
        monkeypatch.setattr(score_module, "_root_joint",
                            lambda *a, **k: roots.append(a[4]) or build(*a, **k))
        records = score_hypotheses(prep, config, hypotheses=hyps)
        assert len(roots) == 2  # one root per set, shared by every arm
        _assert_matches_elimination(records, score_by_elimination(prep, config, hyps))

    @pytest.mark.parametrize("budget", [score_module.ROOT_BUDGET, score_module.ROOT_BUDGET // 8])
    def test_roots_grouped_under_budget(self, budget, monkeypatch):
        prep, config = _class_fixture("pool-of-7")
        monkeypatch.setattr(score_module, "ROOT_BUDGET", budget)
        cells, served = [], []  # per root built: its cells, and the sets walked from it
        build, walk = score_module._root_joint, score_module._walk_lattice

        def root_joint(*a, **k):
            joint = build(*a, **k)
            cells.append(joint.size)
            return joint

        def walk_both_ways(joint, root, sets):
            # the walk sorts the sets itself, so their order cannot matter
            walked, backwards = walk(joint, root, sets), walk(joint, root, sets[::-1])
            assert walked.keys() == backwards.keys() == set(sets)
            for z, (theta, degenerate) in walked.items():
                assert np.array_equal(theta, backwards[z][0])
                assert np.array_equal(degenerate, backwards[z][1])
            served.append(len(sets))
            return walked

        monkeypatch.setattr(score_module, "_root_joint", root_joint)
        monkeypatch.setattr(score_module, "_walk_lattice", walk_both_ways)
        records = score_hypotheses(prep, config)
        roots = list(zip(cells, served, strict=True))
        assert all(c <= budget for c, n in roots if n > 1)
        assert any(n > 1 for _, n in roots) and any(c > budget for c, _ in roots)
        reps = {r.representative for h, r in records.items() if not h.is_not_exists}
        assert sum(served) == len(reps)  # each set once, for every arm
        _assert_matches_elimination(records, score_by_elimination(prep, config))

    @pytest.mark.parametrize("world", ["none", "observed", "pool-of-7"])
    def test_one_root_and_walk_per_group_and_arm(self, world, monkeypatch):
        # a root holds every X value and, for a selected trial, both
        # populations, so one elimination and one walk per group serve every
        # arm's estimates and scores
        prep, config = _class_fixture(world) if world in CLASS_FIXTURES else _scoring_world(world)
        roots, walks = [], []
        build, walk = score_module._root_joint, score_module._walk_lattice

        def root_joint(*a, **k):
            joint = build(*a, **k)
            roots.append((a[4], joint.shape[-2]))  # its covariates and populations
            return joint

        monkeypatch.setattr(score_module, "_root_joint", root_joint)
        monkeypatch.setattr(score_module, "_walk_lattice",
                            lambda *a, **k: walks.append(a[1]) or walk(*a, **k))
        score_hypotheses(prep, config)
        groups = set(roots)
        assert len(prep.exp.arms) >= 2
        assert len(roots) == len(walks) == len(groups)
        assert {n for _, n in groups} == {1 if prep.selection is None else 2}
        assert (len(groups) > 1) == (world == "pool-of-7")

    @pytest.mark.parametrize("world", ["observed", "pool-of-7"])
    def test_arm_order_does_not_matter(self, world):
        # every arm reads the same draws, so an arm's scores depend on its x
        # value and counts, not on its place in the trial
        prep, config = _class_fixture(world) if world in CLASS_FIXTURES else _scoring_world(world)
        flipped = dataclasses.replace(
            prep, exp=dataclasses.replace(prep.exp, arms=prep.exp.arms[::-1]))
        assert len(prep.exp.arms) >= 2
        seen = []
        for p in (prep, flipped):
            records = score_hypotheses(p, config)
            doc = FasResult(best=pick_best(records), estimate=None, pool=p.pool, records=records,
                            config=config, selection=p.selection).to_dict()
            by_x = {h: dict(zip((a.x_value for a in p.exp.arms), r.arm_scores, strict=True))
                    for h, r in records.items()}
            seen.append((by_x, doc["best"], doc["tied_with"]))
        assert seen[0] == seen[1]

    def test_annihilated_population_raises(self):
        batched = {"X": np.tile([0.5, 0.5], (3, 1)), "Y": np.full((3, 2, 2), 0.5)}
        joint = score_module._root_joint(batched, {"X": (), "Y": ("X",)}, "X", "Y", (),
                                         {"X": np.zeros(2)})
        assert joint.shape == (2, 2, 2, 3) and joint[..., 0, :].all()
        assert not joint[..., 1, :].any()  # the trial's population weighs nothing
        with pytest.raises(ScoringError, match="selection weights annihilate"):
            score_module._walk_lattice(joint, (), [()])

    @pytest.mark.parametrize("selection", ["none", "observed"])
    def test_no_set_alone_draws_no_parameters(self, selection, monkeypatch):
        prep, config = _scoring_world(selection)
        full = score_hypotheses(prep, config)
        calls = []
        for name in ("sample_parameter_batch", "_representatives"):
            wrapped = getattr(score_module, name)
            monkeypatch.setattr(score_module, name, lambda *a, _f=wrapped, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        records = score_hypotheses(prep, config, [NOT_EXISTS])
        assert calls == []
        assert records == {NOT_EXISTS: full[NOT_EXISTS]}
        score_hypotheses(prep, config, [Hypothesis.adjustment(prep.pool[:1]), NOT_EXISTS])
        assert len(prep.exp.arms) == 2
        assert calls == ["_representatives", "sample_parameter_batch"]  # one batch per search


# (world config, replicate, niters): criterion 5's fixture (pool of 6, 49
# classes), criterion 6's (pool of 5, 30 classes; replicate 10 has a pair
# that only the selection node keeps apart) and a world with a pool of 7
CLASS_FIXTURES = {
    "criterion-5": (SimConfig(selection="none", n_obs=10000, n_per_arm=500, seed=42), 13, 100),
    "criterion-6": (SimConfig(selection="observed", n_obs=10000, n_per_arm=500, seed=55), 6, 100),
    "criterion-6-rep-10": (
        SimConfig(selection="observed", n_obs=10000, n_per_arm=500, seed=55), 10, 100),
    "pool-of-7": (SimConfig(n_observed=10, n_latent=1, n_obs=5000, n_per_arm=500, seed=4), 0, 50),
}


def _class_fixture(name):
    cfg, rep, niters = CLASS_FIXTURES[name]
    _, table, exp = simulate_replicate(cfg, rep)
    config = FasConfig(niters=niters)
    return prepare_scoring(table, exp, config), config


def _oracle_pick(prep, oracle, records):
    totals = {h: prior_log_prob(prep.pool) + sum(a[0] for a in arms) for h, arms in oracle.items()}
    totals[NOT_EXISTS] = records[NOT_EXISTS].total
    top = max(totals.values())
    return min((h for h, t in totals.items() if t >= top - TIE_TOL), key=Hypothesis.sort_key)


class TestConfoundingClasses:
    """Only class representatives are scored; members share their scores."""

    @pytest.mark.parametrize("name", ["criterion-5", "criterion-6", "pool-of-7"])
    def test_classes_match_elimination(self, name):
        prep, config = _class_fixture(name)
        records = score_hypotheses(prep, config)
        oracle = score_by_elimination(prep, config)
        for h, arms in oracle.items():
            rec = records[h]
            for got, (log_marginal, id_est, trial_est) in zip(rec.arm_scores, arms, strict=True):
                assert got.log_marginal == pytest.approx(log_marginal, rel=1e-11, abs=0)
                np.testing.assert_allclose(got.id_estimate, id_est, rtol=1e-11, atol=0)
                np.testing.assert_allclose(got.trial_estimate, trial_est, rtol=1e-11, atol=0)
            rep = records[Hypothesis.adjustment(rec.representative)]
            assert rec.representative <= h.z and rep.representative == rec.representative
            assert all(a is b for a, b in zip(rec.arm_scores, rep.arm_scores, strict=True))
        assert len({records[h].representative for h in oracle}) < len(oracle)
        assert pick_best(records) == _oracle_pick(prep, oracle, records)

    def test_selection_node_keeps_sets_apart(self):
        # without the selection node the prune merges sets whose tilted
        # predictives differ
        prep, config = _class_fixture("criterion-6-rep-10")
        records = score_hypotheses(prep, config)
        oracle = score_by_elimination(prep, config)
        total = {h: sum(a[0] for a in arms) for h, arms in oracle.items()}
        unselected = score_module._representatives(dataclasses.replace(prep, selection=None),
                                                   list({h.z for h in oracle}))
        pairs = [(a, b) for a, b in combinations(oracle, 2)
                 if unselected[a.z] == unselected[b.z] and abs(total[a] - total[b]) > 1e-6]
        assert pairs
        for a, b in pairs:
            assert records[a].representative != records[b].representative

    def test_scores_one_set_per_class(self, monkeypatch):
        prep, config = _class_fixture("pool-of-7")
        assert len(prep.pool) >= 7
        seen = []
        predictives = score_module._predictives
        monkeypatch.setattr(score_module, "_predictives",
                            lambda *a, **k: seen.append(a[4]) or predictives(*a, **k))
        records = score_hypotheses(prep, config)
        reps = {r.representative for h, r in records.items() if not h.is_not_exists}
        assert len(seen) == 1 < len(prep.exp.arms)  # one call serves every arm
        for zsets in seen:
            assert len(zsets) == len(reps) < 2 ** len(prep.pool)
            assert {frozenset(z) for z in zsets} == reps

    def test_degenerate_error_names_asked_set_and_representative(self, monkeypatch):
        prep, config = _class_fixture("pool-of-7")
        records = score_hypotheses(prep, config)
        h = max((h for h, r in records.items() if not h.is_not_exists and r.representative != h.z),
                key=Hypothesis.sort_key)
        walk = score_module._walk_lattice
        monkeypatch.setattr(score_module, "_walk_lattice", lambda *a, **k: {
            z: (t, np.ones_like(d)) for z, (t, d) in walk(*a, **k).items()})
        rep = Hypothesis.adjustment(records[h].representative)
        with pytest.raises(ScoringError) as err:
            score_hypotheses(prep, config, [h])
        assert f"z={sorted(rep.z)}" in str(err.value) and h.label() in str(err.value)

    def test_report_names_classes(self):
        prep, config = _class_fixture("criterion-5")
        records = score_hypotheses(prep, config)
        res = FasResult(best=pick_best(records), estimate=None, pool=prep.pool, records=records,
                        config=config, selection=None)
        doc = res.to_dict()
        rep = records[res.best].representative
        assert rep == res.best.z
        assert doc["tied_with"] == [
            sorted(h.z) for h in sorted(records, key=Hypothesis.sort_key)
            if not h.is_not_exists and records[h].representative == rep]
        for entry in doc["hypotheses"]:
            h = NOT_EXISTS if entry["not_exists"] else Hypothesis.adjustment(entry["z"])
            want = records[h].representative
            assert entry["representative"] == (None if want is None else sorted(want))


class TestPrepareScoring:
    def test_population_dispatch(self):
        prep, _ = _scoring_world("none")
        assert prep.selection is None
        prep, _ = _scoring_world("observed")
        reported = prep.exp.reported_marginals
        assert prep.selection.selected_vars == tuple(sorted(reported))
        assert set(reported) <= set(prep.post.dag.nodes)
        sbn, base = prep.selection, posterior_mean(prep.post)  # the weights were solved on base
        for v, marginal in reported.items():
            np.testing.assert_allclose(eliminated_conditional(base, v, tilts=sbn.theta_s),
                                       marginal, rtol=0, atol=1e-6)

    def test_learned_dag_ignores_seed(self):
        # the seed draws only the parameter batches; the network depends on
        # the table and ess alone
        _, table, exp = simulate_replicate(SimConfig(selection="observed", seed=7), 1)
        edges = {frozenset(prepare_scoring(table, exp, FasConfig(seed=s)).post.dag.directed_edges)
                 for s in range(4)}
        assert len(edges) == 1


class TestDegenerateAndValidationPaths:
    def test_all_degenerate_iterations_error(self, monkeypatch):
        # hand-built batch where P(X=1) is exactly zero in every draw
        batched = {
            "X": np.tile(np.array([1.0, 0.0]), (5, 1)),
            "Y": np.tile(np.array([[0.5, 0.5], [0.5, 0.5]]), (5, 1, 1)),
        }
        parents = {"X": (), "Y": ("X",)}
        theta, degenerate = score_module._predictives(batched, parents, "X", "Y", [()], {})
        assert theta.shape == (1, 2, 2, 1, 5) and degenerate.shape == (1, 2, 1, 5)
        assert degenerate[:, 1].all() and not degenerate[:, 0].any()
        # the scorer, not _predictives, turns the flags into the error
        post = BayesNetPosterior(Dag(("X", "Y"), (("X", "Y"),)), {"X": 2, "Y": 2}, parents,
                                 {"X": np.ones(2), "Y": np.ones((2, 2))})
        prep = PreparedScoring(ExperimentSummary("X", "Y", (Arm(1, [3, 7]),)),
                               (), post, None)
        monkeypatch.setattr(score_module, "sample_parameter_batch", lambda *a: batched)
        with pytest.raises(ScoringError, match=re.escape(
                "every sampling iteration degenerate for arm x=1, z=[], "
                "the class representative scored for {}")):
            score_hypotheses(prep, FasConfig(niters=5), [Hypothesis.adjustment(())])

    def test_x_value_without_an_arm_never_raises(self, monkeypatch):
        # P(X=0) is exactly zero in every draw, so θ_{Y_0} is undefined in
        # each; only an arm at x = 0 asks for it
        batched = {
            "X": np.tile(np.array([0.0, 1.0]), (5, 1)),
            "Y": np.tile(np.array([[0.5, 0.5], [0.5, 0.5]]), (5, 1, 1)),
        }
        parents = {"X": (), "Y": ("X",)}
        post = BayesNetPosterior(Dag(("X", "Y"), (("X", "Y"),)), {"X": 2, "Y": 2}, parents,
                                 {"X": np.ones(2), "Y": np.ones((2, 2))})
        monkeypatch.setattr(score_module, "sample_parameter_batch", lambda *a: batched)
        h = Hypothesis.adjustment(())

        def score(*arms):
            prep = PreparedScoring(ExperimentSummary("X", "Y", arms), (), post, None)
            return score_hypotheses(prep, FasConfig(niters=5), [h])[h]

        (arm,) = score(Arm(1, [3, 7])).arm_scores
        assert arm.log_marginal == pytest.approx(10 * math.log(0.5), rel=1e-15)
        assert arm.id_estimate == arm.trial_estimate == (0.5, 0.5)
        with pytest.raises(ScoringError, match=re.escape(
                "every sampling iteration degenerate for arm x=0, z=[], "
                "the class representative scored for {}")):
            score(Arm(1, [3, 7]), Arm(0, [5, 5]))

    def test_arm_value_outside_cardinality(self):
        gt = confounded_world()
        table, exp = datasets_for(gt, 2000, 100, seed=30)
        bad = type(exp)(treatment="X", outcome="Y",
                        arms=(Arm(5, [10, 10]),))
        with pytest.raises(ValidationError):
            find_adjustment_set(table, bad, FasConfig(seed=0))

    def test_named_hypotheses_checked_against_pool_and_cap(self):
        gt = confounded_world()
        table, exp = datasets_for(gt, 5000, 100, seed=32)
        config = FasConfig(seed=0, niters=10, max_subset_size=0)
        prep = prepare_scoring(table, exp, config)
        assert prep.pool == ("C",)
        for h in (Hypothesis.adjustment(("C",)), Hypothesis.adjustment(("Q",))):
            with pytest.raises(ValueError, match="outside the enumerated space"):
                score_hypotheses(prep, config, [h])
        ok = [Hypothesis.adjustment(()), NOT_EXISTS]
        assert list(score_hypotheses(prep, config, ok)) == ok
        uncapped = FasConfig(seed=0, niters=10)
        assert list(score_hypotheses(prep, uncapped, [Hypothesis.adjustment(("C",))]))

    def test_outcome_cardinality_mismatch(self):
        gt = confounded_world()
        table, exp = datasets_for(gt, 2000, 100, seed=31)
        bad = type(exp)(treatment="X", outcome="Y",
                        arms=(Arm(0, [5, 5, 5]),))
        with pytest.raises(ValidationError):
            find_adjustment_set(table, bad, FasConfig(seed=0))
