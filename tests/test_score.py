import math

import numpy as np
import pytest
from scipy.special import gammaln

from _oracles import (confounded_world, latent_confounder_world, mean_abs_diff,
                      score_by_elimination, valid_set_world)
from adjfas import score as score_module
from adjfas.bayesnet import fit_posterior
from adjfas.data import Arm, CategoricalTable, ValidationError
from adjfas.graph import Admg, satisfies_adjustment_criterion
from adjfas.score import (NOT_EXISTS, TIE_TOL, EnumerationLimitError, FasConfig, FasResult,
                          Hypothesis, HypothesisRecord, candidate_pool, enumerate_hypotheses,
                          find_adjustment_set, pick_best, pick_min_kl, prepare_scoring,
                          prior_log_prob, score_exp_arm, score_hypotheses, score_not_exists)
from adjfas.selection import selected_conditional
from adjfas.sim import SimConfig, generate_world, sample_datasets


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
        for h in hyps:
            assert prior_log_prob(h, pool) == pytest.approx(math.log(1 / 5))

    def test_empty_pool(self):
        assert prior_log_prob(NOT_EXISTS, ()) == pytest.approx(math.log(0.5))
        assert prior_log_prob(Hypothesis.adjustment(()), ()) == pytest.approx(math.log(0.5))

    def test_normalization(self):
        pool = ("A", "B", "C")
        total = sum(math.exp(prior_log_prob(h, pool)) for h in enumerate_hypotheses(pool))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_outside_pool_rejected(self):
        with pytest.raises(ValueError):
            prior_log_prob(Hypothesis.adjustment(("Q",)), ("A",))


class TestScoreNotExists:
    def test_hand_computed_values(self):
        # Dirichlet(1)-multinomial: Γ(2)Γ(2)Γ(2)/Γ(4) = 1/6 and Γ(2)Γ(3)Γ(1)/Γ(4) = 1/3
        assert score_not_exists(Arm.from_counts(0, [1, 1])) == pytest.approx(math.log(1 / 6), abs=1e-12)
        assert score_not_exists(Arm.from_counts(0, [2, 0])) == pytest.approx(math.log(1 / 3), abs=1e-12)

    def test_empty_arm(self):
        assert score_not_exists(Arm.from_counts(0, [0, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_three_categories(self):
        # Γ(3)·Γ(2)Γ(2)Γ(1)/Γ(5) = 2/24
        assert score_not_exists(Arm.from_counts(0, [1, 1, 0])) == pytest.approx(
            math.log(2 / 24), abs=1e-12)


def xy_posterior(seed, n=400, p0=0.3, p1=0.7):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n)
    y = (rng.random(n) < np.where(x == 1, p1, p0)).astype(int)
    t = CategoricalTable(("X", "Y"), (2, 2), np.column_stack([x, y]))
    return fit_posterior(Admg(["X", "Y"], directed=[("X", "Y")]), t, 1.0)


def dirichlet_multinomial_log(alpha, counts):
    alpha = np.asarray(alpha, dtype=float)
    counts = np.asarray(counts, dtype=float)
    return float(gammaln(alpha.sum()) - gammaln(alpha).sum()
                 + gammaln(alpha + counts).sum() - gammaln(alpha.sum() + counts.sum()))


class TestScoreExpArm:
    def test_closed_form_oracle_small(self):
        post = xy_posterior(0)
        arm = Arm.from_counts(1, [12, 28])
        sc = score_exp_arm("X", "Y", (), post, arm, 50000, np.random.default_rng(1))
        exact = dirichlet_multinomial_log(post.alpha["Y"][1], arm.outcome_counts)
        assert abs(sc.log_marginal - exact) / abs(exact) < 0.01

    def test_empty_arm_scores_zero(self):
        post = xy_posterior(2)
        arm = Arm.from_counts(0, [0, 0])
        sc = score_exp_arm("X", "Y", (), post, arm, 100, np.random.default_rng(3))
        assert sc.log_marginal == pytest.approx(0.0, abs=1e-12)

    def test_concentration_limit(self):
        post = xy_posterior(4)
        theta0 = np.array([0.3, 0.7])
        big = {v: a for v, a in post.alpha.items()}
        big["Y"] = np.array([[0.5, 0.5], theta0]) * 1e10
        big["X"] = np.array([0.5, 0.5]) * 1e10
        post2 = type(post)(dag=post.dag, cardinalities=post.cardinalities,
                           parents=post.parents, alpha=big, ess=post.ess)
        arm = Arm.from_counts(1, [30, 70])
        sc = score_exp_arm("X", "Y", (), post2, arm, 200, np.random.default_rng(5))
        want = 30 * math.log(theta0[0]) + 70 * math.log(theta0[1])
        assert sc.log_marginal == pytest.approx(want, abs=1e-2)
        assert np.allclose(sc.id_estimate, theta0, atol=1e-4)

    def test_estimate_normalized(self):
        post = xy_posterior(6)
        sc = score_exp_arm("X", "Y", (), post, Arm.from_counts(0, [10, 20]), 100,
                           np.random.default_rng(7))
        assert sum(sc.id_estimate) == pytest.approx(1.0, abs=1e-9)

    def test_unknown_variable_rejected(self):
        post = xy_posterior(8)
        with pytest.raises(ValueError):
            score_exp_arm("X", "Y", ("Q",), post, Arm.from_counts(0, [1, 1]), 10,
                          np.random.default_rng(0))


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
        assert hits >= 6

    def test_no_covariates_unconfounded(self):
        rng = np.random.default_rng(12)
        dag = Admg(["X", "Y"], directed=[("X", "Y")])
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
        assert r1.scores == r2.scores
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
        arms = (Arm.from_counts(0, [50, 50]), Arm.from_counts(1, [40, 60]))
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
        records = {h: HypothesisRecord(h, t, ()) for h, t in totals.items()}
        best = pick_best(records)
        assert best == Hypothesis.adjustment(("A",))
        res = FasResult(best=best, scores=totals, estimate=None, pool=("A", "B"),
                        records=records, population="same", config=FasConfig())
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
        arm = Arm.from_counts(0, [25, 75])
        exp = type(datasets_for(confounded_world(), 100, 10, 0)[1])(
            treatment="X", outcome="Y", arms=(arm,))
        h = Hypothesis.adjustment(())
        rec = HypothesisRecord(h, 0.0, (ArmScore(0.0, (0.25, 0.75), (0.25, 0.75)),))
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
                arms=tuple(Arm.from_counts(a.x_value, [3 * c for c in a.outcome_counts])
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

    @pytest.mark.parametrize("selection", ["none", "observed"])
    def test_full_enumeration_matches_elimination(self, selection):
        prep, config = _scoring_world(selection)
        assert len(prep.pool) == 4
        assert (prep.selection is None) == (selection == "none")
        records = score_hypotheses(prep, config)
        assert list(records) == sorted(enumerate_hypotheses(prep.pool), key=Hypothesis.sort_key)
        oracle = score_by_elimination(prep, config)
        _assert_matches_elimination(records, oracle)
        totals = {h: prior_log_prob(h, prep.pool) + sum(a[0] for a in arms)
                  for h, arms in oracle.items()}
        totals[NOT_EXISTS] = records[NOT_EXISTS].total
        top = max(totals.values())
        want = min((h for h, t in totals.items() if t >= top - TIE_TOL), key=Hypothesis.sort_key)
        assert pick_best(records) == want

    @pytest.mark.parametrize("selection", ["none", "observed"])
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
        monkeypatch.setattr(score_module, "LATTICE_CELL_BUDGET", 1)
        monkeypatch.setattr(score_module, "_root_joint",
                            lambda *a, **k: roots.append(a[4]) or build(*a, **k))
        records = score_hypotheses(prep, config, hypotheses=hyps)
        assert len(roots) == 2 * len(prep.exp.arms)  # one root per set and arm
        _assert_matches_elimination(records, score_by_elimination(prep, config, hyps))


class TestPrepareScoring:
    def test_population_dispatch(self):
        prep, _ = _scoring_world("none")
        assert prep.selection is None
        prep, _ = _scoring_world("observed")
        reported = prep.exp.reported_marginals
        assert prep.selection.selected_vars == tuple(sorted(reported))
        assert set(reported) <= set(prep.post.dag.nodes)
        for v, marginal in reported.items():
            np.testing.assert_allclose(selected_conditional(prep.selection, v), marginal,
                                       rtol=0, atol=1e-6)


class TestDegenerateAndValidationPaths:
    def test_all_degenerate_iterations_error(self):
        from adjfas.score import ScoringError, _score_arm
        # hand-built batch where P(X=1) is exactly zero in every draw
        batched = {
            "X": np.tile(np.array([1.0, 0.0]), (5, 1)),
            "Y": np.tile(np.array([[0.5, 0.5], [0.5, 0.5]]), (5, 1, 1)),
        }
        parents = {"X": (), "Y": ("X",)}
        arm = Arm.from_counts(1, [3, 7])
        with pytest.raises(ScoringError):
            _score_arm(batched, parents, "X", "Y", [()], arm)

    def test_arm_value_outside_cardinality(self):
        gt = confounded_world()
        table, exp = datasets_for(gt, 2000, 100, seed=30)
        bad = type(exp)(treatment="X", outcome="Y",
                        arms=(Arm.from_counts(5, [10, 10]),))
        with pytest.raises(ValidationError):
            find_adjustment_set(table, bad, FasConfig(seed=0))

    def test_outcome_cardinality_mismatch(self):
        gt = confounded_world()
        table, exp = datasets_for(gt, 2000, 100, seed=31)
        bad = type(exp)(treatment="X", outcome="Y",
                        arms=(Arm.from_counts(0, [5, 5, 5]),))
        with pytest.raises(ValidationError):
            find_adjustment_set(table, bad, FasConfig(seed=0))
