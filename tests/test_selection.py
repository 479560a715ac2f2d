import re

import numpy as np
import pytest

from _oracles import confounded_world, eliminated_conditional, mean_abs_diff, valid_set_world
from adjfas import selection as selection_module
from adjfas.bayesnet import ParamInstantiation, product_marginal
from adjfas.data import ExperimentSummary, ValidationError
from adjfas.graph import satisfies_adjustment_criterion
from adjfas.score import FasConfig, find_adjustment_set
from adjfas.selection import (TOL, InfeasibleSelectionError, SolverConvergenceError,
                              build_selection_bn)
from adjfas.sim import SimConfig, generate_world, sample_datasets


def binary_root(p1=0.5):
    return ParamInstantiation({"V": 2}, {"V": ()}, {"V": np.array([1 - p1, p1])})


def selected(params, sbn, target):
    """P(target) in the population the weights solved on ``params`` select."""
    return eliminated_conditional(params, target, tilts=sbn.theta_s)


def chain_net():
    return ParamInstantiation(
        {"V1": 2, "V2": 2}, {"V1": (), "V2": ("V1",)},
        {"V1": np.array([0.6, 0.4]), "V2": np.array([[0.9, 0.1], [0.3, 0.7]])})


def random_params(rng, cards):
    """A random network over ``cards`` (name -> cardinality), parents drawn in key order."""
    nodes = list(cards)
    parents, cpts = {}, {}
    for j, v in enumerate(nodes):
        pa = tuple(nodes[i] for i in range(j) if rng.random() < 0.5)
        parents[v] = pa
        q = int(np.prod([cards[p] for p in pa])) if pa else 1
        d = np.maximum(rng.standard_gamma(1.0, size=(q, cards[v])), 1e-300)
        cpts[v] = (d / d.sum(1, keepdims=True)).reshape(
            tuple(cards[p] for p in pa) + (cards[v],))
    return ParamInstantiation(cards, parents, cpts)


def reachable_marginals(rng, params, chosen):
    """Marginals a selected trial would report under random true weights."""
    tilt = [((v,), rng.uniform(0.2, 1.0, params.cardinalities[v])) for v in chosen]
    marg = {}
    for v in chosen:
        t = product_marginal(params.factors() + tilt, (v,))
        marg[v] = (t / t.sum()).tolist()
    return marg


class TestBuildSelectionBn:
    def test_single_binary_analytic(self):
        sbn = build_selection_bn(binary_root(0.5), {"V": [0.2, 0.8]})
        assert np.allclose(sbn.theta_s["V"], [0.25, 1.0], atol=1e-5)
        assert sbn.solved_residual <= 1e-6

    @pytest.mark.parametrize("params, target", [
        (binary_root(0.5), {"V": [0.2, 0.8]}),
        (binary_root(0.9), {"V": [0.7, 0.3]}),
        (chain_net(), {"V2": [0.25, 0.75]}),
    ])
    def test_one_reported_variable_fits_in_one_sweep(self, params, target):
        # the full step rescales the only marginal onto its target exactly
        sbn = build_selection_bn(params, target)
        assert sbn.sweeps == 1
        assert sbn.solved_residual <= 1e-15

    def test_matching_marginals_give_constant_weights(self):
        sbn = build_selection_bn(binary_root(0.5), {"V": [0.5, 0.5]})
        assert np.allclose(sbn.theta_s["V"], [1.0, 1.0], atol=1e-6)

    def test_exclusion_criterion(self):
        params = binary_root(0.5)
        sbn = build_selection_bn(params, {"V": [0.0, 1.0]})
        assert sbn.theta_s["V"][0] == 0.0
        assert np.allclose(selected(params, sbn, "V"), [0.0, 1.0])

    @pytest.mark.parametrize("target, message", [
        ([np.nan, 1.0], "must be a non-negative vector"),
        ([np.inf, 0.0], "sums to inf, expected 1"),
        ([-0.2, 1.2], "must be a non-negative vector"),
        ([0.5, 0.5 + 2e-9], "sums to 1.0000000020000002, expected 1"),
    ], ids=["nan", "inf", "negative", "sum"])
    def test_malformed_target_rejected_before_any_sweep(self, target, message, monkeypatch):
        # ExperimentSummary's rule, checked before the network is eliminated,
        # so a library caller does not pay the sweep budget for it
        monkeypatch.setattr(selection_module, "_marginal_fn", lambda *a: pytest.fail("swept"))
        with pytest.raises(ValidationError, match=re.escape(f"marginal for 'V' {message}")):
            build_selection_bn(binary_root(0.5), {"V": target})

    def test_target_within_1e_9_of_a_distribution_is_solved(self):
        sbn = build_selection_bn(binary_root(0.5), {"V": [0.2, 0.8 + 5e-10]})
        assert sbn.solved_residual < TOL

    def test_spent_sweep_budget_is_not_converged(self, monkeypatch):
        # two coupled marginals need more than one sweep
        monkeypatch.setattr(selection_module, "MAX_SWEEPS", 1)
        with pytest.raises(SolverConvergenceError, match="did not reach residual 1e-06 in 1 sweeps"):
            build_selection_bn(chain_net(), {"V1": [0.3, 0.7], "V2": [0.5, 0.5]})

    def test_infeasible_unsupported_mass(self):
        degenerate = ParamInstantiation({"V": 2}, {"V": ()}, {"V": np.array([1.0, 0.0])})
        with pytest.raises(InfeasibleSelectionError, match="'V'"):
            build_selection_bn(degenerate, {"V": [0.5, 0.5]})

    def test_infeasible_contradictory_marginals(self):
        # B copies A, so no weights put all of A on 0 and all of B on 1
        copy = ParamInstantiation({"A": 2, "B": 2}, {"A": (), "B": ("A",)},
                                  {"A": np.array([0.5, 0.5]), "B": np.eye(2)})
        with pytest.raises(InfeasibleSelectionError, match="P\\(S=1\\) to zero"):
            build_selection_bn(copy, {"A": [1.0, 0.0], "B": [0.0, 1.0]})

    def test_fallback_raises_the_same_infeasibility(self, monkeypatch):
        monkeypatch.setattr(selection_module, "CELL_BUDGET", 1)
        self.test_infeasible_unsupported_mass()
        self.test_infeasible_contradictory_marginals()

    def test_marginal_preservation_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            params = random_params(rng, {f"N{i}": int(rng.integers(2, 4)) for i in range(n)})
            names = list(params.cpts)
            chosen = [v for v in names if rng.random() < 0.6] or [names[0]]
            marg = reachable_marginals(rng, params, chosen)
            sbn = build_selection_bn(params, marg)
            assert sbn.solved_residual <= 1e-6
            for v in chosen:
                got = selected(params, sbn, v)
                assert np.abs(got - np.asarray(marg[v])).max() <= 1e-6

    def test_joint_solve_reproduces_three_way_targets(self):
        # 3-4 reported variables of cardinality 3 among unreported ones, so
        # the joint over them is a dense table of up to 81 cells; the check is
        # the independent whole-network elimination, not the solver's joint
        rng = np.random.default_rng(11)
        for _ in range(12):
            k = int(rng.integers(3, 5))
            cards = {f"R{i}": 3 for i in range(k)}
            cards.update({f"U{i}": int(rng.integers(2, 4)) for i in range(int(rng.integers(1, 4)))})
            names = list(cards)
            rng.shuffle(names)
            params = random_params(rng, {v: cards[v] for v in names})
            chosen = [v for v in names if v.startswith("R")]
            marg = reachable_marginals(rng, params, chosen)
            sbn = build_selection_bn(params, marg)
            for v in chosen:
                assert np.abs(selected(params, sbn, v) - np.asarray(marg[v])).max() <= TOL

    def test_fallback_gives_the_joint_solution(self, monkeypatch):
        rng = np.random.default_rng(12)
        for _ in range(8):
            n = int(rng.integers(3, 7))
            params = random_params(rng, {f"N{i}": int(rng.integers(2, 4)) for i in range(n)})
            names = list(params.cpts)
            chosen = [v for v in names if rng.random() < 0.7] or [names[0]]
            marg = reachable_marginals(rng, params, chosen)
            joint = build_selection_bn(params, marg)
            with monkeypatch.context() as m:
                m.setattr(selection_module, "CELL_BUDGET", 1)
                fallback = build_selection_bn(params, marg)
            assert fallback.sweeps == joint.sweeps
            for v in chosen:
                np.testing.assert_allclose(fallback.theta_s[v], joint.theta_s[v], rtol=0, atol=1e-12)

    def test_one_elimination_per_solve(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return product_marginal(*args, **kwargs)

        monkeypatch.setattr(selection_module, "product_marginal", counted)
        params = random_params(np.random.default_rng(13), {f"N{i}": 3 for i in range(6)})
        marg = reachable_marginals(np.random.default_rng(14), params, ["N1", "N3", "N4"])
        sbn = build_selection_bn(params, marg)
        assert sbn.sweeps > 1
        assert calls == [("N1", "N3", "N4")]

    def test_scale_invariance(self):
        params = chain_net()
        sbn = build_selection_bn(params, {"V1": [0.3, 0.7]})
        before = selected(params, sbn, "V2")
        sbn.theta_s["V1"] = sbn.theta_s["V1"] * 0.37
        after = selected(params, sbn, "V2")
        assert np.abs(after - before).max() < 1e-10


class TestSelectedConditional:
    def test_no_selection_matches_base(self):
        params = chain_net()
        sbn = build_selection_bn(params, {"V1": [0.6, 0.4]})
        assert np.abs(selected(params, sbn, "V2") - eliminated_conditional(params, "V2")).max() < 1e-6

    def test_constraint_restated(self):
        params = chain_net()
        sbn = build_selection_bn(params, {"V1": [0.3, 0.7]})
        assert np.abs(selected(params, sbn, "V1") - np.array([0.3, 0.7])).max() <= 1e-6

    def test_hand_factorization(self):
        params = chain_net()
        sbn = build_selection_bn(params, {"V1": [0.3, 0.7]})
        want = 0.3 * np.array([0.9, 0.1]) + 0.7 * np.array([0.3, 0.7])
        assert np.abs(selected(params, sbn, "V2") - want).max() < 1e-5


class TestFindAdjustmentSetSelected:
    def _selected_world(self, seed):
        cfg = SimConfig(selection="observed", seed=seed)
        gt = generate_world(cfg, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))))
        table, exp = sample_datasets(gt, cfg, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,))))
        return gt, table, exp

    def test_population_flag_enforced(self):
        # a trial flagged selected must report marginals of table variables
        gt, table, exp = self._selected_world(3)
        for marginals in ({}, {"NOPE": (0.5, 0.5)}):
            with pytest.raises(ValidationError):
                flagged = ExperimentSummary(exp.treatment, exp.outcome, exp.arms, marginals,
                                            population="selected")
                find_adjustment_set(table, flagged, FasConfig(seed=0))

    def test_observed_selection_beats_raw_estimate_in_median(self):
        fas_d, raw_d = [], []
        for rep in range(10):
            gt, table, exp = self._selected_world(100 + rep)
            res = find_adjustment_set(table, exp, FasConfig(seed=rep))
            emp = {a.x_value: tuple(np.array(a.outcome_counts) / a.total) for a in exp.arms}
            raw_d.append(mean_abs_diff(emp, gt))
            if res.estimate is not None:
                fas_d.append(mean_abs_diff(res.estimate, gt))
        assert np.median(fas_d) < np.median(raw_d)

    def test_not_exists_estimate_is_na(self):
        # force the no-set outcome by shrinking the trial to favor nothing...
        # build a summary whose arms contradict every candidate badly
        gt, table, exp = self._selected_world(7)
        from adjfas.data import Arm
        k = exp.n_outcomes
        skew = [0] * k
        skew[0] = 4000
        arms = tuple(Arm(a.x_value, skew) for a in exp.arms)
        contradicting = ExperimentSummary(exp.treatment, exp.outcome, arms,
                                          exp.reported_marginals, population="selected")
        res = find_adjustment_set(table, contradicting, FasConfig(seed=1))
        if res.best.is_not_exists:
            assert res.estimate is None

    def test_no_actual_selection_consistent_with_plain_search(self):
        # flag selected, but reported marginals equal the observational ones
        gt = confounded_world()
        cfg = SimConfig(n_obs=10000, n_per_arm=1000, seed=0)
        table, exp = sample_datasets(gt, cfg, np.random.default_rng(40))
        from adjfas.bayesnet import product_marginal
        t = product_marginal(gt.params.factors(), ("C",))
        marg = {"C": tuple((t / t.sum()).tolist())}
        flagged = ExperimentSummary(exp.treatment, exp.outcome, exp.arms, marg, "selected")
        plain = find_adjustment_set(table, exp, FasConfig(seed=2))
        sel = find_adjustment_set(table, flagged, FasConfig(seed=2))
        assert sel.best == plain.best
        for xv in plain.estimate:
            assert np.abs(np.array(sel.estimate[xv]) - np.array(plain.estimate[xv])).max() < 0.02

    def test_soundness_direction_statistical(self):
        # sets accepted under selection are criterion-valid in the unselected
        # truth; tested on detectable-confounding worlds with selection on the
        # confounder (score-based acceptance errs where signals vanish)
        ok = total = 0
        for rep in range(12):
            rng = np.random.default_rng(500 + rep)
            gt = valid_set_world(rng)
            gt.selection = {"C": rng.uniform(0.2, 1.0, 2)}
            cfg = SimConfig(n_observed=2, n_latent=1, n_obs=10000, n_per_arm=1000,
                            selection="observed", seed=0)
            table, exp = sample_datasets(gt, cfg, np.random.default_rng(600 + rep))
            res = find_adjustment_set(table, exp, FasConfig(seed=rep))
            if res.best.is_not_exists:
                continue
            total += 1
            ok += satisfies_adjustment_criterion(gt.dag, gt.x, gt.y, res.best.z)
        assert total >= 8
        assert ok / total >= 0.7
