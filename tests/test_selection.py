import numpy as np
import pytest

from _oracles import confounded_world, mean_abs_diff, valid_set_world
from adjfas.bayesnet import ParamInstantiation, ZeroEvidenceError, infer_conditional
from adjfas.data import ExperimentSummary, ValidationError
from adjfas.graph import satisfies_adjustment_criterion
from adjfas.score import FasConfig, find_adjustment_set
from adjfas.selection import InfeasibleSelectionError, build_selection_bn, selected_conditional
from adjfas.sim import SimConfig, generate_world, sample_datasets


def binary_root(p1=0.5):
    return ParamInstantiation({"V": 2}, {"V": ()}, {"V": np.array([1 - p1, p1])})


def chain_net():
    return ParamInstantiation(
        {"V1": 2, "V2": 2}, {"V1": (), "V2": ("V1",)},
        {"V1": np.array([0.6, 0.4]), "V2": np.array([[0.9, 0.1], [0.3, 0.7]])})


class TestBuildSelectionBn:
    def test_single_binary_analytic(self):
        sbn = build_selection_bn(binary_root(0.5), {"V": [0.2, 0.8]})
        assert np.allclose(sbn.theta_s["V"], [0.25, 1.0], atol=1e-5)
        assert sbn.solved_residual <= 1e-6

    def test_matching_marginals_give_constant_weights(self):
        sbn = build_selection_bn(binary_root(0.5), {"V": [0.5, 0.5]})
        assert np.allclose(sbn.theta_s["V"], [1.0, 1.0], atol=1e-6)

    def test_exclusion_criterion(self):
        sbn = build_selection_bn(binary_root(0.5), {"V": [0.0, 1.0]})
        assert sbn.theta_s["V"][0] == 0.0
        assert np.allclose(selected_conditional(sbn, "V"), [0.0, 1.0])

    def test_infeasible_unsupported_mass(self):
        degenerate = ParamInstantiation({"V": 2}, {"V": ()}, {"V": np.array([1.0, 0.0])})
        with pytest.raises(InfeasibleSelectionError, match="'V'"):
            build_selection_bn(degenerate, {"V": [0.5, 0.5]})

    def test_marginal_preservation_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            nodes = [f"N{i}" for i in range(n)]
            cards = {v: int(rng.integers(2, 4)) for v in nodes}
            parents, cpts = {}, {}
            for j, v in enumerate(nodes):
                pa = tuple(nodes[i] for i in range(j) if rng.random() < 0.5)
                parents[v] = pa
                q = int(np.prod([cards[p] for p in pa])) if pa else 1
                d = np.maximum(rng.standard_gamma(1.0, size=(q, cards[v])), 1e-300)
                cpts[v] = (d / d.sum(1, keepdims=True)).reshape(
                    tuple(cards[p] for p in pa) + (cards[v],))
            params = ParamInstantiation(cards, parents, cpts)
            # reachable targets: the marginals implied by random true weights
            from adjfas.bayesnet import product_marginal
            chosen = [v for v in nodes if rng.random() < 0.6] or [nodes[0]]
            weights = {v: rng.uniform(0.2, 1.0, cards[v]) for v in chosen}
            tilt = [((w,), weights[w]) for w in chosen]
            marg = {}
            for v in chosen:
                t = product_marginal(params.factors() + tilt, (v,))
                marg[v] = (t / t.sum()).tolist()
            sbn = build_selection_bn(params, marg)
            assert sbn.solved_residual <= 1e-6
            for v in chosen:
                got = selected_conditional(sbn, v)
                assert np.abs(got - np.asarray(marg[v])).max() <= 1e-6

    def test_two_initializations_agree(self):
        params = chain_net()
        targets = {"V1": [0.3, 0.7], "V2": [0.5, 0.5]}
        a = build_selection_bn(params, targets, rng=np.random.default_rng(1))
        b = build_selection_bn(params, targets, rng=np.random.default_rng(2))
        for v in ("V1", "V2"):
            assert np.abs(selected_conditional(a, v) - selected_conditional(b, v)).max() <= 1e-6

    def test_scale_invariance(self):
        sbn = build_selection_bn(chain_net(), {"V1": [0.3, 0.7]})
        before = selected_conditional(sbn, "V2")
        sbn.theta_s["V1"] = sbn.theta_s["V1"] * 0.37
        after = selected_conditional(sbn, "V2")
        assert np.abs(after - before).max() < 1e-10


class TestSelectedConditional:
    def test_no_selection_matches_base(self):
        params = chain_net()
        sbn = build_selection_bn(params, {"V1": [0.6, 0.4]})
        assert np.abs(selected_conditional(sbn, "V2") - infer_conditional(params, "V2")).max() < 1e-6

    def test_constraint_restated(self):
        sbn = build_selection_bn(chain_net(), {"V1": [0.3, 0.7]})
        assert np.abs(selected_conditional(sbn, "V1") - np.array([0.3, 0.7])).max() <= 1e-6

    def test_hand_factorization(self):
        sbn = build_selection_bn(chain_net(), {"V1": [0.3, 0.7]})
        want = 0.3 * np.array([0.9, 0.1]) + 0.7 * np.array([0.3, 0.7])
        assert np.abs(selected_conditional(sbn, "V2") - want).max() < 1e-5

    def test_zero_probability_evidence_flagged(self):
        # V1=0 is an exclusion criterion, so conditioning on it under S=1 is undefined
        sbn = build_selection_bn(chain_net(), {"V1": [0.0, 1.0]})
        with pytest.raises(ZeroEvidenceError):
            selected_conditional(sbn, "V2", {"V1": 0})


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
        arms = tuple(Arm.from_counts(a.x_value, skew) for a in exp.arms)
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
        t = product_marginal(gt.factors(), ("C",))
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
