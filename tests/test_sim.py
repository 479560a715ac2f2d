import numpy as np
import pytest

from _oracles import (adjusted_by_enumeration, confounded_world, enumerate_joint,
                      interventional_by_enumeration, make_ground_truth)
from adjfas.graph import Admg
from adjfas.score import FasConfig
from adjfas.sim import (METHODS, SimConfig, delta_theta, generate_world, run_benchmark,
                        sample_datasets, true_interventional, vws_baseline,
                        write_benchmark_csv, write_benchmark_summary)


class TestGenerateWorld:
    def test_minimal_world(self):
        cfg = SimConfig(n_observed=0, n_latent=0, seed=0)
        gt = generate_world(cfg, np.random.default_rng(0))
        assert set(gt.dag.nodes) == {"X", "Y"}
        assert ("X", "Y") in gt.dag.directed_edges

    def test_pretreatment_structure(self):
        cfg = SimConfig(mode="pretreatment", seed=1)
        for rep in range(10):
            gt = generate_world(cfg, np.random.default_rng(rep))
            desc = gt.dag.descendants({"X"}) - {"X", "Y"}
            assert not desc, "covariates must not descend from the treatment"

    def test_x_to_y_path_always_present(self):
        cfg = SimConfig(seed=2)
        for rep in range(20):
            gt = generate_world(cfg, np.random.default_rng(100 + rep))
            assert "Y" in gt.dag.descendants({"X"})

    def test_mean_in_degree(self):
        cfg = SimConfig(seed=3)
        rng = np.random.default_rng(3)
        degs = []
        for _ in range(200):
            gt = generate_world(cfg, rng)
            degs.append(len(gt.dag.directed_edges) / len(gt.dag.nodes))
        assert abs(np.mean(degs) - 2.0) <= 0.2

    def test_determinism(self):
        cfg = SimConfig(selection="observed", seed=4)
        a = generate_world(cfg, np.random.default_rng(77))
        b = generate_world(cfg, np.random.default_rng(77))
        assert a.dag == b.dag
        assert a.true_id == b.true_id
        assert sorted(a.selection) == sorted(b.selection)
        for v in a.selection:
            assert np.array_equal(a.selection[v], b.selection[v])

    def test_selection_attached_with_bounds(self):
        cfg = SimConfig(selection="observed", seed=5)
        gt = generate_world(cfg, np.random.default_rng(5))
        assert gt.selection
        for v, w in gt.selection.items():
            assert v in gt.dag.observed and v not in ("X", "Y")
            assert v not in gt.dag.descendants({"X"})
            assert (w >= 0.2).all() and (w <= 1.0).all()


class TestTrueInterventional:
    def test_unconfounded_equals_cpt_row(self):
        dag = Admg(["X", "Y"], directed=[("X", "Y")])
        cpts = {"X": np.array([0.4, 0.6]), "Y": np.array([[0.8, 0.2], [0.3, 0.7]])}
        gt = make_ground_truth(dag, {"X": 2, "Y": 2}, cpts)
        assert np.allclose(true_interventional(gt, 1), [0.3, 0.7])

    def test_adjustment_cross_check(self):
        gt = confounded_world()
        for xv in (0, 1):
            ti = true_interventional(gt, xv)
            adj = adjusted_by_enumeration(gt, ("C",), xv)
            assert np.abs(ti - adj).max() < 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        cfg = SimConfig(seed=6)
        for rep in range(10):
            gt = generate_world(cfg, rng)
            for xv in range(gt.cardinalities["X"]):
                assert abs(true_interventional(gt, xv).sum() - 1.0) < 1e-12

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        cfg = SimConfig(n_observed=2, n_latent=2, seed=7)
        for rep in range(10):
            gt = generate_world(cfg, rng)
            for xv in range(gt.cardinalities["X"]):
                want = interventional_by_enumeration(gt, xv)
                got = true_interventional(gt, xv)
                assert np.abs(got - want).max() < 1e-12

    def test_state_space_guard(self):
        cfg = SimConfig(n_observed=0, n_latent=0, seed=0)
        gt = generate_world(cfg, np.random.default_rng(0))
        gt.cardinalities = {v: 100000 for v in gt.dag.nodes}
        with pytest.raises(ValueError):
            true_interventional(gt, 0)


class TestSampleDatasets:
    def test_forward_sampling_fidelity(self):
        # empirical joint of 1e6 samples vs the enumerated joint, in total variation
        from _oracles import enumerate_joint
        dag = Admg(["A", "B", "C", "D"],
                   directed=[("A", "B"), ("B", "C"), ("A", "C"), ("C", "D")])
        rng0 = np.random.default_rng(8)
        from _oracles import random_cpts
        cards = {"A": 2, "B": 3, "C": 2, "D": 3}
        cpts = random_cpts(dag, cards, rng0)
        parents = {v: tuple(sorted(dag.parents(v), key=list(dag.nodes).index)) for v in dag.nodes}
        joint = enumerate_joint(list(dag.nodes), cards, parents, cpts)
        gt = make_ground_truth(dag, cards, cpts, x="A", y="D")
        from adjfas.sim import _forward_sample
        cols = _forward_sample(gt, 1_000_000, np.random.default_rng(9))
        emp = np.zeros_like(joint)
        idx = tuple(cols[v] for v in dag.nodes)
        np.add.at(emp, idx, 1.0)
        emp /= emp.sum()
        assert 0.5 * np.abs(emp - joint).sum() < 0.01

    def test_empirical_arms_converge_to_truth(self):
        gt = confounded_world()
        cfg = SimConfig(n_obs=100, n_per_arm=1_000_000, seed=0)
        _, exp = sample_datasets(gt, cfg, np.random.default_rng(10))
        for arm in exp.arms:
            emp = np.array(arm.outcome_counts) / arm.total
            assert np.abs(emp - np.array(gt.true_id[arm.x_value])).max() < 0.01

    def test_selection_changes_reported_marginals(self):
        cfg = SimConfig(selection="observed", seed=11)
        gt = generate_world(cfg, np.random.default_rng(11))
        table, exp = sample_datasets(gt, cfg, np.random.default_rng(12))
        assert exp.population == "selected"
        assert set(gt.selection) <= set(exp.reported_marginals)
        from adjfas.bayesnet import product_marginal
        moved = 0.0
        for v in gt.selection:
            t = product_marginal(gt.factors(), (v,))
            obs = t / t.sum()
            moved = max(moved, np.abs(np.array(exp.reported_marginals[v]) - obs).max())
        assert moved > 1e-4

    def test_acceptance_prob_matches_enumeration(self):
        # P(S=1 | do(X=x)): the mutilated joint weighted by every inclusion mechanism
        from adjfas.sim import _acceptance_prob
        cfg = SimConfig(n_observed=3, n_latent=1, selection="observed", seed=21)
        gt = generate_world(cfg, np.random.default_rng(21))
        nodes = list(gt.dag.nodes)
        parents = {v: gt.parents(v) for v in nodes}
        weight = np.ones([gt.cardinalities[v] for v in nodes])
        for v, w in gt.selection.items():
            shape = [1] * len(nodes)
            shape[nodes.index(v)] = -1
            weight = weight * w.reshape(shape)
        for xv in range(gt.cardinalities[gt.x]):
            point = np.eye(gt.cardinalities[gt.x])[xv]
            cpts = {**gt.cpts, gt.x: np.broadcast_to(point, gt.cpts[gt.x].shape)}
            joint = enumerate_joint(nodes, gt.cardinalities, parents, cpts)
            want = float((joint * weight).sum())
            assert _acceptance_prob(gt, xv) == pytest.approx(want, rel=1e-12)

    def test_latent_mode_hides_all_selected(self):
        cfg = SimConfig(selection="latent", seed=13)
        gt = generate_world(cfg, np.random.default_rng(13))
        table, exp = sample_datasets(gt, cfg, np.random.default_rng(14))
        assert exp.population == "selected"
        assert exp.reported_marginals
        assert not (set(gt.selection) & set(exp.reported_marginals))

    def test_exclusion_category_absent_from_arms(self):
        gt = confounded_world()
        gt.selection = {"C": np.array([0.0, 1.0])}
        cfg = SimConfig(n_obs=100, n_per_arm=500, selection="observed", seed=0)
        rng = np.random.default_rng(15)
        table, exp = sample_datasets(gt, cfg, rng)
        # with C=0 excluded, arm outcomes follow P(Y | x, C=1) exactly
        for arm in exp.arms:
            emp = np.array(arm.outcome_counts) / arm.total
            want = gt.cpts["Y"][1, arm.x_value]
            assert np.abs(emp - want).max() < 0.08

    def test_observational_table_has_no_latents(self):
        cfg = SimConfig(seed=16)
        gt = generate_world(cfg, np.random.default_rng(16))
        table, _ = sample_datasets(gt, cfg, np.random.default_rng(17))
        assert set(table.variable_names) == set(gt.dag.observed)
        assert table.n == cfg.n_obs


class TestDeltaTheta:
    def test_identity(self):
        gt = confounded_world()
        assert delta_theta({k: v for k, v in gt.true_id.items()}, gt) == 0.0

    def test_hand_value(self):
        gt = confounded_world()
        est = {0: (gt.true_id[0][0] + 0.1, gt.true_id[0][1] - 0.1)}
        assert delta_theta(est, gt) == pytest.approx(0.1)

    def test_symmetry(self):
        gt = confounded_world()
        a = {0: (0.6, 0.4)}
        swapped = make_ground_truth(gt.dag, gt.cardinalities, gt.cpts)
        swapped.true_id[0] = (0.6, 0.4)
        d1 = delta_theta(a, gt)
        d2 = delta_theta({0: gt.true_id[0]}, swapped)
        assert d1 == pytest.approx(d2)


class TestVws:
    def test_confounder_selected(self):
        gt = confounded_world()
        assert vws_baseline(gt) == frozenset({"C"})

    def test_mediator_world_empty(self):
        dag = Admg(["X", "M", "Y"], directed=[("X", "M"), ("M", "Y")])
        from _oracles import random_cpts
        cpts = random_cpts(dag, {"X": 2, "M": 2, "Y": 2}, np.random.default_rng(0))
        gt = make_ground_truth(dag, {"X": 2, "M": 2, "Y": 2}, cpts)
        assert vws_baseline(gt) == frozenset()

    def test_latent_cause_excluded(self):
        dag = Admg(["L", "X", "Y"], directed=[("L", "X"), ("L", "Y"), ("X", "Y")],
                   observed=["X", "Y"])
        from _oracles import random_cpts
        cpts = random_cpts(dag, {"L": 2, "X": 2, "Y": 2}, np.random.default_rng(1))
        gt = make_ground_truth(dag, {"L": 2, "X": 2, "Y": 2}, cpts)
        assert vws_baseline(gt) == frozenset()


class TestRunBenchmark:
    def test_shapes_and_determinism(self, tmp_path):
        cfg = SimConfig(n_obs=2000, n_per_arm=200, seed=18)
        fcfg = FasConfig(niters=40)
        r1 = run_benchmark(cfg, 3, methods=("FAS", "DEXP"), fas_config=fcfg)
        r2 = run_benchmark(cfg, 3, methods=("FAS", "DEXP"), fas_config=fcfg)
        assert len(r1.results) == 6
        write_benchmark_csv(r1, tmp_path / "a.csv")
        write_benchmark_csv(r2, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_dexp_consistency_large_arms(self):
        cfg = SimConfig(n_obs=500, n_per_arm=200_000, seed=19)
        rep = run_benchmark(cfg, 3, methods=("DEXP",), fas_config=FasConfig(niters=10))
        med = rep.summary()["methods"]["DEXP"]["delta_median"]
        assert med < 0.005

    def test_summary_matches_rows(self, tmp_path):
        cfg = SimConfig(n_obs=2000, n_per_arm=200, seed=20)
        rep = run_benchmark(cfg, 4, methods=("FAS", "KL", "DEXP", "VWS"),
                            fas_config=FasConfig(niters=30))
        s = rep.summary()
        for m in METHODS:
            rows = [r for r in rep.results if r.method == m]
            deltas = [r.delta for r in rows if r.delta is not None]
            assert s["methods"][m]["n"] == len(rows)
            if deltas:
                assert s["methods"][m]["delta_median"] == pytest.approx(np.median(deltas))
        write_benchmark_summary(rep, tmp_path / "s.json")
        import json
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["replicates"] == 4

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark(SimConfig(seed=0), 1, methods=("NOPE",))


class TestRefusalAndFailureRecording:
    def test_pathological_acceptance_refused(self):
        gt = confounded_world()
        gt.selection = {"C": np.array([1e-9, 1e-9])}
        cfg = SimConfig(n_obs=100, n_per_arm=50, selection="observed", seed=0)
        with pytest.raises(ValueError, match="acceptance probability"):
            sample_datasets(gt, cfg, np.random.default_rng(0))

    def test_replicate_failures_recorded_not_fatal(self, monkeypatch):
        import adjfas.sim as sim_mod

        calls = {"n": 0}
        orig = sim_mod.prepare_scoring

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic failure")
            return orig(*args, **kwargs)

        monkeypatch.setattr(sim_mod, "prepare_scoring", flaky)
        cfg = SimConfig(n_obs=1500, n_per_arm=150, seed=33)
        rep = run_benchmark(cfg, 3, methods=("FAS", "DEXP"), fas_config=FasConfig(niters=20))
        fas_rows = [r for r in rep.results if r.method == "FAS"]
        assert sum(1 for r in fas_rows if r.error) == 1
        assert sum(1 for r in fas_rows if not r.error) == 2
        assert all(not r.error for r in rep.results if r.method == "DEXP")
