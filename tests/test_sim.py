import multiprocessing
import os

import numpy as np
import pytest

from _oracles import (adjusted_by_enumeration, all_valid_subsets, confounded_world,
                      enumerate_joint, forward_sample_by_argmax, interventional_by_enumeration,
                      make_ground_truth)
from adjfas import bayesnet, sim
from adjfas import selection as selection_module
from adjfas.bayesnet import product_marginal
from adjfas.graph import Dag
from adjfas.score import NOT_EXISTS, FasConfig
from adjfas.sim import (METHODS, BenchmarkReport, SimConfig, _interventional, _is_valid,
                        _run_replicate, delta_theta, generate_world, run_benchmark,
                        sample_datasets, simulate_replicate, vws_baseline, write_benchmark_csv,
                        write_benchmark_summary)


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
        assert ((a.dag.nodes, a.dag.directed_edges, a.dag.observed)
                == (b.dag.nodes, b.dag.directed_edges, b.dag.observed))
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

    def test_cpt_parents_in_node_order(self):
        for mode in ("random", "pretreatment"):
            rng = np.random.default_rng(8)
            for _ in range(10):
                gt = generate_world(SimConfig(mode=mode, seed=8), rng)
                nodes = list(gt.dag.nodes)
                for v in nodes:
                    assert gt.params.parents[v] == tuple(sorted(gt.dag.parents(v), key=nodes.index))

    def test_unsatisfiable_constraints_raise_value_error(self):
        # with next to no edges, X never reaches Y
        cfg = SimConfig(n_observed=0, n_latent=0, mean_in_degree=1e-300, seed=0)
        with pytest.raises(ValueError, match="could not draw a world"):
            generate_world(cfg, np.random.default_rng(0))


class TestTrueInterventional:
    def test_unconfounded_equals_cpt_row(self):
        dag = Dag(["X", "Y"], directed=[("X", "Y")])
        cpts = {"X": np.array([0.4, 0.6]), "Y": np.array([[0.8, 0.2], [0.3, 0.7]])}
        gt = make_ground_truth(dag, {"X": 2, "Y": 2}, cpts)
        assert np.allclose(_interventional(gt.params, "X", "Y")[1], [0.3, 0.7])

    def test_adjustment_cross_check(self):
        gt = confounded_world()
        laws = _interventional(gt.params, gt.x, gt.y)
        for xv in (0, 1):
            adj = adjusted_by_enumeration(gt, ("C",), xv)
            assert np.abs(laws[xv] - adj).max() < 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        cfg = SimConfig(seed=6)
        for rep in range(10):
            gt = generate_world(cfg, rng)
            assert sorted(gt.true_id) == list(range(gt.params.cardinalities["X"]))
            for vec in gt.true_id.values():
                assert abs(sum(vec) - 1.0) < 1e-12

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        cfg = SimConfig(n_observed=2, n_latent=2, seed=7)
        for rep in range(10):
            gt = generate_world(cfg, rng)
            for xv in range(gt.params.cardinalities["X"]):
                want = interventional_by_enumeration(gt, xv)
                got = np.array(gt.true_id[xv])
                assert np.abs(got - want).max() < 1e-12


def tilt_weights(gt):
    """∏_v θ_v over the full joint's axes (the world's nodes), 1 without selection."""
    nodes = list(gt.dag.nodes)
    weight = np.ones([gt.params.cardinalities[v] for v in nodes])
    for v, w in (gt.selection or {}).items():
        shape = [1] * len(nodes)
        shape[nodes.index(v)] = -1
        weight = weight * w.reshape(shape)
    return weight


def tilted_mutilated_joint(gt, x_value):
    """The enumerated joint under do(X = x_value), times every inclusion weight."""
    nodes = list(gt.dag.nodes)
    cards = gt.params.cardinalities
    point = np.eye(cards[gt.x])[x_value]
    cpts = {**gt.params.cpts, gt.x: np.broadcast_to(point, gt.params.cpts[gt.x].shape)}
    return enumerate_joint(nodes, cards, gt.params.parents, cpts) * tilt_weights(gt)


class TestSampleDatasets:
    def test_forward_sampling_fidelity(self):
        # empirical joint of 1e6 samples vs the enumerated joint, in total variation
        from _oracles import enumerate_joint
        dag = Dag(["A", "B", "C", "D"],
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

    @pytest.mark.parametrize("mode", ["random", "pretreatment"])
    @pytest.mark.parametrize("selection", ["none", "observed", "latent"])
    def test_forward_sample_draws_what_the_argmax_sampler_drew(self, mode, selection):
        from adjfas.sim import _forward_sample
        for seed in range(4):
            cfg = SimConfig(mode=mode, selection=selection, seed=seed)
            gt = generate_world(cfg, np.random.default_rng([seed, 1]))
            got_rng, want_rng = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 2])
            got = _forward_sample(gt, 3000, got_rng)
            want = forward_sample_by_argmax(gt, 3000, want_rng)
            assert list(got) == list(want)
            for v in want:
                assert got[v].dtype == np.int64 and np.array_equal(got[v], want[v]), v
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

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
            t = product_marginal(gt.params.factors(), (v,))
            obs = t / t.sum()
            moved = max(moved, np.abs(np.array(exp.reported_marginals[v]) - obs).max())
        assert moved > 1e-4

    def test_acceptance_prob_matches_enumeration(self):
        # row x is P(Y, S=1 | do(X=x)), the mutilated joint weighted by every
        # inclusion mechanism and summed to Y; its total is the acceptance probability
        cfg = SimConfig(n_observed=3, n_latent=1, selection="observed", seed=21)
        gt = generate_world(cfg, np.random.default_rng(21))
        laws = _interventional(gt.params, gt.x, gt.y, tilts=gt.selection)
        assert laws.shape == (gt.params.cardinalities[gt.x], gt.params.cardinalities[gt.y])
        iy = list(gt.dag.nodes).index(gt.y)
        for xv, got in enumerate(laws):
            joint = tilted_mutilated_joint(gt, xv)
            want = joint.sum(axis=tuple(a for a in range(joint.ndim) if a != iy))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_selected_arms_converge_to_tilted_law(self):
        cfg = SimConfig(n_observed=3, n_latent=1, n_obs=100, n_per_arm=1_000_000,
                        selection="observed", seed=24)
        gt = generate_world(cfg, np.random.default_rng(24))
        _, exp = sample_datasets(gt, cfg, np.random.default_rng(25))
        iy = list(gt.dag.nodes).index(gt.y)
        moved = 0.0
        for arm in exp.arms:
            joint = tilted_mutilated_joint(gt, arm.x_value)
            law = joint.sum(axis=tuple(a for a in range(joint.ndim) if a != iy))
            law /= law.sum()  # P(Y | do(x), S=1)
            emp = np.array(arm.outcome_counts) / arm.total
            assert np.abs(emp - law).max() < 0.01
            moved = max(moved, np.abs(law - np.array(gt.true_id[arm.x_value])).max())
        assert moved > 0.01  # selection moves the law, so the test tells the two apart

    def test_reported_marginals_match_tilted_enumeration(self, monkeypatch):
        # latent selection tilts only variables outside the reported set, and
        # a cell budget of 1 takes the per-query fallback
        for mode, budget in [("observed", None), ("latent", None), ("observed", 1), ("latent", 1)]:
            with monkeypatch.context() as m:
                if budget is not None:
                    m.setattr(selection_module, "CELL_BUDGET", budget)
                cfg = SimConfig(n_observed=3, n_latent=1, n_obs=200, n_per_arm=20,
                                selection=mode, seed=22)
                gt = generate_world(cfg, np.random.default_rng(22))
                _, exp = sample_datasets(gt, cfg, np.random.default_rng(23))
            shown = set(gt.selection) & set(exp.reported_marginals)
            assert shown == (set(gt.selection) if mode == "observed" else set())
            nodes = list(gt.dag.nodes)
            joint = enumerate_joint(nodes, gt.params.cardinalities, gt.params.parents,
                                    gt.params.cpts) * tilt_weights(gt)
            joint /= joint.sum()
            for v, reported in exp.reported_marginals.items():
                i = nodes.index(v)
                want = joint.sum(axis=tuple(a for a in range(len(nodes)) if a != i))
                np.testing.assert_allclose(reported, want, rtol=0, atol=1e-12)

    def test_one_elimination_per_trial(self, monkeypatch):
        # one for every arm's P(Y | do(x), S=1), one for every reported marginal
        calls = []

        def counted(*args, **kwargs):
            calls.append(tuple(args[1]))
            return product_marginal(*args, **kwargs)

        cfg = SimConfig(selection="observed", seed=11)
        gt = generate_world(cfg, np.random.default_rng(11))
        for module in (bayesnet, selection_module, sim):
            monkeypatch.setattr(module, "product_marginal", counted)
        _, exp = sample_datasets(gt, cfg, np.random.default_rng(12))
        assert len(exp.reported_marginals) > 1
        assert calls == [(gt.x, gt.y), tuple(sorted(exp.reported_marginals))]

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
            want = gt.params.cpts["Y"][1, arm.x_value]
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
        swapped = make_ground_truth(gt.dag, gt.params.cardinalities, gt.params.cpts)
        swapped.true_id[0] = (0.6, 0.4)
        d1 = delta_theta(a, gt)
        d2 = delta_theta({0: gt.true_id[0]}, swapped)
        assert d1 == pytest.approx(d2)


class TestVws:
    def test_confounder_selected(self):
        gt = confounded_world()
        assert vws_baseline(gt) == frozenset({"C"})

    def test_mediator_world_empty(self):
        dag = Dag(["X", "M", "Y"], directed=[("X", "M"), ("M", "Y")])
        from _oracles import random_cpts
        cpts = random_cpts(dag, {"X": 2, "M": 2, "Y": 2}, np.random.default_rng(0))
        gt = make_ground_truth(dag, {"X": 2, "M": 2, "Y": 2}, cpts)
        assert vws_baseline(gt) == frozenset()

    def test_latent_cause_excluded(self):
        dag = Dag(["L", "X", "Y"], directed=[("L", "X"), ("L", "Y"), ("X", "Y")],
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
                assert s["methods"][m]["delta_median"] == np.median(deltas)
                assert s["methods"][m]["delta_q1"] == np.percentile(deltas, 25)
                assert s["methods"][m]["delta_q3"] == np.percentile(deltas, 75)
        write_benchmark_summary(rep, tmp_path / "s.json")
        import json
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["replicates"] == 4

    def test_rows_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        cfg = SimConfig(n_obs=2000, n_per_arm=200, selection="observed", seed=21)
        fcfg = FasConfig(niters=30)
        n = 4
        runs = {}
        for cpus in ({0, 1}, {0}):  # the pool takes one worker per CPU in the affinity set
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            runs[len(cpus)] = run_benchmark(cfg, n, methods=METHODS, fas_config=fcfg)
            assert multiprocessing.active_children() == []  # the pool is shut down
        serial = BenchmarkReport(cfg, fcfg, METHODS, [
            row for r in range(n) for row in _run_replicate(r, cfg, fcfg, METHODS)])
        csvs = []  # every field of a row but its seconds
        for name, report in (("one", runs[1]), ("two", runs[2]), ("serial", serial)):
            write_benchmark_csv(report, tmp_path / f"{name}.csv")
            csvs.append((tmp_path / f"{name}.csv").read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]
        assert len(csvs[0].splitlines()) == 1 + n * len(METHODS)

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

        # replicates run in worker processes, so a fault fires by replicate
        # (replicate 0's search seed, its trial), not by a per-process call count
        cfg = SimConfig(n_obs=1500, n_per_arm=150, seed=33)
        seed0 = int(np.random.SeedSequence(cfg.seed, spawn_key=(0, 2)).generate_state(1)[0])
        orig = sim_mod.find_adjustment_set

        def flaky(table, exp, config):
            if config.seed == seed0:
                raise RuntimeError("synthetic failure")
            return orig(table, exp, config)

        monkeypatch.setattr(sim_mod, "find_adjustment_set", flaky)
        rep = run_benchmark(cfg, 3, methods=("FAS", "DEXP"), fas_config=FasConfig(niters=20))
        fas_rows = [r for r in rep.results if r.method == "FAS"]
        assert sum(1 for r in fas_rows if r.error) == 1
        assert sum(1 for r in fas_rows if not r.error) == 2
        assert all(not r.error for r in rep.results if r.method == "DEXP")

        # a failure after the search is its method's own row's error
        monkeypatch.setattr(sim_mod, "find_adjustment_set", orig)
        exp0 = simulate_replicate(cfg, 0)[2]
        orig_kl = sim_mod.pick_min_kl

        def flaky_kl(exp, records):
            if exp == exp0:
                raise RuntimeError("synthetic KL failure")
            return orig_kl(exp, records)

        monkeypatch.setattr(sim_mod, "pick_min_kl", flaky_kl)
        fcfg = FasConfig(niters=20)
        rep = run_benchmark(cfg, 2, methods=("FAS", "KL"), fas_config=fcfg)
        monkeypatch.setattr(sim_mod, "pick_min_kl", orig_kl)
        clean = run_benchmark(cfg, 2, methods=("FAS", "KL"), fas_config=fcfg)
        assert [(r.replicate, r.method) for r in rep.results] == \
            [(0, "FAS"), (0, "KL"), (1, "FAS"), (1, "KL")]
        assert rep.results[1].error == "RuntimeError: synthetic KL failure"
        assert (rep.results[1].hypothesis, rep.results[1].delta) == ("", None)
        for got, want in zip(rep.results, clean.results):
            if got is not rep.results[1]:
                assert (got.hypothesis, got.delta, got.criterion_valid, got.error) == \
                    (want.hypothesis, want.delta, want.criterion_valid, want.error)


class TestValidity:
    def test_not_exists_matches_enumeration(self):
        # one criterion test on the canonical set against a test of every subset
        seen = {True: 0, False: 0}
        rng = np.random.default_rng(25)
        for mode in ("random", "pretreatment"):
            for selection in ("none", "observed", "latent"):
                for n_observed in (2, 5, 8):
                    cfg = SimConfig(n_observed=n_observed, mode=mode, selection=selection)
                    for _ in range(17):
                        gt = generate_world(cfg, rng)
                        none_valid = not all_valid_subsets(gt)
                        assert _is_valid(gt, NOT_EXISTS) == none_valid
                        seen[none_valid] += 1
        assert min(seen.values()) >= 100, seen
