import argparse
import dataclasses
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import adjfas
from _oracles import confounded_world
from adjfas import cli
from adjfas.cli import main
from adjfas.data import save_experiment, save_observational
from adjfas.score import FasConfig
from adjfas.sim import SimConfig, sample_datasets, simulate_replicate


def src_env() -> dict:
    """The environment of a child interpreter that imports this checkout's adjfas."""
    src = str(Path(adjfas.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}


@pytest.fixture()
def g1_files(tmp_path):
    """Confounded-world data files where {C} is the expected discovery."""
    gt = confounded_world()
    cfg = SimConfig(n_obs=10000, n_per_arm=1000, seed=0)
    table, exp = sample_datasets(gt, cfg, np.random.default_rng(42))
    obs = tmp_path / "obs.csv"
    expf = tmp_path / "exp.json"
    save_observational(table, obs)
    save_experiment(exp, expf)
    return obs, expf


def wide_table_file(tmp_path):
    """A table whose candidate pool has 17 variables, one past the enumeration limit."""
    rng = np.random.default_rng(0)
    n = 1500
    x = rng.integers(0, 2, n)
    y = (x ^ (rng.random(n) < 0.1)).astype(int)
    cols = {f"V{i:02d}": (y ^ (rng.random(n) < 0.2)).astype(int) for i in range(17)}
    from adjfas.data import CategoricalTable
    rows = np.column_stack([*cols.values(), x, y])
    obs = tmp_path / "wide.csv"
    save_observational(CategoricalTable((*cols, "X", "Y"), (2,) * 19, rows), obs)
    return obs


class ReadRecorder(argparse.Namespace):
    """Parsed arguments that remember which of them were read, once ``reads`` is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


@pytest.fixture(scope="module")
def selected_files(tmp_path_factory):
    """A simulated selected trial whose pool holds a covariate it reports no marginal for."""
    world = tmp_path_factory.mktemp("selworld")
    assert main(["simulate", "--seed", "4", "--selection", "observed", "--out", str(world)]) == 0
    return world / "observational.csv", world / "experiment.json"


class TestFas:
    def test_names_the_confounder(self, g1_files, tmp_path, capsys):
        obs, expf = g1_files
        out = tmp_path / "report.json"
        code = main(["fas", str(obs), str(expf), "--seed", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["best"] == {"not_exists": False, "z": ["C"]}
        assert doc["selection"] is None  # a `same` trial is scored untilted
        printed = capsys.readouterr().out
        assert "{C}" in printed

    def test_rerun_byte_identical(self, g1_files, tmp_path):
        obs, expf = g1_files
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["fas", str(obs), str(expf), "--seed", "5", "--out", str(o1)]) == 0
        assert main(["fas", str(obs), str(expf), "--seed", "5", "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_closed_stdout_keeps_report(self, g1_files, tmp_path):
        # `adjfas fas ... | head`: the reader is gone before the first line
        obs, expf = g1_files
        out = tmp_path / "report.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "adjfas.cli", "fas", str(obs), str(expf), "--seed", "1",
             "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=300)
        proc.stderr.close()
        assert code != 2, err
        assert "Broken pipe" not in err and "Traceback" not in err
        assert json.loads(out.read_text())["best"] == {"not_exists": False, "z": ["C"]}

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("")
        exp = tmp_path / "e.json"
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y",
                                   "arms": [{"x": 0, "counts": [1, 1]}]}))
        assert main(["fas", str(bad), str(exp)]) == 2

    def test_sparse_code_exit_2(self, tmp_path, capsys):
        # a code of 10**12 would make V's count tables hold about 10**12 cells
        obs = tmp_path / "obs.csv"
        obs.write_text("X,Y,V\n1,1,1000000000000\n")
        exp = tmp_path / "e.json"
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y",
                                   "arms": [{"x": 0, "counts": [1, 1]}]}))
        assert main(["fas", str(obs), str(exp), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "V (1000000000001)" in err

    def test_selected_without_marginals_exit_2(self, g1_files, tmp_path):
        obs, _ = g1_files
        exp = tmp_path / "sel.json"
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y", "population": "selected",
                                   "arms": [{"x": 0, "counts": [10, 20]}], "marginals": {}}))
        assert main(["fas", str(obs), str(exp)]) == 2

    def test_enumeration_exit_code(self, tmp_path):
        obs = wide_table_file(tmp_path)
        exp = tmp_path / "e.json"
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y",
                                   "arms": [{"x": 0, "counts": [50, 50]},
                                            {"x": 1, "counts": [40, 60]}]}))
        assert main(["fas", str(obs), str(exp)]) == 4
        assert main(["fas", str(obs), str(exp), "--max-subset-size", "1",
                     "--niters", "20", "--out", str(tmp_path / "capped.json")]) == 0


class TestTrialFile:
    """A trial JSON value of the wrong type exits 2 naming the file and the key."""

    @pytest.mark.parametrize("change, key", [
        ({"arms": 5}, "'arms'"),
        ({"arms": [5]}, "'arms'"),
        ({"arms": [{"x": 0, "counts": 5}]}, "'counts'"),
        ({"marginals": [1, 2]}, "'marginals'"),
        ({"marginals": {"V1": 5}}, "'marginals'"),
        ({"arms": [{"x": None, "counts": [10, 20]}]}, "'x'"),
        ({"arms": [{"x": -1, "counts": [10, 20]}]}, "arm 0: "),
        ({"arms": [{"x": 0, "counts": [-3, 4]}]}, "arm 0: "),
        ({"treatment": None}, "'treatment'"),
        ({"treatment": ["X"]}, "'treatment'"),
        ({"marginals": {"V1": [1.5, -0.5]}}, "marginal for 'V1' must be a non-negative vector"),
        ({"outcome": "X"}, "treatment and outcome must differ"),
        ({"population": "other"}, "population must be 'same' or 'selected', got 'other'"),
        ({"arms": []}, "experiment has no arms"),
        ({"arms": [{"x": 0, "counts": [10, 20]}, {"x": 1, "counts": [1, 2, 3]}]},
         "all arms must report the same number of outcome categories"),
    ])
    def test_fas_rejects(self, tmp_path, capsys, change, key):
        obs = tmp_path / "obs.csv"
        obs.write_text("V1,X,Y\n0,0,0\n1,1,1\n")
        exp = tmp_path / "e.json"
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y",
                                   "arms": [{"x": 0, "counts": [10, 20]}], **change}))
        assert main(["fas", str(obs), str(exp), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {exp}: ") and key in err and err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("{not json", "invalid JSON: "),
        ("[1, 2]", "top-level value must be an object"),
        (json.dumps({"treatment": "X", "outcome": "Y"}), "missing required key 'arms'"),
    ])
    def test_fas_rejects_malformed_file(self, tmp_path, capsys, text, message):
        obs = tmp_path / "obs.csv"
        obs.write_text("V1,X,Y\n0,0,0\n1,1,1\n")
        exp = tmp_path / "e.json"
        exp.write_text(text)
        assert main(["fas", str(obs), str(exp), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {exp}: {message}") and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_selected_marginal_wider_than_its_column(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("V1,X,Y\n0,0,0\n1,1,1\n")
        exp = tmp_path / "e.json"
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y", "population": "selected",
                                   "arms": [{"x": 0, "counts": [10, 20]}],
                                   "marginals": {"V1": [0.2, 0.3, 0.5]}}))
        assert main(["fas", str(obs), str(exp), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            "error: marginal for 'V1' has 3 entries, table cardinality is 2\n")

    def test_unknown_variable_named_without_quotes(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("V1,X,Y\n0,0,0\n1,1,1\n")
        exp = tmp_path / "e.json"
        exp.write_text(json.dumps({"treatment": "Z", "outcome": "Y",
                                   "arms": [{"x": 0, "counts": [10, 20]}]}))
        assert main(["fas", str(obs), str(exp), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == "error: unknown variable 'Z'\n"


class TestSimulate:
    @pytest.mark.parametrize("argv, flag", [
        (["--mean-in-degree", "-1"], "--mean-in-degree"),
        (["--mean-in-degree", "0"], "--mean-in-degree"),
        (["--mean-in-degree", "nan"], "--mean-in-degree"),
        (["--mean-in-degree", "inf"], "--mean-in-degree"),
        (["--n-observed", "0", "--selection", "observed"], "--selection observed"),
        (["--n-observed", "1", "--selection", "latent"], "--selection latent"),
    ])
    def test_bad_world_flags_exit_2(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "world"
        assert main(["simulate", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} ")
        assert not out.exists()

    def test_outputs_load_back_into_fas(self, tmp_path):
        out = tmp_path / "world"
        assert main(["simulate", "--seed", "3", "--n-obs", "4000", "--n-per-arm", "300",
                     "--out", str(out)]) == 0
        assert main(["fas", str(out / "observational.csv"), str(out / "experiment.json"),
                     "--seed", "1", "--niters", "40",
                     "--out", str(tmp_path / "rep.json")]) == 0

    def test_writes_replicate_zero(self, tmp_path):
        # `simulate --seed s` draws what replicate 0 of `benchmark --seed s` scores
        out = tmp_path / "world"
        assert main(["simulate", "--seed", "6", "--selection", "observed", "--n-obs", "500",
                     "--n-per-arm", "50", "--out", str(out)]) == 0
        cfg = SimConfig(n_obs=500, n_per_arm=50, selection="observed", seed=6)
        _, table, exp = simulate_replicate(cfg, 0)
        save_observational(table, tmp_path / "obs.csv")
        save_experiment(exp, tmp_path / "exp.json")
        assert (out / "observational.csv").read_bytes() == (tmp_path / "obs.csv").read_bytes()
        assert (out / "experiment.json").read_bytes() == (tmp_path / "exp.json").read_bytes()

    def test_selection_flagged(self, tmp_path):
        out = tmp_path / "selworld"
        assert main(["simulate", "--seed", "4", "--selection", "observed",
                     "--n-obs", "2000", "--n-per-arm", "200", "--out", str(out)]) == 0
        doc = json.loads((out / "experiment.json").read_text())
        assert doc["population"] == "selected"
        assert doc["marginals"]

    def test_pretreatment_mode_structure(self, tmp_path):
        out = tmp_path / "pre"
        assert main(["simulate", "--seed", "5", "--mode", "pretreatment",
                     "--n-obs", "1000", "--n-per-arm", "100", "--out", str(out)]) == 0
        doc = json.loads((out / "world_graph.json").read_text())
        desc, frontier = set(), {"X"}
        while frontier:
            frontier = {w for u, w in doc["directed"] if u in frontier} - desc
            desc |= frontier
        assert "Y" in desc
        assert not (desc - {"X", "Y"})


class TestBenchmark:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["benchmark", "--replicates", "5", "--methods", "FAS,DEXP",
                     "--n-obs", "1500", "--n-per-arm", "150", "--niters", "25",
                     "--seed", "2", "--out", str(out)]) == 0
        lines = (out / "benchmark.csv").read_text().strip().splitlines()
        assert len(lines) == 11  # header + 5 replicates x 2 methods
        summary = json.loads((out / "benchmark_summary.json").read_text())
        assert set(summary["methods"]) == {"FAS", "DEXP"}

    def test_summary_medians_match_csv(self, tmp_path):
        import csv as csvmod
        out = tmp_path / "bench2"
        assert main(["benchmark", "--replicates", "4", "--methods", "DEXP",
                     "--n-obs", "1000", "--n-per-arm", "200",
                     "--seed", "3", "--out", str(out)]) == 0
        with open(out / "benchmark.csv") as f:
            rows = list(csvmod.DictReader(f))
        deltas = [float(r["delta_theta"]) for r in rows if r["delta_theta"]]
        summary = json.loads((out / "benchmark_summary.json").read_text())
        assert summary["methods"]["DEXP"]["delta_median"] == pytest.approx(np.median(deltas))

    def test_repeated_method_runs_and_prints_once(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["benchmark", "--methods", "DEXP,dexp", "--replicates", "2",
                     "--n-obs", "300", "--n-per-arm", "30", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in printed[:-1]] == ["DEXP"]
        assert len((out / "benchmark.csv").read_text().strip().splitlines()) == 3

    @pytest.mark.parametrize("argv, message", [
        (["--methods", ","], "--methods names no method"),
        (["--replicates", "0"], "--replicates must be at least 1, got 0"),
    ])
    def test_empty_run_exit_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "bench"
        assert main(["benchmark", *argv, "--n-obs", "300", "--n-per-arm", "30",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def proc_state(pid) -> tuple[str, int] | None:
    """(state letter, parent pid) of a process from /proc, None once it is gone."""
    try:
        state, ppid = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def is_alive(pid) -> bool:
    st = proc_state(pid)
    return st is not None and st[0] not in "ZX"  # a zombie is dead, just not yet reaped


def live_children(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        st = proc_state(entry.name) if entry.name.isdigit() else None
        if st is not None and st[1] == pid and st[0] not in "ZX":
            found.append(int(entry.name))
    return found


class TestBenchmarkWorkers:
    def test_raising_replicate_ends_the_run(self, tmp_path, capsys, monkeypatch):
        import adjfas.sim as sim_mod

        started = tmp_path / "started"  # one line per world drawn, from any process
        orig = sim_mod.generate_world

        def logged(cfg, rng):
            with open(started, "a") as f:
                f.write(f"{os.getpid()}\n")
            return orig(cfg, rng)

        monkeypatch.setattr(sim_mod, "generate_world", logged)
        out = tmp_path / "bench"
        assert main(["benchmark", "--n-observed", "0", "--n-latent", "0",
                     "--mean-in-degree", "1e-300", "--replicates", "40", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: could not draw a world satisfying the structural constraints; "
            "try a larger --mean-in-degree\n")
        assert not out.exists()
        assert multiprocessing.active_children() == []
        # a first round on every worker, and at most one more each taken from
        # the pool's queue before the kill that the first failure sends; the
        # calls still queued die with the workers, they do not run out
        workers = min(len(os.sched_getaffinity(0)), 40)
        assert 1 <= len(started.read_text().split()) <= 2 * workers

    def test_workers_die_with_a_killed_benchmark(self, tmp_path):
        code = "import sys; from adjfas.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "benchmark", "--methods", "DEXP", "--replicates", "2000",
             "--n-obs", "300", "--n-per-arm", "30", "--out", str(tmp_path)],
            env=src_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        workers: list[int] = []
        try:
            want = min(len(os.sched_getaffinity(0)), 2000)
            deadline = time.monotonic() + 60
            while len(workers) < want and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = live_children(proc.pid)
            assert len(workers) == want, "the benchmark never started its workers"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
            deadline = time.monotonic() + 10
            while any(map(is_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [w for w in workers if is_alive(w)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for w in workers:
                if is_alive(w):
                    os.kill(w, signal.SIGKILL)


class TestSelectionCheck:
    """The solved selection model a `fas` report carries in its `selection` block."""

    def test_matching_marginals(self, g1_files, tmp_path, capsys):
        obs, _ = g1_files
        exp = tmp_path / "e.json"
        gt = confounded_world()
        from adjfas.bayesnet import product_marginal
        t = product_marginal(gt.params.factors(), ("C",))
        marg = (t / t.sum()).tolist()
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y", "population": "selected",
                                   "arms": [{"x": 0, "counts": [10, 10]}],
                                   "marginals": {"C": marg}}))
        out = tmp_path / "fas.json"
        assert main(["fas", str(obs), str(exp), "--niters", "10", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())["selection"]
        assert doc["selected_vars"] == ["C"]
        assert doc["solved_residual"] < 1e-6
        assert doc["sweeps"] >= 1
        assert f"in {doc['sweeps']} sweeps" in capsys.readouterr().out
        theta = np.array(doc["theta_s"]["C"])
        assert np.abs(theta - theta.max()).max() < 0.05  # near ratio-1
        assert doc["marginals"]["C"]["reported"] == marg
        np.testing.assert_allclose(doc["marginals"]["C"]["reproduced"], marg, rtol=0, atol=1e-6)

    def test_analytic_single_binary(self, tmp_path):
        rng = np.random.default_rng(8)
        v = rng.integers(0, 2, 20000)
        x = rng.integers(0, 2, 20000)
        y = ((x + v) % 2).astype(int)
        from adjfas.data import CategoricalTable
        table = CategoricalTable(("V", "X", "Y"), (2, 2, 2), np.column_stack([v, x, y]))
        obs = tmp_path / "o.csv"
        save_observational(table, obs)
        exp = tmp_path / "e.json"
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y", "population": "selected",
                                   "arms": [{"x": 0, "counts": [10, 10]}],
                                   "marginals": {"V": [0.2, 0.8]}}))
        out = tmp_path / "fas.json"
        assert main(["fas", str(obs), str(exp), "--niters", "10", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())["selection"]
        assert np.allclose(doc["theta_s"]["V"], [0.25, 1.0], atol=0.01)

    def test_infeasible_exit_3(self, tmp_path):
        # category V=1 never occurs in the data, but the trial reports mass on it
        from adjfas.data import CategoricalTable
        rng = np.random.default_rng(0)
        v = rng.choice([0, 2], 2000)
        rows = np.column_stack([v, rng.integers(0, 2, 2000), rng.integers(0, 2, 2000)])
        table = CategoricalTable(("V", "X", "Y"), (3, 2, 2), rows)
        obs = tmp_path / "o.csv"
        save_observational(table, obs)
        exp = tmp_path / "e.json"
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y", "population": "selected",
                                   "arms": [{"x": 0, "counts": [10, 10]}],
                                   "marginals": {"V": [0.3, 0.2, 0.5]}}))
        out = tmp_path / "fas.json"
        assert main(["fas", str(obs), str(exp), "--out", str(out)]) == 3
        assert not out.exists()

    def test_annihilating_weights_exit_2(self, selected_files, tmp_path, monkeypatch, capsys):
        from adjfas import score as score_module
        obs, expf = selected_files
        solve = score_module.build_selection_bn

        def annihilating(*a, **k):  # inclusion weights that select no one
            sbn = solve(*a, **k)
            return dataclasses.replace(sbn, theta_s={v: 0 * t for v, t in sbn.theta_s.items()})

        monkeypatch.setattr(score_module, "build_selection_bn", annihilating)
        out = tmp_path / "fas.json"
        assert main(["fas", str(obs), str(expf), "--niters", "10", "--out", str(out)]) == 2
        assert "selection weights annihilate the whole distribution" in capsys.readouterr().err
        assert not out.exists()

    def test_reports_the_model_fas_scores_with(self, selected_files, tmp_path, monkeypatch):
        from adjfas import score as score_module
        obs, expf = selected_files
        built = []
        solve = score_module.build_selection_bn
        monkeypatch.setattr(score_module, "build_selection_bn",
                            lambda *a, **k: built.append(solve(*a, **k)) or built[-1])
        out = tmp_path / "fas.json"
        assert main(["fas", str(obs), str(expf), "--seed", "1", "--niters", "20",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        reported = json.loads(expf.read_text())["marginals"]
        # the pool holds a covariate without a reported marginal, so a network
        # over only the reported variables differs from the one fas learns
        assert set(doc["pool"]) - set(reported)
        assert len(built) == 1
        theta = doc["selection"]["theta_s"]
        assert sorted(theta) == list(built[0].selected_vars) == sorted(reported)
        for v in theta:
            np.testing.assert_allclose(theta[v], built[0].theta_s[v], rtol=0, atol=0)
        assert doc["selection"]["solved_residual"] < 1e-6

    def test_enumeration_exit_code(self, tmp_path):
        # fas refuses the 17-variable pool, but with --max-subset-size 0 it
        # scores only the empty set and NOT_EXISTS and still solves the model
        obs = wide_table_file(tmp_path)
        exp = tmp_path / "e.json"
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y", "population": "selected",
                                   "arms": [{"x": 0, "counts": [50, 50]}],
                                   "marginals": {"V00": [0.5, 0.5]}}))
        out = tmp_path / "fas.json"
        assert main(["fas", str(obs), str(exp), "--out", str(out)]) == 4
        assert main(["fas", str(obs), str(exp), "--max-subset-size", "0", "--niters", "10",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["pool"]) == 17 and len(doc["hypotheses"]) == 2
        sel = doc["selection"]
        assert sel["solved_residual"] < 1e-6
        assert np.abs(np.array(sel["marginals"]["V00"]["reproduced"]) - 0.5).max() < 1e-6
        assert len(sel["theta_s"]["V00"]) == 2 and max(sel["theta_s"]["V00"]) == 1.0


class TestScoreCommand:
    def test_single_hypothesis(self, g1_files, capsys):
        obs, expf = g1_files
        assert main(["score", str(obs), str(expf), "--set", "C", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "total log score" in out

    def test_not_exists(self, g1_files, capsys):
        obs, expf = g1_files
        assert main(["score", str(obs), str(expf), "--not-exists"]) == 0
        assert "NOT_EXISTS" in capsys.readouterr().out

    def test_outside_pool_exit_2(self, g1_files):
        obs, expf = g1_files
        assert main(["score", str(obs), str(expf), "--set", "NOPE"]) == 2

    def test_one_set_on_a_pool_too_large_to_enumerate(self, tmp_path):
        # score checks its one set against the pool; only fas enumerates and refuses
        obs = wide_table_file(tmp_path)
        exp = tmp_path / "e.json"
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y",
                                   "arms": [{"x": 0, "counts": [50, 50]},
                                            {"x": 1, "counts": [40, 60]}]}))
        assert main(["score", str(obs), str(exp), "--set", "V00", "--niters", "20"]) == 0
        assert main(["fas", str(obs), str(exp)]) == 4

    def test_selected_trial_matches_fas(self, selected_files, tmp_path):
        # both commands score a selected trial in the same reweighted population
        obs, expf = selected_files
        fas_out, score_out = tmp_path / "fas.json", tmp_path / "score.json"
        common = ["--seed", "1", "--niters", "20"]
        assert main(["fas", str(obs), str(expf), *common, "--out", str(fas_out)]) == 0
        doc = json.loads(fas_out.read_text())
        pool = sorted(doc["pool"])
        want = next(h for h in doc["hypotheses"] if h["z"] == pool)
        assert main(["score", str(obs), str(expf), "--set", ",".join(pool), *common,
                     "--out", str(score_out)]) == 0
        got = json.loads(score_out.read_text())
        assert set(got) == set(want)  # score writes the entry fas lists
        assert got["z"] == want["z"] and got["prior_log"] == want["prior_log"]
        assert got["total_log_score"] == pytest.approx(want["total_log_score"], rel=0, abs=1e-9)
        np.testing.assert_allclose(got["arm_log_marginals"], want["arm_log_marginals"],
                                   rtol=0, atol=1e-9)


    def test_set_scored_as_its_class_representative(self, tmp_path):
        # score runs only the set's representative, as fas does for every member
        world = tmp_path / "world"
        assert main(["simulate", "--seed", "42", "--out", str(world)]) == 0
        obs, expf = world / "observational.csv", world / "experiment.json"
        fas_out, score_out = tmp_path / "fas.json", tmp_path / "score.json"
        common = ["--seed", "1", "--niters", "20"]
        assert main(["fas", str(obs), str(expf), *common, "--out", str(fas_out)]) == 0
        doc = json.loads(fas_out.read_text())
        want = next(h for h in doc["hypotheses"]
                    if not h["not_exists"] and h["representative"] != h["z"])
        assert set(want["representative"]) < set(want["z"])
        assert main(["score", str(obs), str(expf), "--set", ",".join(want["z"]), *common,
                     "--out", str(score_out)]) == 0
        got = json.loads(score_out.read_text())
        assert got["z"] == want["z"] and got["representative"] == want["representative"]
        np.testing.assert_allclose(got["arm_log_marginals"], want["arm_log_marginals"],
                                   rtol=0, atol=1e-12)


def degenerate_files(tmp_path):
    """50 rows of near-copies scored under a vanishing BDeu prior: every posterior
    draw of {V1,V2,V3} is degenerate for arm x=0."""
    rng = np.random.default_rng(2)
    cols = [rng.integers(0, 3, 50)]
    for _ in range(5):
        c = rng.integers(0, 3, 50)
        cols.append(np.where(rng.random(50) < 0.85, cols[int(rng.integers(len(cols)))], c))
    from adjfas.data import CategoricalTable
    obs, expf = tmp_path / "obs.csv", tmp_path / "exp.json"
    save_observational(CategoricalTable(("V0", "V1", "V2", "V3", "X", "Y"), (3,) * 6,
                                        np.column_stack(cols)), obs)
    expf.write_text(json.dumps({"treatment": "X", "outcome": "Y",
                                "arms": [{"x": x, "counts": [10, 10, 10]} for x in range(3)]}))
    return obs, expf


class TestErrorExits:
    @pytest.mark.parametrize("argv", [["fas"], ["score", "--set", "V1,V2,V3"]])
    def test_degenerate_set_exit_2(self, tmp_path, capsys, argv):
        obs, expf = degenerate_files(tmp_path)
        code = main([argv[0], str(obs), str(expf), *argv[1:], "--ess", "1e-12",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: every sampling iteration degenerate for arm x=0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", [n for n in adjfas.__all__
                                      if isinstance(getattr(adjfas, n), type)
                                      and issubclass(getattr(adjfas, n), Exception)])
    def test_every_exported_error_has_an_exit_code(self, monkeypatch, capsys, name):
        cls = getattr(adjfas, name)

        def raise_it(args):
            raise cls("boom")

        monkeypatch.setitem(cli._COMMANDS, "fas", raise_it)
        assert main(["fas", "obs.csv", "exp.json"]) in (2, 3, 4)
        assert capsys.readouterr().err == "error: boom\n"


class TestModelFlags:
    """Out-of-range model flags exit 2 with a message naming the flag."""

    @pytest.mark.parametrize("flag, value", [
        ("--ess", "0"), ("--ess", "nan"), ("--ess", "-1"), ("--ess", "inf"),
        ("--alpha", "1.5"), ("--alpha", "-0.1"), ("--alpha", "0"), ("--alpha", "1"),
        ("--niters", "0"), ("--max-subset-size", "-1"), ("--seed", "-1"),
    ])
    def test_fas_rejects(self, g1_files, tmp_path, capsys, flag, value):
        obs, expf = g1_files
        out = tmp_path / "report.json"
        assert main(["fas", str(obs), str(expf), flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must") and "Traceback" not in err
        assert not out.exists()

    def test_every_model_command_rejects(self, g1_files, tmp_path, capsys):
        obs, expf = map(str, g1_files)
        world = ["--n-observed", "2", "--n-latent", "1", "--n-obs", "300", "--n-per-arm", "30"]
        bench = ["benchmark", "--replicates", "1", *world]
        for message, argv in (
                ("--ess must", ["score", obs, expf, "--set", "C", "--ess", "0"]),
                ("--alpha must", ["score", obs, expf, "--set", "C", "--alpha", "1.5"]),
                ("--niters must", [*bench, "--niters", "0"]),
                ("--seed must", ["simulate", *world, "--seed", "-1"]),
                ("--seed must", [*bench, "--seed", "-1"]),
                ("--n-obs must be at least 1, got 0", ["simulate", *world, "--n-obs", "0"]),
                ("--n-per-arm must be at least 1, got 0", [*bench, "--n-per-arm", "0"]),
                ("--n-observed must be at least 0, got -1",
                 ["simulate", *world, "--n-observed", "-1"]),
                ("--n-latent must be at least 0, got -1", [*bench, "--n-latent", "-1"])):
            assert main([*argv, "--out", str(tmp_path / argv[0])]) == 2, argv
            assert capsys.readouterr().err.startswith(f"error: {message}"), argv
            assert not (tmp_path / argv[0]).exists()


class TestGlobalBehavior:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
        top = capsys.readouterr().out
        assert "{fas,simulate,benchmark,score}" in top
        with pytest.raises(SystemExit) as e:
            main(["benchmark", "--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--seed", "--niters", "--alpha", "--ess", "--out",
                     "--replicates", "--methods", "--selection", "--mode"):
            assert flag in out
        assert "--threads" not in out

    @pytest.mark.parametrize("argv", [["fas", "o.csv", "e.json"],
                                      ["score", "o.csv", "e.json", "--not-exists"],
                                      ["simulate"], ["benchmark"]])
    def test_flag_defaults_are_the_config_defaults(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert cli._config(FasConfig, args) == FasConfig()
        assert cli._config(SimConfig, args) == SimConfig()
        for cls in (FasConfig, SimConfig):
            for f in dataclasses.fields(cls):
                if hasattr(args, f.name):
                    assert type(getattr(args, f.name)) is type(f.default), (argv[0], f.name)

    def test_help_shows_each_config_help_and_choice(self, capsys):
        texts = {}
        for command in ("fas", "benchmark"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            texts[command] = " ".join(capsys.readouterr().out.split())  # undo the line wrapping
        for f in dataclasses.fields(FasConfig):
            assert f.metadata["help"] in texts["fas"]
            if f.name != "max_subset_size":
                assert f.metadata["help"] in texts["benchmark"]
        assert "--mode {random,pretreatment}" in texts["benchmark"]
        assert "--selection {none,observed,latent}" in texts["benchmark"]

    def test_every_listed_flag_is_read(self, g1_files, tmp_path):
        # each command's --help lists only flags its command function reads
        obs, expf = map(str, g1_files)
        world = ["--n-observed", "2", "--n-latent", "1", "--n-obs", "300", "--n-per-arm", "30"]
        runs = {
            "fas": ["fas", obs, expf, "--niters", "5"],
            "score": ["score", obs, expf, "--set", "C", "--niters", "5"],
            "simulate": ["simulate", *world],
            "benchmark": ["benchmark", "--replicates", "1", "--methods", "DEXP", *world],
        }
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert set(runs) == set(commands) == set(cli._COMMANDS)
        for name, argv in runs.items():
            args = parser.parse_args([*argv, "--out", str(tmp_path / name)],
                                     namespace=ReadRecorder())
            args.reads = set()
            assert cli._COMMANDS[name](args) == 0
            flags = {a.dest for a in commands[name]._actions
                     if a.option_strings and a.dest != "help"}
            assert flags <= args.reads, f"{name} never reads {sorted(flags - args.reads)}"

    def test_readme_lists_every_command_and_flag(self):
        # README's "Each command takes only the flags it reads" list, one
        # bullet per command: the command in backticks, then its flags
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("Each command takes only the flags it reads:", 1)[1]
        section = section.split("\n\n", 2)[1]
        listed = {}
        for bullet in section.split("\n- "):
            command, *rest = re.findall(r"`([^`]+)`", bullet)
            listed[command] = {f for f in rest if f.startswith("--")}
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        actual = {name: {o for a in p._actions for o in a.option_strings
                         if o.startswith("--") and o != "--help"}
                  for name, p in commands.items()}
        assert listed == actual

    def test_unread_flags_are_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        text = capsys.readouterr().out
        assert not [flag for flag in ("--niters", "--alpha", "--ess") if flag in text]
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--niters", "3"])
        assert e.value.code == 2
        # the selection model is a block of the fas report, not a command
        with pytest.raises(SystemExit) as e:
            main(["selection-check", "obs.csv", "exp.json"])
        assert e.value.code == 2
        assert "invalid choice: 'selection-check'" in capsys.readouterr().err

    def test_import_leaves_scipy_unloaded(self):
        # the runtime needs numpy only; scipy serves the tests as a reference
        code = ("import sys, adjfas, adjfas.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_leaves_the_process_pool_unloaded(self):
        # only `benchmark` runs a pool; importing it would slow every command's start-up
        code = ("import sys, adjfas, adjfas.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
