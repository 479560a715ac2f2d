import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adjfas
from _oracles import confounded_world
from adjfas.cli import main
from adjfas.data import save_experiment, save_observational
from adjfas.sim import SimConfig, sample_datasets


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


class TestFas:
    def test_names_the_confounder(self, g1_files, tmp_path, capsys):
        obs, expf = g1_files
        out = tmp_path / "report.json"
        code = main(["fas", str(obs), str(expf), "--seed", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["best"] == {"not_exists": False, "z": ["C"]}
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
        src = str(Path(adjfas.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "adjfas.cli", "fas", str(obs), str(expf), "--seed", "1",
             "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
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

    def test_selected_without_marginals_exit_2(self, g1_files, tmp_path):
        obs, _ = g1_files
        exp = tmp_path / "sel.json"
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y", "population": "selected",
                                   "arms": [{"x": 0, "counts": [10, 20]}], "marginals": {}}))
        assert main(["fas", str(obs), str(exp)]) == 2

    def test_enumeration_exit_code(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 1500
        x = rng.integers(0, 2, n)
        y = (x ^ (rng.random(n) < 0.1)).astype(int)
        cols = {f"V{i:02d}": (y ^ (rng.random(n) < 0.2)).astype(int) for i in range(17)}
        from adjfas.data import CategoricalTable
        rows = np.column_stack([*cols.values(), x, y])
        t = CategoricalTable((*cols, "X", "Y"), (2,) * 19, rows)
        obs = tmp_path / "wide.csv"
        save_observational(t, obs)
        exp = tmp_path / "e.json"
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y",
                                   "arms": [{"x": 0, "counts": [50, 50]},
                                            {"x": 1, "counts": [40, 60]}]}))
        assert main(["fas", str(obs), str(exp)]) == 4
        assert main(["fas", str(obs), str(exp), "--max-subset-size", "1",
                     "--niters", "20", "--out", str(tmp_path / "capped.json")]) == 0


class TestSimulate:
    def test_outputs_load_back_into_fas(self, tmp_path):
        out = tmp_path / "world"
        assert main(["simulate", "--seed", "3", "--n-obs", "4000", "--n-per-arm", "300",
                     "--out", str(out)]) == 0
        assert main(["fas", str(out / "observational.csv"), str(out / "experiment.json"),
                     "--seed", "1", "--niters", "40",
                     "--out", str(tmp_path / "rep.json")]) == 0

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
        from adjfas.graph import Admg
        g = Admg.load(out / "world_graph.json")
        assert not (g.descendants({"X"}) - {"X", "Y"})


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

    def test_threads_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "t1", tmp_path / "t8"
        for out, threads in ((a, "1"), (b, "8")):
            assert main(["benchmark", "--replicates", "3", "--methods", "FAS,DEXP",
                         "--n-obs", "1200", "--n-per-arm", "150", "--niters", "25",
                         "--seed", "7", "--threads", threads, "--out", str(out)]) == 0
        assert (a / "benchmark.csv").read_bytes() == (b / "benchmark.csv").read_bytes()


class TestSelectionCheck:
    def test_matching_marginals(self, g1_files, tmp_path, capsys):
        obs, _ = g1_files
        exp = tmp_path / "e.json"
        gt = confounded_world()
        from adjfas.bayesnet import product_marginal
        t = product_marginal(gt.factors(), ("C",))
        marg = (t / t.sum()).tolist()
        exp.write_text(json.dumps({"treatment": "X", "outcome": "Y", "population": "selected",
                                   "arms": [{"x": 0, "counts": [10, 10]}],
                                   "marginals": {"C": marg}}))
        out = tmp_path / "sel.json"
        assert main(["selection-check", str(obs), str(exp), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["solved_residual"] < 1e-6
        theta = np.array(doc["theta_s"]["C"])
        assert np.abs(theta - theta.max()).max() < 0.05  # near ratio-1

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
        out = tmp_path / "sel.json"
        assert main(["selection-check", str(obs), str(exp), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
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
        assert main(["selection-check", str(obs), str(exp)]) == 3


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


class TestGlobalBehavior:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
        top = capsys.readouterr().out
        for cmd in ("fas", "simulate", "benchmark", "selection-check", "score"):
            assert cmd in top
        with pytest.raises(SystemExit) as e:
            main(["benchmark", "--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--seed", "--threads", "--niters", "--alpha", "--ess", "--out",
                     "--replicates", "--methods", "--selection", "--mode"):
            assert flag in out

    def test_threads_env_fallback(self, monkeypatch):
        monkeypatch.setenv("ADJFAS_THREADS", "6")
        from adjfas.cli import build_parser
        args = build_parser().parse_args(["benchmark", "--replicates", "1"])
        assert args.threads == 6
        monkeypatch.setenv("ADJFAS_THREADS", "junk")
        args = build_parser().parse_args(["benchmark", "--replicates", "1"])
        assert args.threads == 1
