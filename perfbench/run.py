"""The adjfas benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload wide-pool --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program runs from ``src`` as
separate processes, one at a time (a closed loop with one client). Inputs are
made before the clock starts. The run then repeats whole rounds of the
workload's operations while half another round fits in ``--seconds``, checks
every output with perfbench/checks.py, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` each operation runs once
untraced and once traced (perfbench/trace_hook) and the metrics are per
layer. README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
from worlds import WorldSpec, draw_arms, make_world, read_csv, write_world  # noqa: E402

HERE = Path(__file__).resolve().parent
CLI = "import sys; from adjfas.cli import main; sys.exit(main())"
IMPORT_RUNS = 2  # timed at the start; one more after each round
RUN_DEADLINE_S = 170.0
ALPHA = 0.05  # the CLI default, which the `fas` workloads use

# The observational tables are a fixed panel of (spec, world seed), and the
# world seed is also the program's --seed, so every run asks for the same
# work; the workload seed draws the trial counts and the row order of the
# CSV. The study's worlds come from the program's own simulator, whose only
# input is its --seed, so that seed is fixed too. README.md gives the spreads
# that made these choices. BENCHMARK.json leaves `big-table` out: its CSV
# loading swings with the shared host's load (README.md), so it is run by hand.
FAS_PANELS = {
    "big-table": [(WorldSpec(n_conf=5, n_noise=2, n_rows=1_000_000), s) for s in (105, 106)],
    "wide-pool": [(WorldSpec(n_conf=k, n_noise=2, n_rows=10_000), 200 + k) for k in (7, 8, 9)],
}
STUDY_REPLICATES = 40
STUDY_SEED = 7
STUDY_METHODS = ("FAS", "KL", "DEXP", "VWS")
WORKLOADS = (*FAS_PANELS, "selected-study")

END_TO_END = {"setup_s": "s", "fas_s": "s", "replicates_per_s": "1/s",
              "peak_rss_mb": "MB", "delta_theta_median": "probability"}
PER_LAYER = {
    "data.load_s": "s", "data.load_rows_per_s": "rows/s", "score.pool_s": "s",
    "bayesnet.learn_s": "s", "bayesnet.fit_s": "s", "selection.solve_s": "s",
    "score.score_s": "s", "score.hypothesis_arms_per_s": "1/s",
    "score.hypothesis_arms": "count", "cli.report_s": "s", "sim.world_s": "s",
    "sim.sample_s": "s", "sim.vws_s": "s", "graph.validity_s": "s",
    "trace.unaccounted_s": "s", "trace.overhead_s": "s",
}
# span name -> per-layer self-time metric
SPAN_METRIC = {
    "data.load": "data.load_s", "score.pool": "score.pool_s", "bayesnet.learn": "bayesnet.learn_s",
    "bayesnet.fit": "bayesnet.fit_s", "selection.solve": "selection.solve_s",
    "score.score": "score.score_s", "cli.report": "cli.report_s", "sim.world": "sim.world_s",
    "sim.sample": "sim.sample_s", "sim.vws": "sim.vws_s", "graph.validity": "graph.validity_s",
}
ROOT_SPANS = ("cli.main", "sim.replicate")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass
class Proc:
    ok: bool
    wall: float


class Runner:
    """Starts program processes one at a time and reaps each with its rusage."""

    def __init__(self, root: Path, work: Path, t_start: float):
        self.root, self.work, self.t_start = root, work, t_start
        self.peak_rss_mb = 0.0

    def env(self, traced: bool = False, threads: int | None = None,
            trace_dir: Path | None = None) -> dict:
        env = dict(os.environ)
        paths = [str(self.root / "src")]
        if traced:
            paths.insert(0, str(HERE / "trace_hook"))
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        else:
            env.pop("PERFBENCH_TRACE_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        if threads is not None:
            env["ADJFAS_THREADS"] = str(threads)
        return env

    def run(self, args: list[str], env: dict, name: str) -> Proc:
        budget = RUN_DEADLINE_S - (time.perf_counter() - self.t_start)
        if budget <= 1.0:
            raise TimeoutError("run deadline reached")
        err_path = self.work / f"{name}.stderr"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen([sys.executable, *args], cwd=self.work, env=env,
                                 stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(budget, p.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        rss = usage.ru_maxrss / 1024.0
        cpu = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        log(f"{name}: {wall:.3f} s wall, {cpu:.3f} s cpu, {rss:.0f} MB, exit {p.returncode}")
        if p.returncode != 0:
            log(f"{name}: exit {p.returncode}: {err_path.read_text(errors='replace')[-400:]}")
        return Proc(p.returncode == 0, wall)


def settle(path: Path) -> None:
    """Write a fresh input file back to disk now, not while a search reads it."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# --- span analysis


def load_spans(trace_dir: Path) -> list[list]:
    """Spans of every traced process, with parents re-indexed into one list."""
    spans = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        base = len(spans)
        spans.extend([name, start, end, parent + base if parent >= 0 else -1, search, count]
                     for name, start, end, parent, search, count in json.loads(path.read_text()))
        path.unlink()
    return spans


def per_search(spans: list[list], search_of_process: str) -> dict[str, dict[str, float]]:
    """Self time per layer, and work counts, summed per search.

    Spans outside any replicate belong to the process-level search
    ``search_of_process``; a replicate's spans belong to its number.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, search, count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, search, count) in enumerate(spans):
        key = search_of_process if search < 0 else f"{search_of_process}/r{search}"
        acc = out.setdefault(key, {})
        own = (end - start) - child_time[i]
        if name in ROOT_SPANS:
            acc["trace.unaccounted_s"] = acc.get("trace.unaccounted_s", 0.0) + own
        else:
            metric = SPAN_METRIC[name]
            acc[metric] = acc.get(metric, 0.0) + own
        if name == "data.load":
            acc["rows"] = acc.get("rows", 0) + count
        if name == "score.score":
            acc["score.hypothesis_arms"] = acc.get("score.hypothesis_arms", 0) + count
    for acc in out.values():
        if acc.get("rows"):
            acc["data.load_rows_per_s"] = acc["rows"] / acc["data.load_s"]
        if acc.get("score.hypothesis_arms"):
            acc["score.hypothesis_arms_per_s"] = acc["score.hypothesis_arms"] / acc["score.score_s"]
    return out


# --- workloads


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    walls: list = field(default_factory=list)
    searches: dict = field(default_factory=dict)   # search id -> per-layer values
    overheads: list = field(default_factory=list)  # traced minus untraced, per search

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        log(f"failed ({n} operations): {why}")


class FasWorkload:
    """`adjfas fas` on a fixed panel of worlds, one process per search."""

    def __init__(self, name: str, seed: int, runner: Runner):
        self.runner = runner
        self.worlds = []
        for i, (spec, world_seed) in enumerate(FAS_PANELS[name]):
            world = make_world(spec, world_seed)
            rng = np.random.default_rng([seed, i])
            world.rows = world.rows[rng.permutation(len(world.rows))]
            d = runner.work / f"world{i}"
            d.mkdir()
            write_world(world, draw_arms(world, rng), d / "obs.csv", d / "exp.json")
            for path in (d / "obs.csv", d / "exp.json"):
                settle(path)
            names, rows = read_csv(d / "obs.csv")
            pool, pvals = checks.g2_pool(names, rows, "X", "Y", ALPHA)
            self.worlds.append({
                "dir": d, "truth": world.truth, "fas_seed": world_seed,
                "ctx": {"exp": json.loads((d / "exp.json").read_text()), "pool": pool,
                        "pvals": pvals, "alpha": ALPHA},
            })
            log(f"{name} world {i}: {spec.n_rows} rows, {len(names)} columns, pool {pool}")
        self.deltas: dict[int, float] = {}
        self.good_report = None

    def operations(self):
        return range(len(self.worlds))

    def run_op(self, i: int, tally: Tally, traced: bool, tag: str) -> float | None:
        w = self.worlds[i]
        out = w["dir"] / f"report-{tag}.json"
        trace_dir = self.runner.work / "spans"
        args = ["-c", CLI, "fas", str(w["dir"] / "obs.csv"), str(w["dir"] / "exp.json"),
                "--seed", str(w["fas_seed"]), "--out", str(out)]
        proc = self.runner.run(args, self.runner.env(traced, trace_dir=trace_dir), f"{tag}-w{i}")
        tally.attempted += 1
        if not proc.ok:
            tally.fail(1, f"fas on world {i} exited non-zero")
            return None
        report = json.loads(out.read_text())
        problems = checks.check_fas(report, w["ctx"])
        if problems:
            tally.correct = False
            tally.fail(1, f"world {i}: {problems}")
            return None
        est = report["estimate"]
        self.deltas[i] = float(np.mean(np.concatenate(
            [np.abs(np.asarray(est[str(x)]) - p) for x, p in w["truth"].items()])))
        if self.good_report is None:
            self.good_report = (report, w["ctx"])
        if traced:
            tally.searches.update(per_search(load_spans(trace_dir), tag))
        return proc.wall

    def overhead_per_search(self, traced_wall: float, untraced_wall: float) -> float:
        return traced_wall - untraced_wall

    def selftest(self) -> list[str]:
        return ["no good report"] if self.good_report is None else \
            checks.selftest_fas(*self.good_report)

    def end_to_end(self, tally: Tally) -> dict:
        return {
            "fas_s": statistics.median(tally.walls),
            "replicates_per_s": statistics.median(1.0 / w for w in tally.walls),
            "delta_theta_median": statistics.median(self.deltas.values()),
        }


class StudyWorkload:
    """One `adjfas benchmark --selection observed` process per operation."""

    def __init__(self, name: str, seed: int, runner: Runner):
        self.runner = runner  # the study's seed is STUDY_SEED, whatever the workload seed
        self.ctx = {"replicates": STUDY_REPLICATES, "methods": STUDY_METHODS}
        self.threads = len(os.sched_getaffinity(0))
        self.fas_seconds: list[float] = []
        self.delta = None
        self.good = None

    def operations(self):
        return range(1)

    def run_op(self, i: int, tally: Tally, traced: bool, tag: str) -> float | None:
        out = self.runner.work / f"study-{tag}"
        trace_dir = self.runner.work / "spans"
        args = ["-c", CLI, "benchmark", "--selection", "observed",
                "--methods", ",".join(STUDY_METHODS), "--replicates", str(STUDY_REPLICATES),
                "--seed", str(STUDY_SEED), "--out", str(out)]
        proc = self.runner.run(args, self.runner.env(traced, self.threads, trace_dir), tag)
        n_ops = STUDY_REPLICATES * len(STUDY_METHODS)
        tally.attempted += n_ops
        if not proc.ok:
            tally.fail(n_ops, "benchmark exited non-zero")
            return None
        with open(out / "benchmark.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        summary = json.loads((out / "benchmark_summary.json").read_text())
        problems = checks.check_study(rows, summary, self.ctx)
        if problems:
            tally.correct = False
            tally.fail(n_ops, f"study: {problems}")
            return None
        errors = [r for r in rows if r["error"]]
        if errors:
            tally.fail(len(errors), f"study rows with errors: {[r['error'] for r in errors][:3]}")
        self.fas_seconds += [r["seconds"] for r in summary["per_replicate_seconds"]
                             if r["method"] == "FAS"]
        self.delta = summary["methods"]["FAS"]["delta_median"]
        if self.good is None:
            self.good = (rows, summary)
        if traced:
            searches = per_search(load_spans(trace_dir), tag)
            # replicates may run on worker threads, outside the process root span
            searches.get(tag, {}).pop("trace.unaccounted_s", None)
            tally.searches.update(searches)
        return proc.wall

    def selftest(self) -> list[str]:
        return ["no good study"] if self.good is None else \
            checks.selftest_study(*self.good, self.ctx)

    def end_to_end(self, tally: Tally) -> dict:
        return {
            "fas_s": statistics.median(self.fas_seconds),
            "replicates_per_s": statistics.median(STUDY_REPLICATES / w for w in tally.walls),
            "delta_theta_median": self.delta,
        }

    def overhead_per_search(self, traced_wall: float, untraced_wall: float) -> float:
        return (traced_wall - untraced_wall) / STUDY_REPLICATES


def import_seconds(runner: Runner, tag: str) -> float:
    proc = runner.run(["-c", "import adjfas"], runner.env(), tag)
    if not proc.ok:
        raise RuntimeError("import adjfas failed")
    return proc.wall


def measure(workload, tally: Tally, seconds: float, traced: bool, imports: list) -> None:
    """Whole rounds over the workload's operations while half another round fits.

    So the rounds fill ``seconds`` on average, whatever their length, and a
    run overshoots it by at most half a round.

    Each round ends with one timed ``import adjfas``, so that ``setup_s`` is
    a median over the whole run rather than over its first seconds.
    """
    t0 = time.perf_counter()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        for i in workload.operations():
            tag = f"r{rounds}o{i}"
            wall = workload.run_op(i, tally, False, tag)
            if traced:
                traced_wall = workload.run_op(i, tally, True, tag + "t")
                if wall is not None and traced_wall is not None:
                    tally.overheads.append(workload.overhead_per_search(traced_wall, wall))
            if wall is not None:
                tally.walls.append(wall)
        imports.append(import_seconds(workload.runner, f"import-r{rounds}"))
        rounds += 1
        now = time.perf_counter()
        if now - t0 + (now - r0) / 2 > seconds:
            break
    log(f"{rounds} rounds in {time.perf_counter() - t0:.1f} s")


def layer_metrics(tally: Tally) -> dict:
    out = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_s":
            values = tally.overheads
        else:
            values = [s[metric] for s in tally.searches.values() if metric in s]
        out[metric] = statistics.median(values) if values else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    # a terminated run still kills and reaps its program process (Runner.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "adjfas" / "cli.py").is_file():
        log(f"no adjfas source under {root / 'src'}; run from the root of a checkout")
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    (work / "spans").mkdir()
    try:
        runner = Runner(root, work, t_start)
        import_seconds(runner, "import-warm")  # compiles the bytecode; not timed
        imports = [import_seconds(runner, f"import{k}") for k in range(IMPORT_RUNS)]
        kind = StudyWorkload if args.workload == "selected-study" else FasWorkload
        workload = kind(args.workload, args.seed, runner)
        tally = Tally()
        measure(workload, tally, args.seconds, bool(args.trace), imports)
        if not tally.walls:
            log("no operation succeeded; nothing to measure")
            return 1
        missed = workload.selftest()
        if missed:
            log(f"checks that accepted a corrupted output: {missed}")
            tally.correct = False
        if args.trace:
            values, units = layer_metrics(tally), PER_LAYER
        else:
            values = {"setup_s": statistics.median(imports), "peak_rss_mb": runner.peak_rss_mb,
                      **workload.end_to_end(tally)}
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
