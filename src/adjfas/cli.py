"""Command-line surface: fas, simulate, benchmark, score.

Every command is fully deterministic given its inputs and flags, --seed
included. Reports are machine-readable first (JSON/CSV) with a console
summary, and every report file is written before the summary is printed.
Exit codes: 0 ok, 2 validation failure or a set no posterior draw can score,
3 infeasible selection model, 4 enumeration refusal, 141 when the reader of
standard output closed it early (the report files stand).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .data import load_experiment, load_observational, save_experiment, save_observational
from .score import (EnumerationLimitError, FasConfig, Hypothesis, NOT_EXISTS, FasResult,
                    ScoringError, find_adjustment_set, hypothesis_entry, prepare_scoring,
                    score_hypotheses)
from .selection import SelectionError
from .sim import (METHODS, SimConfig, run_benchmark, simulate_replicate, write_benchmark_csv,
                  write_benchmark_summary)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_ENUMERATION = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe


def _add_config(p: argparse.ArgumentParser, cls, skip=()) -> None:
    """One ``--flag`` per field of the config dataclass ``cls``, except those
    named in ``skip``: its default and type are the field's, its help and
    choices (and type, where the default is None) the field's metadata."""
    for f in dataclasses.fields(cls):
        if f.name not in skip:
            p.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                           **{"type": type(f.default), **f.metadata})


def _config(cls, args):
    """The ``cls`` config of the parsed flags; a field without a flag keeps its default."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
                  if hasattr(args, f.name)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjfas",
        description="Identify covariate adjustment sets (or certify none exists) from "
                    "observational data plus trial summaries.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fas", help="run the adjustment-set search on data files")
    p.add_argument("obs", help="observational CSV (header row, integer codes)")
    p.add_argument("exp", help="experiment-summary JSON")
    _add_config(p, FasConfig)
    p.add_argument("--out", type=Path, default="fas_report.json", help="output file")

    p = sub.add_parser("simulate", help="generate a ground-truth world and datasets")
    _add_config(p, SimConfig)
    p.add_argument("--out", type=Path, default=".", help="output directory")

    p = sub.add_parser("benchmark", help="replicated evaluation against baselines")
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--methods", type=str, default=",".join(METHODS),
                   help=f"comma list from {{{','.join(METHODS)}}}")
    _add_config(p, SimConfig)
    _add_config(p, FasConfig, skip=("seed", "max_subset_size"))  # --seed is SimConfig's
    p.add_argument("--out", type=Path, default=".", help="output directory")

    p = sub.add_parser("score", help="score one named hypothesis")
    p.add_argument("obs")
    p.add_argument("exp")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--set", dest="zset", type=str, default=None,
                   help="comma-separated adjustment set ('' for the empty set)")
    g.add_argument("--not-exists", action="store_true", help="score the no-set hypothesis")
    _add_config(p, FasConfig, skip=("max_subset_size",))
    p.add_argument("--out", type=Path, default=None, help="output file")

    return parser


def _write_json(doc: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def _print_fas(result: FasResult, out) -> None:
    print(f"population: {result.population}", file=out)
    if result.selection is not None:
        sel = result.selection
        print(f"selection model on {{{','.join(sel.selected_vars)}}}: residual "
              f"{sel.solved_residual:.3g} in {sel.sweeps} sweeps", file=out)
    print(f"candidate pool: {{{','.join(result.pool)}}}" if result.pool else "candidate pool: {}",
          file=out)
    print(f"{'rank':>4}  {'hypothesis':<24} {'log score':>14}", file=out)
    for i, (h, total) in enumerate(result.ranked(), start=1):
        marker = " *" if h == result.best else ""
        print(f"{i:>4}  {h.label():<24} {total:>14.4f}{marker}", file=out)
    if result.estimate is None:
        print("estimate: N/A (no usable adjustment set for the observational population)", file=out)
    else:
        for xv in sorted(result.estimate):
            vec = ", ".join(f"{p:.4f}" for p in result.estimate[xv])
            print(f"estimate P(Y | do(x={xv})): [{vec}]", file=out)


def cmd_fas(args) -> int:
    config = _config(FasConfig, args)
    table = load_observational(args.obs)
    exp = load_experiment(args.exp)
    result = find_adjustment_set(table, exp, config)
    _write_json(result.to_dict(), args.out)
    _print_fas(result, sys.stdout)
    print(f"report written to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    gt, table, exp = simulate_replicate(_config(SimConfig, args), 0)  # replicate 0 of `benchmark`

    args.out.mkdir(parents=True, exist_ok=True)
    gt.dag.save(args.out / "world_graph.json")
    save_observational(table, args.out / "observational.csv")
    save_experiment(exp, args.out / "experiment.json")
    truth = {str(xv): list(vec) for xv, vec in gt.true_id.items()}
    _write_json({"true_interventional": truth,
                 "selection": {v: w.tolist() for v, w in (gt.selection or {}).items()}},
                args.out / "world_truth.json")
    print(f"world and datasets written to {args.out}/")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    methods = tuple(dict.fromkeys(m.strip().upper() for m in args.methods.split(",") if m.strip()))
    report = run_benchmark(_config(SimConfig, args), args.replicates, methods=methods,
                           fas_config=_config(FasConfig, args))
    args.out.mkdir(parents=True, exist_ok=True)
    write_benchmark_csv(report, args.out / "benchmark.csv")
    write_benchmark_summary(report, args.out / "benchmark_summary.json")
    summary = report.summary()
    for m in methods:
        s = summary["methods"][m]
        med = "n/a" if s["delta_median"] is None else f"{s['delta_median']:.4f}"
        print(f"{m:<5} median |dtheta| = {med}  "
              f"(missing {s['missing']}, errors {s['errors']}, "
              f"no-set rate {s['not_exists_rate']:.2f})")
    print(f"reports written to {args.out}/benchmark.csv and {args.out}/benchmark_summary.json")
    return EXIT_OK


def cmd_score(args) -> int:
    config = _config(FasConfig, args)
    table = load_observational(args.obs)
    exp = load_experiment(args.exp)
    if args.not_exists:
        hyp = NOT_EXISTS
    else:
        names = tuple(s.strip() for s in args.zset.split(",") if s.strip())
        hyp = Hypothesis.adjustment(names)

    rec = score_hypotheses(prepare_scoring(table, exp, config), config, hypotheses=[hyp])[hyp]
    if args.out:
        _write_json(hypothesis_entry(hyp, rec), args.out)
    print(f"hypothesis: {hyp.label()}")
    print(f"prior log prob: {rec.prior_log:.6f}")
    for arm, s in zip(exp.arms, rec.arm_scores):
        est = "N/A" if s.id_estimate is None else "[" + ", ".join(f"{p:.4f}" for p in s.id_estimate) + "]"
        print(f"arm x={arm.x_value}: log marginal {s.log_marginal:.6f}  estimate {est}")
    print(f"total log score: {rec.total:.6f}")
    return EXIT_OK


_COMMANDS = {
    "fas": cmd_fas,
    "simulate": cmd_simulate,
    "benchmark": cmd_benchmark,
    "score": cmd_score,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout left early (`| head`); report files are already written
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the exit-time flush stays quiet
        return EXIT_BROKEN_PIPE
    except EnumerationLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ENUMERATION
    except SelectionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ScoringError, ValueError, KeyError, OSError) as e:
        # str() of a KeyError is the repr of its message
        print(f"error: {e.args[0] if isinstance(e, KeyError) else e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
