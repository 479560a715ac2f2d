"""Command-line surface: fas, simulate, benchmark, selection-check, score.

Every command honors --seed with full determinism; reports are
machine-readable first (JSON/CSV) with a console summary, and every report
file is written before the summary is printed. Exit codes: 0 ok, 2 validation
failure, 3 infeasible selection model, 4 enumeration refusal, 141 when the
reader of standard output closed it early (the report files stand).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (ParseError, SchemaError, ValidationError, load_experiment,
                   load_observational, save_experiment, save_observational)
from .score import (EnumerationLimitError, FasConfig, Hypothesis, NOT_EXISTS, FasResult,
                    find_adjustment_set, prepare_scoring, score_hypotheses)
from .selection import SelectionError, selected_conditional
from .sim import (METHODS, SimConfig, generate_world, run_benchmark, sample_datasets,
                  write_benchmark_csv, write_benchmark_summary)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_ENUMERATION = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--niters", type=int, default=100, help="sampling iterations per hypothesis/arm")
    p.add_argument("--alpha", type=float, default=0.05, help="significance for pool membership")
    p.add_argument("--ess", type=float, default=1.0, help="equivalent sample size of the BDeu prior")
    p.add_argument("--out", type=str, default=None, help="output file or directory")


def _fas_config(args) -> FasConfig:
    return FasConfig(alpha=args.alpha, niters=args.niters, ess=args.ess, seed=args.seed,
                     max_subset_size=getattr(args, "max_subset_size", None))


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
    p.add_argument("--max-subset-size", type=int, default=None,
                   help="cap on candidate subset size (required for pools over 16 variables)")
    _add_common(p)

    p = sub.add_parser("simulate", help="generate a ground-truth world and datasets")
    p.add_argument("--n-observed", type=int, default=6)
    p.add_argument("--n-latent", type=int, default=4)
    p.add_argument("--mean-in-degree", type=float, default=2.0)
    p.add_argument("--n-obs", type=int, default=10000)
    p.add_argument("--n-per-arm", type=int, default=500)
    p.add_argument("--mode", choices=("random", "pretreatment"), default="random")
    p.add_argument("--selection", choices=("none", "observed", "latent"), default="none")
    _add_common(p)

    p = sub.add_parser("benchmark", help="replicated evaluation against baselines")
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--methods", type=str, default="FAS,KL,DEXP,VWS",
                   help=f"comma list from {{{','.join(METHODS)}}}")
    p.add_argument("--n-observed", type=int, default=6)
    p.add_argument("--n-latent", type=int, default=4)
    p.add_argument("--mean-in-degree", type=float, default=2.0)
    p.add_argument("--n-obs", type=int, default=10000)
    p.add_argument("--n-per-arm", type=int, default=500)
    p.add_argument("--mode", choices=("random", "pretreatment"), default="random")
    p.add_argument("--selection", choices=("none", "observed", "latent"), default="none")
    _add_common(p)

    p = sub.add_parser("selection-check", help="solve and report the selection model only")
    p.add_argument("obs")
    p.add_argument("exp")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)

    p = sub.add_parser("score", help="score one named hypothesis")
    p.add_argument("obs")
    p.add_argument("exp")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--set", dest="zset", type=str, default=None,
                   help="comma-separated adjustment set ('' for the empty set)")
    g.add_argument("--not-exists", action="store_true", help="score the no-set hypothesis")
    _add_common(p)

    return parser


def _write_json(doc: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def _print_fas(result: FasResult, out) -> None:
    print(f"population: {result.population}", file=out)
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
    table = load_observational(args.obs)
    exp = load_experiment(args.exp)
    result = find_adjustment_set(table, exp, _fas_config(args))
    out = Path(args.out) if args.out else Path("fas_report.json")
    _write_json(result.to_dict(), out)
    _print_fas(result, sys.stdout)
    print(f"report written to {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = SimConfig(n_observed=args.n_observed, n_latent=args.n_latent,
                    mean_in_degree=args.mean_in_degree, n_obs=args.n_obs,
                    n_per_arm=args.n_per_arm, mode=args.mode, selection=args.selection,
                    seed=args.seed)
    world_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, 0)))
    gt = generate_world(cfg, world_rng)
    data_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, 1)))
    table, exp = sample_datasets(gt, cfg, data_rng)

    outdir = Path(args.out) if args.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    gt.dag.save(outdir / "world_graph.json")
    save_observational(table, outdir / "observational.csv")
    save_experiment(exp, outdir / "experiment.json")
    truth = {str(xv): list(vec) for xv, vec in gt.true_id.items()}
    _write_json({"true_interventional": truth,
                 "selection": {v: w.tolist() for v, w in (gt.selection or {}).items()}},
                outdir / "world_truth.json")
    print(f"world and datasets written to {outdir}/")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    methods = tuple(m.strip().upper() for m in args.methods.split(",") if m.strip())
    cfg = SimConfig(n_observed=args.n_observed, n_latent=args.n_latent,
                    mean_in_degree=args.mean_in_degree, n_obs=args.n_obs,
                    n_per_arm=args.n_per_arm, mode=args.mode, selection=args.selection,
                    seed=args.seed)
    report = run_benchmark(cfg, args.replicates, methods=methods,
                           fas_config=_fas_config(args))
    outdir = Path(args.out) if args.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    write_benchmark_csv(report, outdir / "benchmark.csv")
    write_benchmark_summary(report, outdir / "benchmark_summary.json")
    summary = report.summary()
    for m in methods:
        s = summary["methods"][m]
        med = "n/a" if s["delta_median"] is None else f"{s['delta_median']:.4f}"
        print(f"{m:<5} median |dtheta| = {med}  "
              f"(missing {s['missing']}, errors {s['errors']}, "
              f"no-set rate {s['not_exists_rate']:.2f})")
    print(f"reports written to {outdir}/benchmark.csv and {outdir}/benchmark_summary.json")
    return EXIT_OK


def cmd_selection_check(args) -> int:
    table = load_observational(args.obs)
    # the model `fas` scores with, read as a selected trial whatever its flag
    exp = dataclasses.replace(load_experiment(args.exp), population="selected")
    config = FasConfig(alpha=args.alpha, niters=args.niters, ess=args.ess, seed=args.seed,
                       selection_tol=args.tol)
    sbn = prepare_scoring(table, exp, config).selection

    inferred = {v: selected_conditional(sbn, v).tolist() for v in sbn.selected_vars}
    doc = sbn.to_dict()
    doc["inferred_selected_marginals"] = inferred
    doc["reported_marginals"] = {v: list(p) for v, p in exp.reported_marginals.items()}
    out = Path(args.out) if args.out else Path("selection_report.json")
    _write_json(doc, out)
    print(f"solved selection model: residual {sbn.solved_residual:.3g}")
    for v in sbn.selected_vars:
        vec = ", ".join(f"{w:.4f}" for w in sbn.theta_s[v])
        print(f"  theta[{v}] = [{vec}]")
    print(f"report written to {out}")
    return EXIT_OK


def cmd_score(args) -> int:
    table = load_observational(args.obs)
    exp = load_experiment(args.exp)
    config = _fas_config(args)
    if args.not_exists:
        hyp = NOT_EXISTS
    else:
        names = tuple(s.strip() for s in args.zset.split(",") if s.strip())
        hyp = Hypothesis.adjustment(names)

    prep = prepare_scoring(table, exp, config)
    if not hyp.is_not_exists and not hyp.z <= set(prep.pool):
        raise ValidationError(
            f"hypothesis {hyp.label()} is not a subset of the candidate pool "
            f"{{{','.join(prep.pool)}}}")
    records = score_hypotheses(prep, config, hypotheses=[hyp])
    rec = records[hyp]
    if args.out:
        _write_json({
            "hypothesis": hyp.label(),
            "prior_log": rec.prior_log,
            "arm_log_marginals": [s.log_marginal for s in rec.arm_scores],
            "total_log_score": rec.total,
        }, Path(args.out))
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
    "selection-check": cmd_selection_check,
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
    except (ParseError, SchemaError, ValidationError, ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
