"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The heavy benchmark runs are shared through module-scoped fixtures.
"""

import math
import sys
import time
from itertools import combinations

import numpy as np
import pytest
from scipy.special import gammaln

from _oracles import (adjusted_by_enumeration, all_valid_subsets, conditional_from_joint,
                      enumerate_joint, latent_confounder_world, mean_abs_diff)
from adjfas.bayesnet import ParamInstantiation, fit_posterior, infer_conditional
from adjfas.cli import main as cli_main
from adjfas.data import Arm, CategoricalTable
from adjfas.graph import Admg
from adjfas.score import (FasConfig, pick_best, pick_min_kl, prepare_scoring,
                          score_exp_arm, score_hypotheses, score_not_exists)
from adjfas.selection import build_selection_bn, selected_conditional
from adjfas.sim import SimConfig, run_benchmark, sample_datasets


def report(criterion: str, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.stderr, flush=True)
    return ok


@pytest.fixture(scope="module")
def bench_no_selection():
    cfg = SimConfig(selection="none", n_obs=10000, n_per_arm=500, seed=42)
    return run_benchmark(cfg, 20, methods=("FAS", "DEXP"), fas_config=FasConfig(niters=100))


@pytest.fixture(scope="module")
def bench_observed_selection():
    cfg = SimConfig(selection="observed", n_obs=10000, n_per_arm=500, seed=55)
    return run_benchmark(cfg, 20, methods=("FAS", "DEXP"), fas_config=FasConfig(niters=100))


@pytest.fixture(scope="module")
def bench_latent_pair():
    none = run_benchmark(SimConfig(selection="none", n_per_arm=5000, seed=231), 50,
                         methods=("FAS",), fas_config=FasConfig(niters=100))
    latent = run_benchmark(SimConfig(selection="latent", n_per_arm=5000, seed=231), 50,
                           methods=("FAS",), fas_config=FasConfig(niters=100))
    return none, latent


def dm_log(alpha, counts):
    alpha = np.asarray(alpha, dtype=float)
    counts = np.asarray(counts, dtype=float)
    return float(gammaln(alpha.sum()) - gammaln(alpha).sum()
                 + gammaln(alpha + counts).sum() - gammaln(alpha.sum() + counts.sum()))


def test_criterion_1_closed_form_consistency():
    """Z=∅ on an X→Y net: Monte-Carlo log marginal vs analytic value, 10 posteriors."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for rep in range(10):
        n = int(rng.integers(200, 2000))
        ky = int(rng.integers(2, 4))
        x = rng.integers(0, 2, n)
        y = rng.integers(0, ky, n)
        table = CategoricalTable(("X", "Y"), (2, ky), np.column_stack([x, y]))
        post = fit_posterior(Admg(["X", "Y"], directed=[("X", "Y")]), table, 1.0)
        xv = int(rng.integers(0, 2))
        counts = rng.multinomial(int(rng.integers(20, 60)), np.ones(ky) / ky)
        arm = Arm.from_counts(xv, counts.tolist())
        sc = score_exp_arm("X", "Y", (), post, arm, 100000, np.random.default_rng(100 + rep))
        exact = dm_log(post.alpha["Y"][xv], arm.outcome_counts)
        worst = max(worst, abs(sc.log_marginal - exact) / abs(exact))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.01 and elapsed < 60
    assert report("1", ok, f"max relative error {worst:.2e} over 10 posteriors, {elapsed:.1f}s"), worst


def test_criterion_2_inference_oracle():
    """Variable elimination equals full-joint enumeration on 50 random networks."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        nodes = [f"N{i}" for i in range(n)]
        cards = {v: int(rng.integers(2, 4)) for v in nodes}
        parents, cpts = {}, {}
        for j, v in enumerate(nodes):
            pa = tuple(nodes[i] for i in range(j) if rng.random() < 0.4)
            parents[v] = pa
            q = int(np.prod([cards[p] for p in pa])) if pa else 1
            d = np.maximum(rng.standard_gamma(1.0, size=(q, cards[v])), 1e-300)
            cpts[v] = (d / d.sum(1, keepdims=True)).reshape(
                tuple(cards[p] for p in pa) + (cards[v],))
        params = ParamInstantiation(cards, parents, cpts)
        joint = enumerate_joint(nodes, cards, parents, cpts)
        target = nodes[int(rng.integers(n))]
        ev_vars = [v for v in nodes if v != target and rng.random() < 0.3]
        evidence = {v: int(rng.integers(cards[v])) for v in ev_vars}
        want = conditional_from_joint(joint, nodes, target, evidence)
        got = infer_conditional(params, target, evidence)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60
    assert report("2", ok, f"max deviation {worst:.2e} over 50 networks, {elapsed:.1f}s"), worst


def test_criterion_3_adjustment_criterion_oracle():
    """Accepted sets reproduce the truth exactly; rejected sets generically violate."""
    from adjfas.sim import generate_world
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    cfg = SimConfig(n_observed=2, n_latent=2, seed=0)
    worst_accept = 0.0
    rejected = violating = 0
    for _ in range(100):
        gt = generate_world(cfg, rng)
        covs = sorted(set(gt.dag.observed) - {"X", "Y"})
        valid = set(all_valid_subsets(gt))
        for size in range(len(covs) + 1):
            for z in combinations(covs, size):
                est = {xv: tuple(adjusted_by_enumeration(gt, z, xv).tolist())
                       for xv in range(gt.cardinalities["X"])}
                err = mean_abs_diff(est, gt)
                if frozenset(z) in valid:
                    worst_accept = max(worst_accept, err)
                else:
                    rejected += 1
                    violating += err > 1e-6
    elapsed = time.perf_counter() - t0
    frac = violating / rejected
    ok = worst_accept <= 1e-9 and frac >= 0.95 and elapsed < 120
    assert report("3", ok, f"accepted max |adj - ID| {worst_accept:.2e}; "
                           f"rejected violating {violating}/{rejected} = {frac:.3f}; {elapsed:.1f}s")


def test_criterion_4_closed_form_values():
    """Hand-computed Dirichlet-multinomial values for counts (1,1) and (2,0)."""
    v11 = score_not_exists(Arm.from_counts(0, [1, 1]))
    v20 = score_not_exists(Arm.from_counts(0, [2, 0]))
    e11 = abs(v11 - math.log(1 / 6))
    e20 = abs(v20 - math.log(1 / 3))
    ok = e11 <= 1e-12 and e20 <= 1e-12
    assert report("4", ok, f"log-space errors {e11:.2e} and {e20:.2e}")


def test_criterion_5_benchmark_no_selection(bench_no_selection):
    """No-selection benchmark: error vs the raw trial estimate, pick validity.

    The validity clause is known-unattainable for this world distribution and
    the test is expected red: in half these random worlds some
    criterion-REJECTED subset approximates the true interventional
    distribution to ~1e-3 (verified by exact enumeration), and telling such a
    set apart from a truly valid one would need on the order of 1e6 samples
    per arm, not 500 — the likelihood ratio between them is O(N·bias^2) ≈
    5e-4 nats. The search's picks are near-optimal numerically (the error
    clause passes with ~2x margin); only the graphical accounting fails.
    """
    s = bench_no_selection.summary()["methods"]
    med_fas, med_dexp = s["FAS"]["delta_median"], s["DEXP"]["delta_median"]
    fas_rows = [r for r in bench_no_selection.results if r.method == "FAS"]
    validity = sum(1 for r in fas_rows if r.criterion_valid) / len(fas_rows)
    delta_ok = med_fas <= med_dexp + 0.01
    validity_ok = validity >= 0.70
    ok = delta_ok and validity_ok
    report("5", ok, f"median |dtheta| FAS {med_fas:.4f} vs DEXP {med_dexp:.4f} "
                    f"(clause {'PASS' if delta_ok else 'FAIL'}); "
                    f"valid-or-correct-H_ne {validity:.2f} >= 0.70 "
                    f"(clause {'PASS' if validity_ok else 'FAIL: see docstring'})")
    assert delta_ok
    assert validity_ok, (
        f"validity {validity:.2f} < 0.70: statistically unattainable at 500 samples/arm "
        "for this world distribution; see this test's docstring for the analysis")


def test_criterion_6_benchmark_observed_selection(bench_observed_selection):
    """Fig. 3(b) analogue: the corrected estimate beats the raw trial estimate."""
    s = bench_observed_selection.summary()["methods"]
    med_fas, med_dexp = s["FAS"]["delta_median"], s["DEXP"]["delta_median"]
    ok = med_fas < med_dexp
    assert report("6", ok, f"median |dtheta| FAS {med_fas:.4f} < raw trial {med_dexp:.4f}")


def test_criterion_7_not_exists_detection():
    """Latent-confounded worlds: the search declines to adjust; KL cannot."""
    t0 = time.perf_counter()
    fas_ne = kl_ne = 0
    reps = 20
    for rep in range(reps):
        rng = np.random.default_rng(7000 + rep)
        gt = latent_confounder_world(rng)
        cfg = SimConfig(n_obs=10000, n_per_arm=5000, seed=0)
        table, exp = sample_datasets(gt, cfg, np.random.default_rng(7500 + rep))
        fcfg = FasConfig(seed=rep)
        prep = prepare_scoring(table, exp, fcfg)
        records = score_hypotheses(prep, fcfg)
        fas_ne += pick_best(records).is_not_exists
        kl_ne += pick_min_kl(exp, records).is_not_exists
    elapsed = time.perf_counter() - t0
    ok = fas_ne / reps >= 0.70 and kl_ne == 0
    assert report("7", ok, f"search H_ne {fas_ne}/{reps}, KL H_ne {kl_ne}/{reps}; {elapsed:.1f}s")


def test_criterion_8_latent_selection_conservatism(bench_latent_pair):
    """Latent selection at least doubles the no-set frequency (and is nonzero)."""
    none, latent = bench_latent_pair
    f_none = none.summary()["methods"]["FAS"]["not_exists_rate"]
    f_latent = latent.summary()["methods"]["FAS"]["not_exists_rate"]
    ok = f_latent >= 2 * f_none and f_latent > 0
    assert report("8", ok, f"H_ne frequency {f_latent:.2f} under latent selection "
                           f"vs {f_none:.2f} without")


def test_criterion_9_selection_solver():
    """Residuals, initialization equivalence, and the analytic binary case."""
    from adjfas.bayesnet import product_marginal
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst_resid = 0.0
    for _ in range(50):
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
        chosen = [v for v in nodes if rng.random() < 0.6] or [nodes[0]]
        weights = {v: rng.uniform(0.2, 1.0, cards[v]) for v in chosen}
        tilt = [((w,), weights[w]) for w in chosen]
        targets = {}
        for v in chosen:
            t = product_marginal(params.factors() + tilt, (v,))
            targets[v] = (t / t.sum()).tolist()
        sbn = build_selection_bn(params, targets)
        worst_resid = max(worst_resid, sbn.solved_residual)

    # initialization equivalence on a fixed instance
    params = ParamInstantiation(
        {"V1": 2, "V2": 2}, {"V1": (), "V2": ("V1",)},
        {"V1": np.array([0.6, 0.4]), "V2": np.array([[0.9, 0.1], [0.3, 0.7]])})
    targets = {"V1": [0.3, 0.7], "V2": [0.45, 0.55]}
    a = build_selection_bn(params, targets, rng=np.random.default_rng(1))
    b = build_selection_bn(params, targets, rng=np.random.default_rng(2))
    init_gap = max(float(np.abs(selected_conditional(a, v) - selected_conditional(b, v)).max())
                   for v in ("V1", "V2"))

    single = ParamInstantiation({"V": 2}, {"V": ()}, {"V": np.array([0.5, 0.5])})
    theta = build_selection_bn(single, {"V": [0.2, 0.8]}).theta_s["V"]
    analytic_gap = float(np.abs(theta - np.array([0.25, 1.0])).max())
    elapsed = time.perf_counter() - t0

    ok = worst_resid <= 1e-6 and init_gap <= 1e-6 and analytic_gap <= 1e-4
    assert report("9", ok, f"max residual {worst_resid:.2e}; init agreement {init_gap:.2e}; "
                           f"analytic theta gap {analytic_gap:.2e}; {elapsed:.1f}s")


def test_criterion_10_thread_determinism(tmp_path):
    """benchmark --replicates 5 --seed 7 run twice yields byte-identical CSV."""
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli_main(["benchmark", "--replicates", "5", "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append((out / "benchmark.csv").read_bytes())
    ok = outs[0] == outs[1]
    assert report("10", ok, f"CSV bytes equal: {ok} ({len(outs[0])} bytes)")
