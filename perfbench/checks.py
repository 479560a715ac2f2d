"""Output checks that use no adjfas inference or scoring code.

Each check takes the program's output plus what the benchmark knows about the
input and returns a list of problems (empty when the output is right). The
self-test corrupts a good output once per check and confirms that the check
it targets rejects the copy.
"""

from __future__ import annotations

import copy
import math
import statistics
from itertools import product

import numpy as np
from scipy.special import chdtrc

REL_TOL = 1e-9
TIE_TOL = 1e-9  # the program's tie tolerance between hypothesis totals


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def g2_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Marginal G² test of a ⊥ b with (|a|-1)(|b|-1) degrees of freedom."""
    ra, rb = int(a.max()) + 1, int(b.max()) + 1
    counts = np.bincount(a * rb + b, minlength=ra * rb).reshape(ra, rb).astype(float)
    expected = counts.sum(axis=1, keepdims=True) * counts.sum(axis=0, keepdims=True) / counts.sum()
    pos = counts > 0
    g2 = 2.0 * float(np.sum(counts[pos] * np.log(counts[pos] / expected[pos])))
    df = (ra - 1) * (rb - 1)
    return 1.0 if df <= 0 else float(chdtrc(df, g2))


def g2_pool(names, rows: np.ndarray, x: str, y: str, alpha: float = 0.05) -> tuple[list[str], dict]:
    """Columns dependent on both x and y at alpha, in column order, plus all p-values.

    Cardinalities are inferred per column as max code + 1, as the CSV format
    defines them.
    """
    cx, cy = rows[:, names.index(x)], rows[:, names.index(y)]
    pool, pvals = [], {}
    for j, v in enumerate(names):
        if v in (x, y):
            continue
        pvals[v] = (g2_pvalue(rows[:, j], cx), g2_pvalue(rows[:, j], cy))
        if pvals[v][0] < alpha and pvals[v][1] < alpha:
            pool.append(v)
    return pool, pvals


def dirichlet_multinomial_log(counts) -> float:
    """log Γ(k) + Σ log Γ(n_y + 1) − log Γ(N + k): flat-prior sequence likelihood."""
    k, n = len(counts), sum(counts)
    return math.lgamma(k) + sum(math.lgamma(c + 1) for c in counts) - math.lgamma(n + k)


def _is_prob(vec) -> bool:
    return (vec is not None and len(vec) > 0 and all(p >= 0.0 for p in vec)
            and abs(sum(vec) - 1.0) <= REL_TOL)


# --- checks of one `adjfas fas` report; ctx holds exp (the trial JSON),
# pool (the benchmark's own G² pool) and pvals (its p-values)


def check_pool(rep, ctx):
    if rep["pool"] == ctx["pool"]:
        return []
    # a p-value within rounding of alpha may fall either way
    alpha = ctx["alpha"]
    diff = set(rep["pool"]) ^ set(ctx["pool"])
    if all(min(abs(p - alpha) for p in ctx["pvals"][v]) < 1e-9 for v in diff):
        return []
    return [f"pool {rep['pool']} != independent G² pool {ctx['pool']}"]


def check_hypothesis_space(rep, ctx):
    pool = set(rep["pool"])
    hyps = rep["hypotheses"]
    want = 2 ** len(pool) + 1
    out = []
    if len(hyps) != want:
        out.append(f"{len(hyps)} hypotheses, expected 2^{len(pool)}+1 = {want}")
    sets = [frozenset(h["z"]) for h in hyps if not h["not_exists"]]
    if len(sets) != len(hyps) - 1:
        out.append("not exactly one NOT_EXISTS hypothesis")
    if len(set(sets)) != len(sets):
        out.append("repeated subset hypothesis")
    bad = [sorted(s) for s in sets if not s <= pool]
    if bad:
        out.append(f"hypotheses outside the pool: {bad[:3]}")
    return out


def check_prior(rep, ctx):
    want = -math.log(2 ** len(rep["pool"]) + 1)
    bad = [h for h in rep["hypotheses"] if abs(h["prior_log"] - want) > 1e-12]
    return [f"{len(bad)} prior_log values differ from {want}"] if bad else []


def check_totals(rep, ctx):
    bad = [h for h in rep["hypotheses"]
           if not _close(h["total_log_score"], h["prior_log"] + sum(h["arm_log_marginals"]))]
    return [f"{len(bad)} totals differ from prior + arm log marginals"] if bad else []


def _sort_key(h):
    return (1, 0, ()) if h["not_exists"] else (0, len(h["z"]), tuple(sorted(h["z"])))


def check_best_first(rep, ctx):
    """`best` leads the ranking: it is the top total, and among hypotheses
    within TIE_TOL of the top it is the smallest set (then lexicographic),
    which is the program's documented tie rule. The ranking itself orders
    such ties by their last bits, so the first entry may be another member
    of the tie (a FOUND line in CHANGES.md records this)."""
    hyps = rep["hypotheses"]
    top = max(h["total_log_score"] for h in hyps)
    tied = [h for h in hyps if h["total_log_score"] >= top - TIE_TOL]
    want = min(tied, key=_sort_key)
    out = []
    if (want["not_exists"], want["z"]) != (rep["best"]["not_exists"], rep["best"]["z"]):
        out.append(f"best {rep['best']} is not the top-ranked hypothesis {want['z']}")
    if hyps[0] not in tied:
        out.append("first-ranked hypothesis does not have the highest total")
    return out


def check_not_exists(rep, ctx):
    arms = ctx["exp"]["arms"]
    (ne,) = [h for h in rep["hypotheses"] if h["not_exists"]] or [None]
    if ne is None:
        return ["no NOT_EXISTS hypothesis"]
    want = [dirichlet_multinomial_log(a["counts"]) for a in arms]
    got = ne["arm_log_marginals"]
    if len(got) != len(want) or not all(_close(g, w) for g, w in zip(got, want)):
        return [f"NOT_EXISTS arm log marginals {got} != closed form {want}"]
    return []


def check_estimates(rep, ctx):
    out = []
    if rep["estimate"] is not None:
        bad = [x for x, vec in rep["estimate"].items() if not _is_prob(vec)]
        if bad or len(rep["estimate"]) != len(ctx["exp"]["arms"]):
            out.append(f"estimate is not one probability vector per arm (bad arms {bad})")
    n_bad = sum(1 for h in rep["hypotheses"] for vec in h["arm_id_estimates"]
                if vec is not None and not _is_prob(vec))
    if n_bad:
        out.append(f"{n_bad} arm estimates are not probability vectors")
    return out


FAS_CHECKS = {
    "pool": check_pool,
    "hypothesis_space": check_hypothesis_space,
    "prior": check_prior,
    "totals": check_totals,
    "best_first": check_best_first,
    "not_exists": check_not_exists,
    "estimates": check_estimates,
}


def _bump_last_pool(rep):
    rep["pool"] = rep["pool"][:-1] if rep["pool"] else ["ZZ"]


def _bad_subset(rep):
    h = next(h for h in rep["hypotheses"] if not h["not_exists"])
    h["z"] = sorted(h["z"] + ["ZZ"])


def _shift_prior(rep):
    rep["hypotheses"][-1]["prior_log"] -= 0.1


def _shift_total(rep):
    rep["hypotheses"][-1]["total_log_score"] += 0.1


def _demote_best(rep):
    # the lowest-ranked hypothesis moves to the top and becomes `best`
    rep["hypotheses"].insert(0, rep["hypotheses"].pop())
    rep["best"] = {"not_exists": rep["hypotheses"][0]["not_exists"], "z": rep["hypotheses"][0]["z"]}


def _bump_not_exists(rep):
    h = next(h for h in rep["hypotheses"] if h["not_exists"])
    h["arm_log_marginals"][0] += 0.01


def _bad_estimate(rep):
    vec = next(iter(rep["estimate"].values())) if rep["estimate"] else \
        next(v for h in rep["hypotheses"] for v in h["arm_id_estimates"] if v is not None)
    vec[0] += 0.05


FAS_CORRUPTIONS = {
    "pool": _bump_last_pool,
    "hypothesis_space": lambda rep: rep["hypotheses"].pop(),
    "prior": _shift_prior,
    "totals": _shift_total,
    "best_first": _demote_best,
    "not_exists": _bump_not_exists,
    "estimates": _bad_estimate,
}
# a second corruption for the subset rule, which the count rule cannot see
SUBSET_CORRUPTION = ("hypothesis_space", _bad_subset)


def check_fas(rep, ctx) -> list[str]:
    return [f"{name}: {msg}" for name, fn in FAS_CHECKS.items() for msg in fn(rep, ctx)]


# --- checks of one `adjfas benchmark` run: the CSV rows and the JSON summary


def check_study_rows(rows, summary, ctx):
    want = set(product(range(ctx["replicates"]), ctx["methods"]))
    got = [(int(r["replicate"]), r["method"]) for r in rows]
    if len(got) != len(want) or set(got) != want:
        return [f"{len(got)} CSV rows, expected one per replicate x method ({len(want)})"]
    return []


def check_study_medians(rows, summary, ctx):
    out = []
    for m in ctx["methods"]:
        deltas = [float(r["delta_theta"]) for r in rows if r["method"] == m and r["delta_theta"]]
        want = statistics.median(deltas) if deltas else None
        got = summary["methods"][m]["delta_median"]
        if (want is None) != (got is None) or (want is not None and not _close(got, want, 1e-12)):
            out.append(f"{m}: summary delta_median {got} != CSV median {want}")
    return out


STUDY_CHECKS = {"rows": check_study_rows, "medians": check_study_medians}


def _bump_fas_median(rows, summary):
    summary["methods"]["FAS"]["delta_median"] *= 1.01


STUDY_CORRUPTIONS = {
    "rows": lambda rows, summary: rows.pop(),
    "medians": _bump_fas_median,
}


def check_study(rows, summary, ctx) -> list[str]:
    return [f"{name}: {msg}" for name, fn in STUDY_CHECKS.items()
            for msg in fn(rows, summary, ctx)]


# --- self-test


def selftest_fas(rep, ctx) -> list[str]:
    """Names of FAS checks that fail to reject their corrupted copy of ``rep``."""
    missed = []
    cases = list(FAS_CORRUPTIONS.items()) + [SUBSET_CORRUPTION]
    if FAS_CHECKS["pool"](rep, ctx) or not rep["pool"]:
        return ["selftest needs a correct report with a non-empty pool"]
    for name, corrupt in cases:
        bad = copy.deepcopy(rep)
        corrupt(bad)
        if not FAS_CHECKS[name](bad, ctx):
            missed.append(name)
    return missed


def selftest_study(rows, summary, ctx) -> list[str]:
    missed = []
    for name, corrupt in STUDY_CORRUPTIONS.items():
        bad_rows, bad_summary = copy.deepcopy(rows), copy.deepcopy(summary)
        corrupt(bad_rows, bad_summary)
        if not STUDY_CHECKS[name](bad_rows, bad_summary, ctx):
            missed.append(name)
    return missed
