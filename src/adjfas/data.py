"""Discrete observational tables and trial summaries.

Observational data is a matrix of dense integer category codes with a declared
cardinality per column. Trial results arrive as per-arm outcome counts plus
optionally published covariate marginals. Both types validate their invariants
at construction and are immutable afterwards; loading and saving round-trip
bit-exactly.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np


class ParseError(ValueError):
    """Unreadable or malformed input file."""


class SchemaError(ValueError):
    """Input disagrees with a declared or inferred schema."""


class ValidationError(ValueError):
    """Structurally readable input violating a semantic invariant."""


MARGINAL_SUM_TOL = 1e-6
# Largest count tensor, in cells, that ``contingency_counts`` builds: the G²
# test holds about four float64 arrays of that size.
MAX_COUNT_CELLS = 1 << 26
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class CategoricalTable:
    """N x |V| matrix of category codes, one cardinality per variable."""

    variable_names: tuple[str, ...]
    cardinalities: tuple[int, ...]
    rows: np.ndarray

    def __post_init__(self):
        names = tuple(self.variable_names)
        cards = tuple(int(c) for c in self.cardinalities)
        rows = np.asarray(self.rows)
        if rows.dtype.kind not in "biu":  # float (or other) codes must be exact integers
            codes = np.asarray(rows, dtype=float)
            bad = ~(np.isfinite(codes) & (codes == np.round(codes)))
            if bad.any():
                raise SchemaError(f"category code {float(codes[bad][0])} is not an integer")
        rows = rows.astype(np.int64, copy=False)
        if rows.ndim != 2:
            rows = rows.reshape(-1, len(names))
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "cardinalities", cards)
        object.__setattr__(self, "rows", rows)

        if len(set(names)) != len(names):
            raise ValidationError("variable names must be unique")
        if any(not n or "\x00" in n for n in names):
            raise ValidationError("variable names must be non-empty and printable")
        if len(names) != len(cards) or rows.shape[1] != len(names):
            raise ValidationError("variable_names, cardinalities and row width must agree")
        if any(c < 1 for c in cards):
            raise ValidationError("cardinalities must be positive")
        if rows.size:
            if rows.min() < 0:
                raise SchemaError("negative category code")
            over = rows.max(axis=0) >= np.asarray(cards)
            if over.any():
                j = int(np.argmax(over))
                raise SchemaError(
                    f"column {names[j]!r} holds code {int(rows[:, j].max())}, "
                    f"cardinality is {cards[j]}")
        rows.setflags(write=False)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def index(self, var: str) -> int:
        try:
            return self.variable_names.index(var)
        except ValueError:
            raise KeyError(f"unknown variable {var!r}") from None

    def cardinality(self, var: str) -> int:
        return self.cardinalities[self.index(var)]

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """The table's distinct rows and how many times each occurs, built on
        first use: the sufficient statistics every count is taken from.

        Each row gets a mixed-radix code, one digit per column, and one
        ``np.unique`` counts the codes. When the next digit would overflow
        int64 (wide tables), the codes so far are first renumbered densely;
        a column whose own cardinality still does not fit is renumbered too.
        The distinct rows are read back off the unique codes and held column by
        column (Fortran order), so each count reads contiguous columns.
        """
        code = np.zeros(self.n, dtype=np.int64)
        radix, undo = 1, []  # undo: how to read the columns back off a code
        for col, card in zip(self.rows.T, self.cardinalities):
            if radix * card > _INT64_MAX:
                seen, code = np.unique(code, return_inverse=True)
                radix = len(seen)
                undo.append(seen)
            values = None
            if radix * card > _INT64_MAX:
                values, col = np.unique(col, return_inverse=True)
                card = len(values)
            code = code * card + col
            radix *= card
            undo.append((card, values))
        code, counts = np.unique(code, return_counts=True)
        cols = []
        for step in reversed(undo):
            if isinstance(step, tuple):
                card, values = step
                code, col = np.divmod(code, card)
                cols.append(col if values is None else values[col])
            else:
                code = step[code]
        rows = np.stack(cols[::-1]).T if cols else np.zeros((len(counts), 0), np.int64)
        rows.setflags(write=False)
        counts.setflags(write=False)
        return rows, counts

    def restrict(self, vars: Iterable[str]) -> "CategoricalTable":
        """Project onto a subset of variables, keeping this table's column order."""
        keep = set(vars)
        unknown = keep - set(self.variable_names)
        if unknown:
            raise KeyError(f"unknown variables: {sorted(unknown)}")
        idx = [i for i, v in enumerate(self.variable_names) if v in keep]
        return CategoricalTable(
            tuple(self.variable_names[i] for i in idx),
            tuple(self.cardinalities[i] for i in idx),
            self.rows[:, idx])


@dataclass(frozen=True)
class Arm:
    """One trial arm: outcome counts under treatment value x."""

    x_value: int
    outcome_counts: tuple[int, ...]

    def __post_init__(self):
        values = (self.x_value, *self.outcome_counts)
        if not all(isinstance(v, (int, np.integer)) or float(v).is_integer() for v in values):
            raise ValidationError(f"arm x value and outcome counts must be integers, got {values}")
        object.__setattr__(self, "x_value", int(self.x_value))
        object.__setattr__(self, "outcome_counts", tuple(int(c) for c in self.outcome_counts))
        if self.x_value < 0:
            raise ValidationError("arm x value must be a non-negative code")
        if not self.outcome_counts:
            raise ValidationError("arm has no outcome counts")
        if any(c < 0 for c in self.outcome_counts):
            raise ValidationError("outcome counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.outcome_counts)

    @property
    def frequencies(self) -> tuple[float, ...]:
        """Observed outcome frequencies; uniform for an arm with no units."""
        if self.total == 0:
            return (1.0 / len(self.outcome_counts),) * len(self.outcome_counts)
        return tuple(c / self.total for c in self.outcome_counts)


def check_marginal(var: str, vec: Sequence[float]) -> None:
    """A reported marginal is a non-empty, non-negative vector summing to 1
    within 1e-9; a NaN or infinite entry fails too."""
    if not len(vec) or not all(p >= 0 for p in vec):
        raise ValidationError(f"marginal for {var!r} must be a non-negative vector")
    if not abs(sum(vec) - 1.0) <= 1e-9:
        raise ValidationError(f"marginal for {var!r} sums to {sum(vec)}, expected 1")


@dataclass(frozen=True)
class ExperimentSummary:
    """Summary-level trial data: arms, reported covariate marginals, population flag."""

    treatment: str
    outcome: str
    arms: tuple[Arm, ...]
    reported_marginals: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    population: str = "same"

    def __post_init__(self):
        object.__setattr__(self, "arms", tuple(self.arms))
        object.__setattr__(self, "reported_marginals",
                           {k: tuple(float(p) for p in v)
                            for k, v in dict(self.reported_marginals).items()})
        if self.treatment == self.outcome:
            raise ValidationError("treatment and outcome must differ")
        if self.population not in ("same", "selected"):
            raise ValidationError(f"population must be 'same' or 'selected', got {self.population!r}")
        if not self.arms:
            raise ValidationError("experiment has no arms")
        xs = [a.x_value for a in self.arms]
        if len(set(xs)) != len(xs):
            raise ValidationError("arm x values must be distinct")
        k = len(self.arms[0].outcome_counts)
        if any(len(a.outcome_counts) != k for a in self.arms):
            raise ValidationError("all arms must report the same number of outcome categories")
        for var, vec in self.reported_marginals.items():
            if var in (self.treatment, self.outcome):
                raise ValidationError(f"marginal reported for {var!r}, which is the treatment or outcome")
            check_marginal(var, vec)
        if self.population == "selected" and not self.reported_marginals:
            raise ValidationError(
                "population is 'selected' but no covariate marginals are reported; "
                "selection correction is impossible")

    @property
    def n_outcomes(self) -> int:
        return len(self.arms[0].outcome_counts)


# --- file formats


def load_observational(path) -> CategoricalTable:
    """Read a header+integer-codes CSV into a validated table.

    Cardinalities are inferred as max code + 1 per column. The body is read
    by numpy's CSV reader; a file it refuses, or one with a negative code, a
    ragged row or no row, is read cell by cell, which is also what reports a
    malformed one.
    """
    with open(path, encoding="utf-8-sig", newline="") as f:
        names = [h.strip() for h in next(csv.reader(f), [])]
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(f, dtype=np.int64, delimiter=",", comments=None,
                                  quotechar='"', ndmin=2)
        except ValueError:
            rows = None
    if (rows is None or not any(names) or rows.shape[1] != len(names) or not len(rows)
            or rows.min() < 0):
        names, rows = _parse_csv(path)
    if not len(rows):
        raise SchemaError(f"{path}: no data rows to infer cardinalities from")
    cards = tuple(int(c) + 1 for c in rows.max(axis=0))
    return CategoricalTable(tuple(names), cards, rows)


def _parse_csv(path) -> tuple[list[str], np.ndarray]:
    """Header names and rows read cell by cell, naming the line and column
    of the first malformed cell."""
    with open(path, encoding="utf-8-sig", newline="") as f:  # spreadsheets may write a BOM
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if not header or all(not h.strip() for h in header):
            raise ParseError(f"{path}: missing header row")
        names = [h.strip() for h in header]

        data = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise ParseError(f"{path}: line {lineno}: expected {len(names)} cells, got {len(row)}")
            parsed = []
            for j, cell in enumerate(row):
                try:
                    code = int(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}, column {names[j]!r}: not an integer: {cell!r}") from None
                if code < 0:
                    raise ParseError(f"{path}: line {lineno}, column {names[j]!r}: negative code {code}")
                parsed.append(code)
            data.append(parsed)
    return names, np.asarray(data, dtype=np.int64).reshape(len(data), len(names))


def save_observational(table: CategoricalTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(table.variable_names)
        writer.writerows(table.rows.tolist())


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_experiment(path) -> ExperimentSummary:
    """Read a trial-summary JSON file.

    Expected shape::

        {"treatment": "X", "outcome": "Y", "population": "same"|"selected",
         "arms": [{"x": 0, "counts": [30, 70]}, ...],
         "marginals": {"V1": [0.4, 0.6], ...}}

    ``counts[i]`` is the number of units with outcome code i. An optional
    per-arm ``"n"`` must match the count sum. Marginals must sum to 1 within
    1e-6 and are renormalized exactly.
    """
    with open(path, encoding="utf-8-sig") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top-level value must be an object")

    for key in ("treatment", "outcome", "arms"):
        if key not in raw:
            raise ValidationError(f"{path}: missing required key {key!r}")
    for key in ("treatment", "outcome"):
        if not isinstance(raw[key], str):
            raise ValidationError(f"{path}: {key!r} must be a string")

    if not isinstance(raw["arms"], list):
        raise ValidationError(f"{path}: 'arms' must be a list of objects")
    arms = []
    for i, a in enumerate(raw["arms"]):
        if not isinstance(a, dict) or "x" not in a or "counts" not in a:
            raise ValidationError(f"{path}: 'arms' entry {i} must be an object with 'x' and 'counts'")
        for key in ("x", "n"):
            if key in a and not _is_int(a[key]):
                raise ValidationError(f"{path}: arm {i}: {key!r} must be an integer")
        counts = a["counts"]
        if not (isinstance(counts, list) and all(_is_int(c) for c in counts)):
            raise ValidationError(f"{path}: arm {i}: 'counts' must be a list of integers")
        try:
            arm = Arm(a["x"], counts)
        except ValidationError as e:
            raise ValidationError(f"{path}: arm {i}: {e}") from None
        if "n" in a and a["n"] != arm.total:
            raise ValidationError(
                f"{path}: arm {i}: counts sum to {arm.total} but n={a['n']}")
        arms.append(arm)

    reported = raw.get("marginals") or {}
    if not isinstance(reported, dict):
        raise ValidationError(f"{path}: 'marginals' must be an object mapping variables to lists")
    marginals = {}
    for var, vec in reported.items():
        if not (isinstance(vec, list) and all(_is_int(p) or isinstance(p, float) for p in vec)):
            raise ValidationError(f"{path}: 'marginals' entry {var!r} must be a list of numbers")
        vec = [float(p) for p in vec]
        s = sum(vec)
        if not math.isfinite(s) or abs(s - 1.0) > MARGINAL_SUM_TOL:
            raise ValidationError(f"{path}: marginal for {var!r} sums to {s}, expected 1")
        marginals[var] = tuple(p / s for p in vec)

    try:
        return ExperimentSummary(
            treatment=raw["treatment"],
            outcome=raw["outcome"],
            arms=tuple(arms),
            reported_marginals=marginals,
            population=str(raw.get("population", "same")))
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def save_experiment(summary: ExperimentSummary, path) -> None:
    doc = {
        "treatment": summary.treatment,
        "outcome": summary.outcome,
        "population": summary.population,
        "arms": [{"x": a.x_value, "counts": list(a.outcome_counts), "n": a.total}
                 for a in summary.arms],
        "marginals": {v: list(p) for v, p in summary.reported_marginals.items()},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


# --- counting and independence testing


def contingency_counts(table: CategoricalTable, vars: Sequence[str]) -> np.ndarray:
    """Count tensor over the joint categories of ``vars``, in the given order.

    The empty variable list yields the 0-d tensor holding N. Counts are
    weighted sums over the table's distinct rows, exact in int64.
    """
    idx = [table.index(v) for v in vars]
    if len(set(idx)) != len(idx):
        raise ValueError("repeated variable in contingency query")
    return column_counts(table, idx)


def column_counts(table: CategoricalTable, idx: Sequence[int]) -> np.ndarray:
    """``contingency_counts`` over distinct column indices: the one count path,
    which the structure learner calls directly to skip the name lookups."""
    cards = [table.cardinalities[i] for i in idx]
    cells = math.prod(cards)
    if cells > MAX_COUNT_CELLS:
        raise ValidationError(
            f"count table over "
            f"{', '.join(f'{table.variable_names[i]} ({c})' for i, c in zip(idx, cards))} "
            f"would hold {cells} cells, more than {MAX_COUNT_CELLS}; "
            f"category codes must be dense 0..k-1")
    if not idx:
        return np.array(table.n, dtype=np.int64)
    rows, weights = table.distinct
    # row-major index of each distinct row's joint category, built Horner-style
    # (codes are < cardinality, and the cell bound keeps the index in int64)
    flat = rows[:, idx[0]]
    for i, card in zip(idx[1:], cards[1:]):
        flat = flat * card + rows[:, i]
    # float64 sums of integer weights are exact below 2**53 rows
    counts = np.bincount(flat, weights=weights, minlength=cells)
    return counts.astype(np.int64).reshape(cards)


def g2_independence_test(table: CategoricalTable, a: str, b: str) -> float:
    """Marginal-independence p-value via the G² likelihood-ratio statistic.

    Tests a ⊥ b against the chi-squared null with (|a|-1)(|b|-1) degrees of
    freedom. Empty cells contribute nothing to the statistic.
    """
    if a == b:
        raise ValueError("a and b must differ")

    counts = contingency_counts(table, [a, b]).astype(float)
    row = counts.sum(axis=1, keepdims=True)
    col = counts.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = row * col / counts.sum()
        ratio = np.where(counts > 0, counts / expected, 1.0)
        g2 = 2.0 * float(np.sum(np.where(counts > 0, counts * np.log(ratio), 0.0)))

    df = (counts.shape[0] - 1) * (counts.shape[1] - 1)
    if df <= 0:
        return 1.0
    return _chi2_sf(g2, df)


_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(n: float) -> float:
    """log n! − [(n + ½) log n − n + log √(2π)], the error of Stirling's formula."""
    if n <= 15.0:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LN_SQRT_2PI
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(n: float, lam: float) -> float:
    """n log(n/λ) + λ − n without cancellation when n is near λ."""
    if abs(n - lam) < 0.1 * (n + lam):
        v = (n - lam) / (n + lam)
        s, ej, v2, j = (n - lam) * v, 2.0 * n * v, v * v, 1
        while True:
            ej *= v2
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s
            s, j = s1, j + 1
    return n * math.log(n / lam) + lam - n


def _poisson_term(n: float, lam: float) -> float:
    """λ^n e^−λ / Γ(n + 1) for n ≥ 0, in Loader's saddle-point form."""
    if n == 0:
        return math.exp(-lam)
    return math.exp(-_stirlerr(n) - _bd0(n, lam)) / math.sqrt(2.0 * math.pi * n)


def _chi2_sf(x: float, df: int) -> float:
    """P(χ²_df > x) for integer df ≥ 1, as an exact finite sum.

    With h = x/2 the tail is Σ_{j<⌊df/2⌋} h^(j+o) e^−h / Γ(j+o+1), where o = 0
    for even df and o = ½ for odd df, which also adds erfc(√h). The largest
    term is evaluated on its own (Loader, "Fast and accurate computation of
    binomial probabilities", 2000) and the others by the ratio to their
    neighbour, walking away from it, so no term overflows for any df.
    """
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    k, odd = divmod(df, 2)
    o = 0.5 * odd
    base = math.erfc(math.sqrt(h)) if odd else 0.0
    if k == 0:
        return base
    peak = min(k - 1, max(0, int(h - o)))
    top = _poisson_term(peak + o, h)
    terms, t = [top], top
    for j in range(peak + 1, k):
        t *= h / (j + o)
        terms.append(t)
    t = top
    for j in range(peak, 0, -1):
        t *= (j + o) / h
        terms.append(t)
    return base + math.fsum(terms)
