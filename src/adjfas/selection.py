"""Correcting for a selection-biased trial population.

A trial recruited under per-variable inclusion mechanisms sees the tilted
distribution P(V | S=1) ∝ P(V) · ∏_i θ_{S_i=1|v_i}. Given published covariate
marginals for the trial, the solver recovers inclusion weights θ that
reproduce them on top of the observational network; the weights are then held
fixed while the adjustment-hypothesis search scores trial arms in the tilted
population and still reports estimates for the unselected one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bayesnet import (Factor, ParamInstantiation, ZeroEvidenceError, product_marginal,
                       _evidence_sliced)
from .data import CategoricalTable, ValidationError, contingency_counts

MAX_SWEEPS = 10000
DAMPING = 0.5


class SelectionError(RuntimeError):
    """Base for selection-model failures (CLI maps these to exit code 3)."""


class InfeasibleSelectionError(SelectionError):
    """Reported marginal puts mass where the observational model has none."""


class SolverConvergenceError(SelectionError):
    """Marginal constraints not met within the sweep budget."""


@dataclass
class SelectionBn:
    """Observational network plus solved per-variable inclusion weights.

    ``theta_s[v][c]`` is P(S_v=1 | V=c), scaled so each vector's maximum is 1;
    inclusion overall is the conjunction of the per-variable indicators.
    """

    base: ParamInstantiation
    selected_vars: tuple[str, ...]
    theta_s: dict[str, np.ndarray]
    solved_residual: float

    def tilt_factors(self) -> list[Factor]:
        return [((v,), self.theta_s[v]) for v in self.selected_vars]

    def to_dict(self) -> dict:
        return {
            "selected_vars": list(self.selected_vars),
            "theta_s": {v: self.theta_s[v].tolist() for v in self.selected_vars},
            "solved_residual": self.solved_residual,
            "base": {
                v: {"parents": list(self.base.parents[v]),
                    "shape": list(self.base.cpts[v].shape),
                    "cpt": self.base.cpts[v].ravel().tolist()}
                for v in self.base.cpts
            },
        }


def _weighted_marginal(factors: Sequence[Factor], var: str) -> np.ndarray:
    t = product_marginal(factors, (var,))
    total = t.sum()
    if total <= 0.0:
        raise InfeasibleSelectionError("selection weights drive P(S=1) to zero")
    return t / total


def check_empirical_support(table: CategoricalTable, marginals: Mapping[str, Sequence[float]]) -> None:
    """Reject reported marginals that put mass on never-observed categories.

    The smoothed posterior assigns every category positive probability, so
    this is where 'trial mass on a category with no observational support'
    is actually caught for data loaded from files.
    """
    for v in sorted(marginals):
        target = np.asarray(marginals[v], dtype=float)
        counts = contingency_counts(table, (v,))
        if target.shape != counts.shape:
            raise ValidationError(
                f"marginal for {v!r} has {target.size} entries, table cardinality is {counts.size}")
        bad = (counts == 0) & (target > 0.0)
        if bad.any():
            c = int(np.argmax(bad))
            raise InfeasibleSelectionError(
                f"variable {v!r}, category {c}: trial reports mass {target[c]:.6g} "
                "on a category never observed in the data")


def build_selection_bn(params: ParamInstantiation, marginals: Mapping[str, Sequence[float]],
                       tol: float = 1e-6, rng: np.random.Generator | None = None) -> SelectionBn:
    """Solve inclusion weights so the tilted network reproduces each reported marginal.

    Damped multiplicative fixed point: θ_v ← θ_v · (target / current)^DAMPING,
    rescaled so max θ_v = 1 (solutions are scale-equivalent per variable). A
    category with zero reported mass is an exclusion criterion and gets weight
    exactly 0. Infeasible when a reported marginal puts mass on a category the
    observational model gives probability 0.
    """
    base_factors = params.factors()
    selected = tuple(sorted(marginals))
    if not selected:
        raise ValidationError("no reported marginals to constrain the selection model")

    targets: dict[str, np.ndarray] = {}
    for v in selected:
        if v not in params.cpts:
            raise ValidationError(f"reported marginal for {v!r}, which is not a network variable")
        t = np.asarray(marginals[v], dtype=float)
        if t.shape != (params.cardinalities[v],):
            raise ValidationError(
                f"marginal for {v!r} has {t.size} entries, cardinality is {params.cardinalities[v]}")
        obs = _weighted_marginal(base_factors, v)
        bad = (obs == 0.0) & (t > 0.0)
        if bad.any():
            c = int(np.argmax(bad))
            raise InfeasibleSelectionError(
                f"variable {v!r}, category {c}: trial reports mass {t[c]:.6g} "
                "on a category with no observational support")
        targets[v] = t

    theta: dict[str, np.ndarray] = {}
    for v in selected:
        init = rng.uniform(0.1, 1.0, params.cardinalities[v]) if rng is not None \
            else np.ones(params.cardinalities[v])
        init = np.where(targets[v] > 0.0, init, 0.0)
        theta[v] = init / init.max()

    def tilted_factors():
        return base_factors + [((v,), theta[v]) for v in selected]

    # Aim well below the contract tolerance so independently initialized runs
    # land on the same distribution within it; error only past the contract.
    aim = tol * 0.05
    residual = np.inf
    for _ in range(MAX_SWEEPS):
        for v in selected:
            current = _weighted_marginal(tilted_factors(), v)
            pos = targets[v] > 0.0
            ratio = np.ones_like(current)
            ratio[pos] = targets[v][pos] / current[pos]
            theta[v] = theta[v] * ratio ** DAMPING
            theta[v] = theta[v] / theta[v].max()
        residual = max(
            float(np.abs(_weighted_marginal(tilted_factors(), v) - targets[v]).max())
            for v in selected)
        if residual < aim:
            break
    if residual >= tol:
        raise SolverConvergenceError(
            f"selection solver did not reach residual {tol:g} in {MAX_SWEEPS} sweeps "
            f"(best {residual:.3g})")

    return SelectionBn(base=params, selected_vars=selected,
                       theta_s={v: theta[v] for v in selected},
                       solved_residual=residual)


def selected_conditional(sbn: SelectionBn, target: str,
                         evidence: Mapping[str, int] | None = None) -> np.ndarray:
    """Exact P(target | evidence, S=1) on the tilted network."""
    evidence = dict(evidence or {})
    if target in evidence:
        raise ValueError("target must not appear in the evidence")
    factors = _evidence_sliced(sbn.base.factors() + sbn.tilt_factors(), evidence)
    t = product_marginal(factors, (target,))
    total = t.sum()
    if total <= 0.0:
        raise ZeroEvidenceError(f"evidence {evidence} has probability 0 under selection")
    return t / total

