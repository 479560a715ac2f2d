"""Correcting for a selection-biased trial population.

A trial recruited under per-variable inclusion mechanisms sees the tilted
distribution P(V | S=1) ∝ P(V) · ∏_i θ_{S_i=1|v_i}. Given published covariate
marginals for the trial, the solver recovers inclusion weights θ that
reproduce them on top of the observational network; the weights are then held
fixed while the adjustment-hypothesis search scores trial arms in the tilted
population and still reports estimates for the unselected one. Marginals of
the tilted population come from one routine, ``_marginal_fn``: one
elimination of the network, then dense arithmetic per query. The solver and
the simulator, which reports a selected trial's exact marginals, share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .bayesnet import ParamInstantiation, product_marginal
from .data import ValidationError, check_marginal

MAX_SWEEPS = 10000
TOL = 1e-6  # largest residual between a reported and a reproduced marginal
# Largest reported-variable joint P(R), in cells, that the solver builds;
# past it each marginal query is its own elimination over the network.
CELL_BUDGET = 1 << 22


class SelectionError(RuntimeError):
    """A trial that no selection model fits: a reported marginal puts mass where
    the observational model has none, or the solver misses it within its sweep
    budget (CLI exit code 3)."""


@dataclass
class SelectionBn:
    """Observational network plus solved per-variable inclusion weights.

    ``theta_s[v][c]`` is P(S_v=1 | V=c), scaled so each vector's maximum is 1;
    inclusion overall is the conjunction of the per-variable indicators.
    ``reported[v]`` is the trial's marginal of v and ``reproduced[v]`` the
    one the tilted network gives, from the solver's last residual pass.
    """

    selected_vars: tuple[str, ...]
    theta_s: dict[str, np.ndarray]
    reported: dict[str, np.ndarray]
    reproduced: dict[str, np.ndarray]
    solved_residual: float
    sweeps: int

    def to_dict(self) -> dict:
        return {
            "selected_vars": list(self.selected_vars),
            "theta_s": {v: self.theta_s[v].tolist() for v in self.selected_vars},
            "solved_residual": self.solved_residual,
            "sweeps": self.sweeps,
            "marginals": {v: {"reported": self.reported[v].tolist(),
                              "reproduced": self.reproduced[v].tolist()}
                          for v in self.selected_vars},
        }


_ZERO_MASS = "selection weights drive P(S=1) to zero"


def _marginal_fn(params: ParamInstantiation, selected: tuple[str, ...]
                 ) -> Callable[[str, Mapping[str, np.ndarray]], np.ndarray]:
    """``marginal(v, theta)``: P(v) normalized in the population tilted by ``theta``.

    The weights touch only variables in R = ``selected``, so that marginal is
    a margin of P(R) · ∏_u θ_u(r_u): one elimination gives P(R), after which
    every query is dense arithmetic on ∏ card(R) cells. Past
    ``CELL_BUDGET`` cells each query is its own elimination over the
    whole network with the weights as extra factors.
    """
    joint = None
    if math.prod(params.cardinalities[v] for v in selected) <= CELL_BUDGET:
        joint = product_marginal(params.factors(), selected)
        axes = range(len(selected))
        along = {v: [-1 if j == i else 1 for j in axes] for i, v in enumerate(selected)}
        others = {v: tuple(j for j in axes if j != i) for i, v in enumerate(selected)}

    def marginal(v: str, theta: Mapping[str, np.ndarray]) -> np.ndarray:
        if joint is None:
            t = product_marginal(params.factors() + [((u,), w) for u, w in theta.items()], (v,))
        else:
            tilted = joint
            for u, w in theta.items():
                tilted = tilted * w.reshape(along[u])
            t = tilted.sum(axis=others[v])
        total = t.sum()
        if total <= 0.0:
            raise SelectionError(_ZERO_MASS)
        return t / total

    return marginal


def build_selection_bn(params: ParamInstantiation,
                       marginals: Mapping[str, Sequence[float]]) -> SelectionBn:
    """Solve inclusion weights so the tilted network reproduces each reported marginal.

    Iterative proportional fitting (Deming & Stephan 1940) on the joint of the
    reported variables: θ_v ← θ_v · target / current, rescaled so max θ_v = 1
    (solutions are scale-equivalent per variable), one variable at a time in
    sorted order. Each such full step is the I-projection onto one marginal
    constraint, so when the constraints are feasible the sweeps converge to
    the unique I-projection of the network onto all of them (Csiszár, Ann.
    Probab. 1975). Every weight starts at 1, except that a category with zero
    reported mass is an exclusion criterion and is pinned at weight exactly 0.
    Before the first sweep, a marginal that is not a distribution
    (``check_marginal``) is rejected, and so is one that puts mass on a
    category the observational model gives probability 0, which is infeasible.
    """
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
        check_marginal(v, t)
        targets[v] = t

    marginal = _marginal_fn(params, selected)
    for v, t in targets.items():
        obs = marginal(v, {})
        bad = (obs == 0.0) & (t > 0.0)
        if bad.any():
            c = int(np.argmax(bad))
            raise SelectionError(
                f"variable {v!r}, category {c}: trial reports mass {t[c]:.6g} "
                "on a category with no observational support")

    theta = {v: np.where(targets[v] > 0.0, 1.0, 0.0) for v in selected}

    # Stop well inside the contract tolerance, so marginals recomputed by any
    # other elimination order still meet it; error only past the contract.
    aim = TOL * 0.05
    residual = np.inf
    for sweeps in range(1, MAX_SWEEPS + 1):
        for v in selected:
            current = marginal(v, theta)
            pos = targets[v] > 0.0  # a zero-target weight is pinned at 0 and stays there
            step = theta[v] * np.divide(targets[v], current, out=np.zeros_like(current), where=pos)
            theta[v] = step / step.max()
        reproduced = {v: marginal(v, theta) for v in selected}
        residual = max(float(np.abs(reproduced[v] - targets[v]).max()) for v in selected)
        if residual < aim:
            break
    if not residual < TOL:  # a NaN residual fails too
        raise SelectionError(
            f"selection solver did not reach residual {TOL:g} in {MAX_SWEEPS} sweeps "
            f"(best {residual:.3g})")

    return SelectionBn(selected_vars=selected, theta_s=theta, reported=targets,
                       reproduced=reproduced, solved_residual=residual, sweeps=sweeps)

