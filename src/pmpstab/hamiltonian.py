"""Pointwise minimization of the control Hamiltonian and the associated
characteristic flows.

For a costate nu the Hamiltonian is S(nu, t, x, u) = <nu, xdot(t, x, u)> and
the minimizing control is taken over the admissible set.  For affine systems
with a box set this reduces to a per-channel sign rule on the switching
values sigma_j = <nu, b_j(x)>; a channel with |sigma_j| <= switch_tol is
degenerate and the minimizer is not unique.

The forward flow is xdot = dS/dnu, nudot = -dS/dx; the reversed flow negates
both.  Both are evaluated at the frozen minimizing control, which is valid
between switching events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .systems import ControlSystem, SystemError, lie_bracket_adfb

__all__ = [
    "MinimizerResult", "minimize_hamiltonian", "hamiltonian_value",
    "hamiltonian_values",
    "branch_control", "reversed_rhs", "forward_rhs",
    "SWITCH_TOL",
]

SWITCH_TOL = 1e-10


@dataclass(frozen=True)
class MinimizerResult:
    u: tuple[float, ...]
    value: float
    degenerate: bool


def hamiltonian_value(sys: ControlSystem, t: float, x: Sequence[float],
                      nu: Sequence[float],
                      u: Sequence[float] | None = None) -> float:
    """S = <nu, xdot(t, x, u)>; evaluated at the minimizing control when u
    is not given."""
    if u is None:
        return minimize_hamiltonian(sys, t, x, nu).value
    xdot = sys.eval_dynamics(t, x, u)
    return float(sum(nv * xv for nv, xv in zip(nu, xdot)))


def hamiltonian_values(sys: ControlSystem, x: np.ndarray, nu: np.ndarray,
                       u: np.ndarray) -> np.ndarray:
    """hamiltonian_value at every row of x, nu (K, n) and u (K, m) of an
    affine system, equal to it bit for bit: 0 + nu_1 xdot_1 + nu_2 xdot_2
    + ..., summed in that order.  Domain errors raise ExprDomainError."""
    xdot = sys.eval_dynamics_batch(x, u)
    s = 0.0
    for i in range(sys.n):
        s = s + nu[:, i] * xdot[i]
    return s


def switching_values(sys: ControlSystem, x: Sequence[float],
                     nu: Sequence[float]) -> list[float]:
    """sigma_j = <nu, b_j(x)> for each control channel of an affine system."""
    if not sys.affine:
        raise SystemError("switching values need the affine form")
    cols = sys.eval_columns(x)
    return [float(sum(nv * cv for nv, cv in zip(nu, col))) for col in cols]


def minimize_hamiltonian(sys: ControlSystem, t: float, x: Sequence[float],
                         nu: Sequence[float], switch_tol: float = SWITCH_TOL,
                         grid_res: int = 101) -> MinimizerResult:
    """Minimize S over the admissible control set.

    Affine + box uses the exact per-channel rule; finite sets are scanned
    exhaustively with first-index ties; general dynamics with a box set fall
    back to a cartesian grid of grid_res points per channel.
    """
    omega = sys.omega
    if omega.is_box and sys.affine:
        sig = switching_values(sys, x, nu)
        u = []
        degenerate = False
        for j, s in enumerate(sig):
            if s > switch_tol:
                u.append(omega.lower[j])
            elif s < -switch_tol:
                u.append(omega.upper[j])
            else:
                degenerate = True
                u.append(0.5 * (omega.lower[j] + omega.upper[j]))
        value = hamiltonian_value(sys, t, x, nu, u)
        return MinimizerResult(tuple(u), value, degenerate)

    if not omega.is_box:
        best_u = None
        best = float("inf")
        degenerate = False
        for vals in omega.values:
            s = hamiltonian_value(sys, t, x, nu, vals)
            if s < best - switch_tol:
                best, best_u = s, vals
                degenerate = False
            elif s <= best + switch_tol and vals != best_u:
                # another admissible value achieves the minimum within tol
                degenerate = True
                if s < best:
                    best = s
        return MinimizerResult(tuple(best_u), best, degenerate)

    # general dynamics over a box: grid scan
    axes = [np.linspace(lo, hi, grid_res) if hi > lo else np.array([lo])
            for lo, hi in zip(omega.lower, omega.upper)]
    best_u = None
    best = float("inf")
    second = float("inf")
    for combo in itertools.product(*axes):
        s = hamiltonian_value(sys, t, x, nu, list(combo))
        if s < best:
            second = best
            best, best_u = s, combo
        elif s < second:
            second = s
    degenerate = (second - best) <= switch_tol
    return MinimizerResult(tuple(float(v) for v in best_u), best, degenerate)


def branch_control(sys: ControlSystem, x: Sequence[float], nu: Sequence[float],
                   direction: str = "reversed",
                   switch_tol: float = SWITCH_TOL) -> tuple[list[float], float, float, bool]:
    """Minimizing control for a single-input affine system with the
    degenerate case resolved by the sign sigma is about to take.

    Returns (u, s_eff, sigma, degenerate) where s_eff in {-1, 0, +1} is the
    effective sign of sigma used for the control (0 only when the switch is
    non-transversal).  `direction` is 'reversed' or 'forward' and selects the
    flow along which the sigma trend is computed.
    """
    if not (sys.affine and sys.m == 1 and sys.omega.is_box):
        raise SystemError("branch control needs a single-input affine box system")
    sigma = switching_values(sys, x, nu)[0]
    if sigma > switch_tol:
        s_eff = 1.0
    elif sigma < -switch_tol:
        s_eff = -1.0
    else:
        trans = float(np.dot(nu, lie_bracket_adfb(sys, x, 0)))
        trend = -trans if direction == "reversed" else trans
        if trend > 0.0:
            s_eff = 1.0
        elif trend < 0.0:
            s_eff = -1.0
        else:
            s_eff = 0.0
    lo, hi = sys.omega.lower[0], sys.omega.upper[0]
    if s_eff > 0.0:
        u = [lo]
    elif s_eff < 0.0:
        u = [hi]
    else:
        u = [(lo + hi) / 2.0]
    return u, s_eff, sigma, s_eff == 0.0


def reversed_rhs(sys: ControlSystem, x: Sequence[float], nu: Sequence[float],
                 u: Sequence[float] | None = None) -> tuple[list[float], list[float]]:
    """Reversed characteristic flow xdot = -dS/dnu, nudot = +dS/dx at frozen
    minimizing control (computed from branch_control when u is None)."""
    if u is None:
        u, _, _, _ = branch_control(sys, x, nu, "reversed")
    f = sys.eval_dynamics(0.0, x, u)
    jac = sys.jacobian_x(0.0, x, u)
    dnu = jac.T @ np.asarray(nu, dtype=float)
    return [-v for v in f], dnu.tolist()


def forward_rhs(sys: ControlSystem, t: float, x: Sequence[float],
                nu: Sequence[float],
                u: Sequence[float] | None = None) -> tuple[list[float], list[float]]:
    """Forward characteristic flow xdot = dS/dnu, nudot = -dS/dx."""
    if u is None:
        u, _, _, _ = branch_control(sys, x, nu, "forward")
    f = sys.eval_dynamics(t, x, u)
    jac = sys.jacobian_x(t, x, u)
    dnu = -(jac.T @ np.asarray(nu, dtype=float))
    return list(f), dnu.tolist()
