"""Pointwise minimization of the control Hamiltonian and the associated
characteristic flows.

For a costate nu the Hamiltonian is S(x, nu, u) = <nu, f(x) + sum_j u_j
b_j(x)>, minimized over the admissible control set.  Over a box this is a
per-channel sign rule on the switching values sigma_j = <nu, b_j(x)>; a
channel with |sigma_j| <= SWITCH_TOL is degenerate and the minimizer is
not unique.  A finite set is scanned value by value.  SWITCH_TOL is the
one switching tolerance of the package: the manifold, the feedback law
and the closed-loop simulator all read it from here.

The forward flow is xdot = dS/dnu, nudot = -dS/dx; the reversed flow negates
both.  Both are evaluated at the frozen minimizing control, which is valid
between switching events, and are compiled in `manifold._FlowCompiler`;
`branch_control` is the switch rule they share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .systems import ControlSystem, SystemError, lie_bracket_adfb

__all__ = [
    "MinimizerResult", "minimize_hamiltonian", "hamiltonian_value",
    "hamiltonian_values",
    "branch_control",
    "SWITCH_TOL",
]

SWITCH_TOL = 1e-10


@dataclass(frozen=True)
class MinimizerResult:
    u: tuple[float, ...]
    value: float
    degenerate: bool


def hamiltonian_value(sys: ControlSystem, x: Sequence[float],
                      nu: Sequence[float],
                      u: Sequence[float] | None = None) -> float:
    """S = <nu, xdot(x, u)>; evaluated at the minimizing control when u is
    not given."""
    if u is None:
        return minimize_hamiltonian(sys, x, nu).value
    xdot = sys.eval_dynamics(x, u)
    return float(sum(nv * xv for nv, xv in zip(nu, xdot)))


def hamiltonian_values(sys: ControlSystem, x: np.ndarray, nu: np.ndarray,
                       u: np.ndarray) -> np.ndarray:
    """hamiltonian_value at every row of x, nu (K, n) and u (K, m), equal
    to it bit for bit: 0 + nu_1 xdot_1 + nu_2 xdot_2
    + ..., summed in that order.  Domain errors raise ExprDomainError."""
    xdot = sys.eval_dynamics_batch(x, u)
    s = 0.0
    for i in range(sys.n):
        s = s + nu[:, i] * xdot[:, i]
    return s


def switching_values(sys: ControlSystem, x: Sequence[float],
                     nu: Sequence[float]) -> list[float]:
    """sigma_j = <nu, b_j(x)> for each control channel."""
    cols = sys.eval_columns(x)
    return [float(sum(nv * cv for nv, cv in zip(nu, col))) for col in cols]


def minimize_hamiltonian(sys: ControlSystem, x: Sequence[float],
                         nu: Sequence[float]) -> MinimizerResult:
    """Minimize S over the admissible control set.

    A box uses the exact per-channel rule.  A finite set is scanned
    exhaustively: u is the first listed value with the least S, `value`
    is S(u), and the result is degenerate when another value comes within
    SWITCH_TOL of it.
    """
    omega = sys.omega
    if omega.is_box:
        sig = switching_values(sys, x, nu)
        u = []
        degenerate = False
        for j, s in enumerate(sig):
            if s > SWITCH_TOL:
                u.append(omega.lower[j])
            elif s < -SWITCH_TOL:
                u.append(omega.upper[j])
            else:
                degenerate = True
                u.append(0.5 * (omega.lower[j] + omega.upper[j]))
        value = hamiltonian_value(sys, x, nu, u)
        return MinimizerResult(tuple(u), value, degenerate)

    scores = [hamiltonian_value(sys, x, nu, vals) for vals in omega.values]
    best = min(scores)
    best_u = omega.values[scores.index(best)]
    degenerate = any(s <= best + SWITCH_TOL and vals != best_u
                     for vals, s in zip(omega.values, scores))
    return MinimizerResult(tuple(best_u), best, degenerate)


def branch_control(sys: ControlSystem, x: Sequence[float], nu: Sequence[float],
                   direction: str = "reversed") -> tuple[float, float, float, bool]:
    """Minimizing control for a single-input box system with the
    degenerate case resolved by the sign sigma is about to take.

    Returns (u, s_eff, sigma, degenerate): the float u, and s_eff in
    {-1, 0, +1}, the effective sign of sigma used for the control (0 only
    when the switch is non-transversal).  `direction` is 'reversed' or
    'forward' and selects the flow along which the sigma trend is computed.
    """
    if not (sys.m == 1 and sys.omega.is_box):
        raise SystemError("branch control needs a single-input box system")
    sigma = switching_values(sys, x, nu)[0]
    if sigma > SWITCH_TOL:
        s_eff = 1.0
    elif sigma < -SWITCH_TOL:
        s_eff = -1.0
    else:
        trans = float(np.dot(nu, lie_bracket_adfb(sys, x)))
        trend = -trans if direction == "reversed" else trans
        if trend > 0.0:
            s_eff = 1.0
        elif trend < 0.0:
            s_eff = -1.0
        else:
            s_eff = 0.0
    lo, hi = sys.omega.lower[0], sys.omega.upper[0]
    if s_eff > 0.0:
        u = lo
    elif s_eff < 0.0:
        u = hi
    else:
        u = (lo + hi) / 2.0
    return u, s_eff, sigma, s_eff == 0.0

