"""High-gain velocity observer for manipulator-type systems.

The plant is x1dot = x2, x2dot = f(x) + u with measured position x1 and
unmeasured velocity x2.  The estimator

    z1dot = z2 - beta1 (z1 - x1)
    z2dot = f(x1, z2) + u - beta2 (z1 - x1)

drives the error e = z - x to zero when the gain inequalities hold; the
feedback law is then evaluated at the surrogate state (x1, z2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exprs as ex
from .manifold import LagrangianManifold, NotCoveredError, write_table
from .simulate import TrajectoryEvent, simulate_closed_loop
from .systems import ControlSet, ControlSystem


def manipulator_system(f_source: str, omega: ControlSet | None = None,
                       k: float = 1.0, name: str = "manipulator"
                       ) -> ControlSystem:
    """Planar system x1dot = x2, x2dot = f(x) + u with box control."""
    if omega is None:
        omega = ControlSet.box([-k], [k])
    if omega.m != 1:
        raise ValueError("manipulator form has a single control channel")
    return ControlSystem(n=2, omega=omega, drift=("x2", f_source),
                         columns=[("0", "1")], name=name)


def is_manipulator(sys: ControlSystem) -> bool:
    if not (sys.n == 2 and sys.m == 1):
        return False
    x2 = ex.parse("x2", 2)
    col = tuple(ex.parse(s, 2) for s in ("0", "1"))
    return sys.drift_exprs[0] == x2 and sys.column_exprs[0] == col


@dataclass(frozen=True)
class ObserverGains:
    delta: float
    beta1: float
    beta2: float
    L: float

    def __post_init__(self):
        if min(self.delta, self.beta1, self.beta2) <= 0.0:
            raise ValueError("observer gains must be positive")
        if self.L < 0.0:
            raise ValueError("Lipschitz constant must be nonnegative")


def gain_inequalities(gains: ObserverGains,
                      L: float | None = None) -> tuple[float, float]:
    """Margins of the two error-decay inequalities; positive is stable.

    With c = 2/beta1 + beta1/beta2 the error Lyapunov derivative obeys
    dV/dt <= -(2 beta2 - L/delta^2) e1^2 - (2 - delta^2 L - c L) e2^2,
    so both returned values must stay positive (with some margin).
    """
    if L is None:
        L = gains.L
    c = 2.0 / gains.beta1 + gains.beta1 / gains.beta2
    v1 = 2.0 * gains.beta2 - L / (gains.delta * gains.delta)
    v2 = 2.0 - gains.delta * gains.delta * L - c * L
    return v1, v2


def select_gains(L: float, margin: float = 0.1) -> ObserverGains:
    """Smallest doubling-schedule gains meeting both margins.

    delta^2 = min(1/4, 0.9/max(L, 1)) keeps the e2 inequality feasible,
    beta1 = max(4, 4L), and beta2 doubles from 1 until both inequalities
    clear the margin.
    """
    if L < 0.0:
        raise ValueError("Lipschitz constant must be nonnegative")
    delta = math.sqrt(min(0.25, 0.9 / max(L, 1.0)))
    beta1 = max(4.0, 4.0 * L)
    beta2 = 1.0
    while beta2 < 1e18:
        g = ObserverGains(delta, beta1, beta2, L)
        if min(gain_inequalities(g)) >= margin:
            return g
        beta2 *= 2.0
    raise ValueError(f"no feasible beta2 for L={L:g} at margin {margin:g}")


def error_lyapunov_matrix(gains: ObserverGains) -> np.ndarray:
    c = 2.0 / gains.beta1 + gains.beta1 / gains.beta2
    return np.array([[2.0 * gains.beta2 / gains.beta1, -1.0], [-1.0, c]])


def error_lyapunov(gains: ObserverGains, e: Sequence[float]) -> float:
    """V(e) = 2(beta2/beta1) e1^2 - 2 e1 e2 + (2/beta1 + beta1/beta2) e2^2.

    Positive definite for any positive gains: the determinant of the
    quadratic form is 4 beta2/beta1^2 + 1.
    """
    c = 2.0 / gains.beta1 + gains.beta1 / gains.beta2
    e1, e2 = float(e[0]), float(e[1])
    return (2.0 * gains.beta2 / gains.beta1 * e1 * e1
            - 2.0 * e1 * e2 + c * e2 * e2)


def estimator_step(sys: ControlSystem, gains: ObserverGains,
                   z: Sequence[float], x1_meas: float,
                   u: float | Sequence[float]) -> list[float]:
    """Right-hand side of the estimator at state z, measurement x1."""
    if not is_manipulator(sys):
        raise ValueError("estimator needs the manipulator form "
                         "(x1dot = x2, x2dot = f(x) + u)")
    u_val = float(u[0]) if isinstance(u, (list, tuple, np.ndarray)) else float(u)
    z1, z2 = float(z[0]), float(z[1])
    f_val = ex.evaluate(sys.drift_exprs[1], (float(x1_meas), z2))
    innov = z1 - float(x1_meas)
    return [z2 - gains.beta1 * innov,
            f_val + u_val - gains.beta2 * innov]


def gamma_margin(man: LagrangianManifold) -> float:
    """Decrease margin: -max of the Hamiltonian over covering samples.

    Branches whose seed started on the switching surface are excluded;
    their Hamiltonian vanishes identically.
    """
    worst = -math.inf
    for b in man.branches:
        if b.degenerate_seed:
            continue
        worst = max(worst, float(np.max(b.s)))
    if worst == -math.inf:
        raise ValueError("manifold has only degenerate branches")
    return -worst


# relabels x1 as x3 (the estimate z1) in the inner law and in f
_X1_AS_Z1 = {ex.Var(1): ex.Var(3)}


class _SurrogateLaw:
    """Plant law evaluated at (x1, z2) of the combined plant+estimator state."""

    def __init__(self, law, combined: ControlSystem):
        self.base = law
        self.system = combined
        self.k = law.k
        self.fd_scale = law.fd_scale
        w_sur = [ex.substitute(e, _X1_AS_Z1) for e in law.inner_exprs]
        self.inner_dynamics = ex.compile_scalar(combined.closed_loop_exprs(w_sur))

    def _proj(self, y) -> tuple[float, float]:
        return (float(y[0]), float(y[3]))

    def boundary_value(self, y) -> float:
        return self.base.boundary_value(self._proj(y))

    def switching_value(self, y) -> float:
        return self.base.switching_value(self._proj(y))

    def control(self, y) -> list[float]:
        return self.base.control(self._proj(y))


def _combined_system(sys: ControlSystem, gains: ObserverGains) -> ControlSystem:
    f_expr = sys.drift_exprs[1]
    f_sur = ex.substitute(f_expr, _X1_AS_Z1)
    b1 = repr(float(gains.beta1))
    b2 = repr(float(gains.beta2))
    drift = ("x2", ex.to_source(f_expr),
             f"x4 - {b1}*(x3 - x1)",
             f"{ex.to_source(f_sur)} - {b2}*(x3 - x1)")
    return ControlSystem(n=4, omega=sys.omega, drift=drift,
                         columns=[("0", "1", "0", "1")],
                         name=f"{sys.name}+observer")


@dataclass
class OutputFeedbackResult:
    t: np.ndarray
    x: np.ndarray
    z: np.ndarray
    e: np.ndarray
    u: np.ndarray
    v_e: np.ndarray
    w: np.ndarray
    mismatch_t: np.ndarray
    mismatch_lhs: np.ndarray
    mismatch_rhs: np.ndarray
    events: tuple[TrajectoryEvent, ...]
    converged: bool
    t_converged: float | None
    M: float


def simulate_output_feedback(sys: ControlSystem, law, gains: ObserverGains,
                             x0: Sequence[float], z0: Sequence[float],
                             t_max: float, record_dt: float = 0.01,
                             **options) -> OutputFeedbackResult:
    """Co-integrate plant and estimator under the surrogate-state feedback.

    The 4-dim state is (x1, x2, z1, z2); the control applied to both the
    plant and the estimator copy is the law at (x1, z2).  The log holds
    the estimate error, its Lyapunov value, the generating value W along
    the true state, and the switching-mismatch record
    |sigma(x) du| <= 2 M |e2| at samples where both states are outer,
    with M = law.manifold.nu2_lipschitz.
    """
    if not is_manipulator(sys):
        raise ValueError("output feedback needs the manipulator form")
    combined = _combined_system(sys, gains)
    sur = _SurrogateLaw(law, combined)
    y0 = [float(x0[0]), float(x0[1]), float(z0[0]), float(z0[1])]
    traj = simulate_closed_loop(sur, y0, t_max, record_dt=record_dt,
                                **options)
    x = traj.x[:, :2]
    z = traj.x[:, 2:]
    e = z - x
    v_e = np.array([error_lyapunov(gains, ei) for ei in e])

    M = law.manifold.nu2_lipschitz

    w = np.full(len(traj.t), math.nan)
    mis_t, mis_lhs, mis_rhs = [], [], []
    for i, p in enumerate(x):
        if law.boundary_value(p) <= 0.0:
            w[i] = law.lyapunov.value(p)
            continue
        try:
            q = law.manifold.query(p)
        except NotCoveredError:
            continue
        w[i] = q.w
        if law.boundary_value((p[0], z[i][1])) <= 0.0:
            continue
        u_true = law.control(p)
        sigma = law.switching_value(p)
        du = float(traj.u[i][0]) - u_true[0]
        mis_t.append(float(traj.t[i]))
        mis_lhs.append(abs(sigma * du))
        mis_rhs.append(2.0 * M * abs(float(e[i][1])))

    return OutputFeedbackResult(
        traj.t, x, z, e, traj.u, v_e, w,
        np.asarray(mis_t), np.asarray(mis_lhs), np.asarray(mis_rhs),
        traj.events, traj.converged, traj.t_converged, float(M))


def export_error_log(result: OutputFeedbackResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        write_table(fh, ["t", "e1", "e2", "V_e", "W"],
                    [result.t, *result.e.T, result.v_e, result.w])
