"""Piecewise feedback assembly.

A feedback law glues a smooth inner control on the sublevel set
{V(x) <= epsilon} to a bang-bang law read off the covector field of a
Lagrangian manifold outside it.  The outer control at x is

    u_j(x) = -sign(<nu(x), b_j(x)>) * k

where nu(x) is the covector of the nearest manifold sample and b_j the
control column.  Assembly checks the inner law pointwise: magnitude
bound |w_j(x)| <= C and Lyapunov decrease <grad V, f(x, w(x))> <= 0 on
sampled shells of {0 < V <= epsilon}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exprs as ex
from .exprs import Expr
from .hamiltonian import SWITCH_TOL, switching_values
from .manifold import (LagrangianManifold, box_grid, illumination_check,
                       manifold_table, write_table)
from .systems import ControlSystem, ControlSet, LyapunovSpec

# assembly checks the inner law on SHELL_LEVELS level sets of V inside
# {V <= epsilon}, at SHELL_RAYS directions each, and accepts a rate of
# change <grad V, f> up to DECREASE_TOL
SHELL_LEVELS = 8
SHELL_RAYS = 64
DECREASE_TOL = 1e-9


class DecreaseViolation(ValueError):
    """Inner law fails Lyapunov decrease at a sampled point."""

    def __init__(self, x, value):
        self.x = tuple(float(v) for v in x)
        self.value = float(value)
        super().__init__(
            f"inner law increases V at x={self.x}: <grad V, f> = {value:.3e}")


@dataclass(frozen=True)
class FeedbackLaw:
    """Immutable piecewise law: inner expressions inside, manifold outside."""

    system: ControlSystem
    lyapunov: LyapunovSpec
    manifold: LagrangianManifold
    inner_sources: tuple[str, ...]
    inner_exprs: tuple[Expr, ...]
    k: float
    C: float
    epsilon: float
    boundary_margin: float

    def inner_value(self, x: Sequence[float]) -> list[float]:
        return [ex.evaluate(e, x) for e in self.inner_exprs]

    def boundary_value(self, x: Sequence[float]) -> float:
        """V(x) - epsilon; negative inside the handover set."""
        return self.lyapunov.value(x) - self.epsilon

    def switching_value(self, x: Sequence[float]) -> float:
        """<nu_q, b_1(x)> with nu_q projected from the manifold."""
        q = self.manifold.query(x, bounded=False)
        return switching_values(self.system, x, q.nu)[0]

    def control(self, x: Sequence[float]) -> list[float]:
        """Control value at x.

        Inside {V <= epsilon} (boundary included) the inner law wins.
        Outside, the nearest manifold covector sets u_j = -sign(sigma_j) * k;
        on the switching surface (|sigma_j| below tolerance) the stored
        post-switch sample control is reused.  The nearest-sample rule is
        applied without a radius cutoff, so the law is total: closed-loop
        arcs overshoot the densely sampled region before turning back, and
        the sign field must stay defined there.  Coverage audits still go
        through query/illumination, which keep the radius.
        """
        if self.boundary_value(x) <= 0.0:
            return self.inner_value(x)
        ties = self.manifold.query_ties(x, bounded=False)
        q = _resolve_projection(self, x, ties)
        sig = switching_values(self.system, x, q.nu)
        u = []
        for j, s in enumerate(sig):
            if s > SWITCH_TOL:
                u.append(-self.k)
            elif s < -SWITCH_TOL:
                u.append(self.k)
            else:
                u.append(float(q.u[j]))
        return u

    @property
    def fd_scale(self) -> float:
        """Displacement used by finite differences of the switching value.

        The projected covector is constant between neighbouring manifold
        samples, so probes shorter than the sample spacing see no change.
        """
        return self.manifold.query_radius

    @functools.cached_property
    def inner_dynamics(self):
        """Compiled closed-loop dynamics of the inner region, fn(t, x)."""
        return ex.compile_scalar(self.system.closed_loop_exprs(self.inner_exprs))


def _shell_points(lyap: LyapunovSpec, epsilon: float) -> list[np.ndarray]:
    """Radial sample of {0 < V <= epsilon}, outermost shell exactly V=eps."""
    pts = []
    n = lyap.n
    if n == 1:
        dirs = [np.array([1.0]), np.array([-1.0])]
    else:
        angles = np.linspace(0.0, 2.0 * math.pi, SHELL_RAYS, endpoint=False)
        dirs = [np.array([math.cos(a), math.sin(a)]) for a in angles]
    for i in range(1, SHELL_LEVELS + 1):
        level = epsilon * i / SHELL_LEVELS
        for d in dirs:
            pts.append(lyap.radial_point(d, level))
    return pts


def assemble_feedback(sys: ControlSystem, lyap: LyapunovSpec,
                      man: LagrangianManifold,
                      inner_sources: Sequence[str],
                      k: float | None = None, C: float = 1.0) -> FeedbackLaw:
    """Validate the inner law and wrap it with the manifold bang-bang law.

    k is the common box amplitude; the control set must be the symmetric
    box [-k, k]^m.  Raises ValueError when |w| exceeds C at a sampled
    point and DecreaseViolation when <grad V, f(x, w)> > DECREASE_TOL.
    """
    omega = sys.omega
    if not omega.is_box:
        raise ValueError("feedback assembly needs a box control set")
    if k is None:
        k = float(omega.upper[0])
    for j in range(sys.m):
        if abs(omega.lower[j] + k) > 1e-12 or abs(omega.upper[j] - k) > 1e-12:
            raise ValueError(
                f"control box must be the symmetric cube [-k, k]^m with "
                f"k={k:g}; channel {j} is [{omega.lower[j]:g}, "
                f"{omega.upper[j]:g}]")
    if len(inner_sources) != sys.m:
        raise ValueError(
            f"need {sys.m} inner control expressions, got {len(inner_sources)}")
    if C <= 0.0:
        raise ValueError("bound C must be positive")
    inner = tuple(ex.parse(src, sys.n) for src in inner_sources)
    epsilon = man.epsilon

    worst = -math.inf
    boundary_worst = -math.inf
    for p in _shell_points(lyap, epsilon):
        w = [ex.evaluate(e, p) for e in inner]
        for j, wj in enumerate(w):
            if abs(wj) > C + 1e-12:
                raise ValueError(
                    f"inner law violates |w| <= C at x={tuple(p)}: "
                    f"|w_{j+1}| = {abs(wj):.6g} > {C:g}")
        if not omega.contains(w):
            raise ValueError(
                f"inner law leaves the control set at x={tuple(p)}: w={w}")
        xdot = sys.eval_dynamics(p, w)
        decay = float(np.dot(lyap.gradient(p), xdot))
        worst = max(worst, decay)
        if abs(lyap.value(p) - epsilon) <= 1e-9 * max(epsilon, 1.0):
            boundary_worst = max(boundary_worst, decay)
        if decay > DECREASE_TOL:
            raise DecreaseViolation(p, decay)
    return FeedbackLaw(sys, lyap, man, tuple(inner_sources), inner,
                       float(k), float(C), float(epsilon),
                       -boundary_worst)


def _resolve_projection(law: FeedbackLaw, x, ties):
    """Pick one sample among equidistant projections.

    When the tied covectors disagree on the sign of the switching
    function, the sample with the smallest generating value W wins;
    otherwise the smallest distance (earliest flat index) is kept.
    """
    if len(ties) == 1:
        return ties[0]
    signs = set()
    for q in ties:
        s = switching_values(law.system, x, q.nu)[0]
        if abs(s) > SWITCH_TOL:
            signs.add(1 if s > 0 else -1)
    if len(signs) > 1:
        return min(ties, key=lambda q: q.w)
    return min(ties, key=lambda q: q.distance)


@dataclass(frozen=True)
class BoundReport:
    max_abs: float
    violations: tuple[tuple[tuple[float, ...], float], ...]
    not_covered: tuple[tuple[float, ...], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_bound(law: FeedbackLaw, lower: Sequence[float],
                 upper: Sequence[float], grid_res: int = 21) -> BoundReport:
    """Sample |u_j(x)| over a box grid and compare against C.

    Every point is checked, as the law is total; the dark points of
    `illumination_check` are also listed in `not_covered`.
    """
    pts = box_grid(lower, upper, grid_res)
    max_abs = 0.0
    violations = []
    not_covered = [tuple(float(v) for v in p) for p, status
                   in zip(pts, illumination_check(law.manifold, pts))
                   if status == "dark"]
    for p in pts:
        u = law.control(p)
        worst = max(abs(v) for v in u)
        max_abs = max(max_abs, worst)
        if worst > law.C + 1e-12:
            violations.append((tuple(float(v) for v in p), worst))
    return BoundReport(max_abs, tuple(violations), tuple(not_covered))


# ---------------------------------------------------------------- reference

def reference_switching_curve(tau_values: Sequence[float]
                              ) -> list[tuple[float, float]]:
    """Closed-form switching curve of the planar bang-bang benchmark.

    Valid for tau in (pi/2, pi) or (3*pi/2, 2*pi); outside those open
    intervals the curve is not defined and a ValueError is raised.  Near
    the interval endpoints cos(tau) -> 0 and the curve escapes to
    infinity; |cos tau| <= 1e-12 is rejected as an asymptote.
    """
    out = []
    for tau in tau_values:
        t = float(tau)
        in_first = math.pi / 2.0 < t < math.pi
        in_second = 1.5 * math.pi < t < 2.0 * math.pi
        if not (in_first or in_second):
            raise ValueError(
                f"tau={t:g} outside (pi/2, pi) u (3pi/2, 2pi)")
        c = math.cos(t)
        if abs(c) <= 1e-12:
            raise ValueError(f"tau={t:g} is an asymptote of the curve")
        s = math.sin(t)
        x1 = (-s * abs(s) / (2.0 * c * c)) + (s * s / c) + c
        x2 = (-abs(s) / c) + s
        out.append((x1, x2))
    return out


# ------------------------------------------------------------- benchmarks

def double_integrator_system(k: float = 1.0) -> ControlSystem:
    return ControlSystem(
        n=2, omega=ControlSet.box([-k], [k]),
        drift=("x2", "0"), columns=[("0", "1")],
        name="double-integrator")


def double_integrator_lyapunov(epsilon: float = 0.5) -> LyapunovSpec:
    return LyapunovSpec("0.5*(x1^2 + x2^2)", 2, epsilon=epsilon)


def export_law_csv(law: FeedbackLaw, path: str) -> None:
    """Manifold sample table prefixed by a '#' header with the law data."""
    with open(path, "w", newline="") as fh:
        for j, src in enumerate(law.inner_sources):
            # a multi-line source goes on one '#' line
            fh.write(f"# inner{j+1}: {' '.join(src.splitlines())}\n")
        fh.write(f"# epsilon: {law.epsilon!r}\n")
        fh.write(f"# k: {law.k!r}\n")
        fh.write(f"# C: {law.C!r}\n")
        write_table(fh, *manifold_table(law.manifold))
