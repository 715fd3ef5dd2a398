"""Piecewise feedback assembly.

A feedback law glues a smooth inner control on the sublevel set
{V(x) <= epsilon} to a bang-bang law read off the covector field of a
Lagrangian manifold outside it.  The outer control at x is

    u(x) = -sign(<nu(x), b(x)>) * k

where nu(x) is the covector of the sample `project` picks and b the
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
from .hamiltonian import SWITCH_TOL
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

    @functools.cached_property
    def inner_fn(self):
        """Compiled inner law, fn(t, x)."""
        return ex.compile_scalar(self.inner_exprs)

    def boundary_value(self, x: Sequence[float]) -> float:
        """V(x) - epsilon; negative inside the handover set."""
        return self.lyapunov.value(x) - self.epsilon

    def switching_value(self, x: Sequence[float]) -> float:
        """Switching value at x of the sample `query` finds nearest, with
        no radius cutoff.  At ties it can differ from the sample `project`
        picks for `control`."""
        man = self.manifold
        return man.sigma(x, man.query(x, bounded=False))

    def control(self, x: Sequence[float]) -> list[float]:
        """Control value at x, as a one-element list [u] of a float.

        Inside {V <= epsilon} (boundary included) the inner law wins, bit
        for bit as `exprs.evaluate` of the inner expression.
        Outside, `outer_controls` at the sample `project(x)`.  `project`
        has no radius cutoff, so the law is total: closed-loop arcs
        overshoot the densely sampled region before turning back.
        Coverage audits go through query/illumination, which keep the
        radius.
        """
        if self.boundary_value(x) <= 0.0:
            return self.inner_fn(0.0, np.asarray(x, dtype=float))
        return [float(self.outer_controls(x, self.manifold.project(x)))]

    def outer_controls(self, x, i):
        """The bang-bang control at the point x read from sample i, or at
        the rows of an (R, n) array read from R samples: sigma =
        `manifold.sigma(x, i)` gives u = -sign(sigma) * k, and on the
        switching surface (|sigma| <= SWITCH_TOL) the sample's stored
        post-switch control."""
        man = self.manifold
        s = man.sigma(x, i)
        return np.where(s > SWITCH_TOL, -self.k,
                        np.where(s < -SWITCH_TOL, self.k, man.flat_u[i, 0]))

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

    The system must have a single input.  k is the box amplitude; the
    control set must be the symmetric box [-k, k].  Raises ValueError when
    |w| exceeds C at a sampled point and DecreaseViolation when
    <grad V, f(x, w)> > DECREASE_TOL.
    """
    omega = sys.omega
    if sys.m != 1:
        raise ValueError(f"feedback assembly needs a single-input system, "
                         f"got m={sys.m}")
    if not omega.is_box:
        raise ValueError("feedback assembly needs a box control set")
    lo, hi = omega.lower[0], omega.upper[0]
    if k is None:
        k = float(hi)
    if abs(lo + k) > 1e-12 or abs(hi - k) > 1e-12:
        raise ValueError(f"control box must be the symmetric [-k, k] with "
                         f"k={k:g}; it is [{lo:g}, {hi:g}]")
    if len(inner_sources) != 1:
        raise ValueError(f"need one inner law, got {len(inner_sources)} "
                         f"inner control expressions")
    if C <= 0.0:
        raise ValueError("bound C must be positive")
    inner = tuple(ex.parse(src, sys.n) for src in inner_sources)
    inner_fn = ex.compile_scalar(inner)
    epsilon = man.epsilon

    worst = -math.inf
    boundary_worst = -math.inf
    for p in _shell_points(lyap, epsilon):
        w = inner_fn(0.0, p)
        if abs(w[0]) > C + 1e-12:
            raise ValueError(f"inner law violates |w| <= C at x={tuple(p)}: "
                             f"|w| = {abs(w[0]):.6g} > {C:g}")
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
    """Sample |u(x)| over a box grid and compare against C.

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
        worst = abs(law.control(p)[0])
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
