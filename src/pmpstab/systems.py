"""Control system and Lyapunov function descriptions.

A system is control-affine and autonomous, xdot = f(x) + sum_j u_j b_j(x).
Its drift and columns, Lyapunov functions and inner laws are expressions of
x1..xn in the small, stationary expression language of `exprs`; compiled
evaluators are cached on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exprs import (
    Expr, _add, _mul, compile_batch, compile_scalar, diff, evaluate,
    kink_arguments, parse, to_source,
)

__all__ = [
    "ControlSet", "ControlSystem", "LyapunovSpec",
    "KinkError", "SystemError",
    "lie_bracket_adfb", "equilibrium_residual", "rank_condition",
]

# slack of ControlSet.contains on each bound or listed value
CONTAINS_TOL = 1e-12
# rank_condition: |det [b, ad_f b]| must exceed this times |b| |ad_f b|
RANK_TOL = 1e-9
# LyapunovSpec checks V > 0 at random points of the box [-1, 1]^n
POSITIVITY_BOX = 1.0
# radial_point: bisection width, and the radius at which the search gives up
RADIAL_TOL = 1e-12
RADIAL_MAX = 1e6


class SystemError(ValueError):
    pass


class KinkError(SystemError):
    """Raised when a Jacobian is requested exactly on an abs/sign kink."""


@dataclass(frozen=True)
class ControlSet:
    """Admissible control values, either a box or a finite list.

    Box: lower[j] <= u_j <= upper[j].  Finite: u is one of `values`
    (each a full m-vector).  Exactly one of the two forms is set.
    """
    m: int
    lower: tuple[float, ...] | None = None
    upper: tuple[float, ...] | None = None
    values: tuple[tuple[float, ...], ...] | None = None

    @staticmethod
    def box(lower: Sequence[float], upper: Sequence[float]) -> "ControlSet":
        lo = tuple(float(v) for v in lower)
        hi = tuple(float(v) for v in upper)
        if len(lo) != len(hi):
            raise SystemError("box bounds must have equal length")
        if any(l > h for l, h in zip(lo, hi)):
            raise SystemError("box lower bound exceeds upper bound")
        return ControlSet(m=len(lo), lower=lo, upper=hi)

    @staticmethod
    def finite(values: Sequence[Sequence[float]]) -> "ControlSet":
        vals = tuple(tuple(float(c) for c in v) for v in values)
        if not vals:
            raise SystemError("finite control set must be non-empty")
        m = len(vals[0])
        if any(len(v) != m for v in vals):
            raise SystemError("finite control values must share a dimension")
        return ControlSet(m=m, values=vals)

    @property
    def is_box(self) -> bool:
        return self.lower is not None

    def contains(self, u: Sequence[float]) -> bool:
        if len(u) != self.m:
            return False
        if self.is_box:
            return all(l - CONTAINS_TOL <= v <= h + CONTAINS_TOL
                       for v, l, h in zip(u, self.lower, self.upper))
        return any(all(abs(v - c) <= CONTAINS_TOL for v, c in zip(u, vals))
                   for vals in self.values)


class ControlSystem:
    """A control-affine system xdot = f(x) + sum_j u_j b_j(x) with compiled
    evaluators; f and the columns b_j are autonomous, and f(0) = 0."""

    def __init__(self, n: int, omega: ControlSet, *,
                 drift: Sequence[str], columns: Sequence[Sequence[str]],
                 name: str = ""):
        if n < 1:
            raise SystemError("state dimension must be positive")
        self.n = n
        self.m = omega.m
        self.omega = omega
        self.name = name
        if len(drift) != n:
            raise SystemError("drift must have n components")
        if len(columns) != self.m:
            raise SystemError("need one column per control channel")
        self.drift_exprs = tuple(parse(s, n) for s in drift)
        self.column_exprs = tuple(tuple(parse(s, n) for s in col)
                                  for col in columns)
        for col in self.column_exprs:
            if len(col) != n:
                raise SystemError("each column must have n components")
        self._drift_fn = compile_scalar(self.drift_exprs)
        self._column_fns = tuple(compile_scalar(col) for col in self.column_exprs)
        self._drift_batch = compile_batch(self.drift_exprs)
        self._column_batches = tuple(compile_batch(col) for col in self.column_exprs)
        self._jac_cache: dict[str, tuple] = {}
        r = self._drift_fn(0.0, [0.0] * n)
        if max(abs(v) for v in r) > 1e-12:
            raise SystemError(
                "origin is not an equilibrium of the uncontrolled system "
                f"(residual {max(abs(v) for v in r):.3e})")

    # ------------------------------------------------------------- dynamics

    def eval_drift(self, x: Sequence[float]) -> list[float]:
        return self._drift_fn(0.0, x)

    def eval_columns(self, x: Sequence[float]) -> list[list[float]]:
        return [fn(0.0, x) for fn in self._column_fns]

    def eval_columns_batch(self, x: np.ndarray) -> list[np.ndarray]:
        """eval_columns at every row of x (K, n): one (K, n) array per
        column, equal to it bit for bit."""
        return [fn(0.0, x) for fn in self._column_batches]

    def eval_dynamics(self, x: Sequence[float], u: Sequence[float]) -> list[float]:
        out = self._drift_fn(0.0, x)
        for j, fn in enumerate(self._column_fns):
            col = fn(0.0, x)
            uj = u[j]
            for i in range(self.n):
                out[i] += uj * col[i]
        return out

    def eval_dynamics_batch(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """eval_dynamics at every row of x (K, n) and u (K, m), as a (K, n)
        array equal to it bit for bit: the drift plus u_j times column j,
        added channel by channel in order."""
        out = self._drift_batch(0.0, x)
        for j, fn in enumerate(self._column_batches):
            out = out + u[:, j, None] * fn(0.0, x)
        return out

    def closed_loop_exprs(self, controls: Sequence[Expr]) -> list[Expr]:
        """xdot expressions with each u_j replaced by controls[j]."""
        out = []
        for i in range(self.n):
            e = self.drift_exprs[i]
            for j, c in enumerate(controls):
                e = _add(e, _mul(c, self.column_exprs[j][i]))
            out.append(e)
        return out

    # ------------------------------------------------------------ jacobians

    def _jacobian_exprs(self, key: str, exprs: Sequence[Expr]):
        cached = self._jac_cache.get(key)
        if cached is not None:
            return cached
        flat: list[Expr] = []
        kink_args: list[Expr] = []
        for e in exprs:
            flat += [diff(e, f"x{j}") for j in range(1, self.n + 1)]
            kink_args += kink_arguments(e)
        cached = self._jac_cache[key] = (compile_scalar(flat), kink_args)
        return cached

    def _eval_jac(self, key: str, exprs: Sequence[Expr],
                  x: Sequence[float]) -> np.ndarray:
        fn, kink_args = self._jacobian_exprs(key, exprs)
        for arg in kink_args:
            if abs(evaluate(arg, x)) <= 1e-14:
                raise KinkError(
                    f"Jacobian requested on a kink of {to_source(arg)} at x={list(x)}")
        flat = fn(0.0, x)
        return np.asarray(flat, dtype=float).reshape(self.n, self.n)

    def jacobian_drift(self, x: Sequence[float]) -> np.ndarray:
        return self._eval_jac("drift", self.drift_exprs, x)

    def jacobian_column(self, j: int, x: Sequence[float]) -> np.ndarray:
        return self._eval_jac(f"col{j}", self.column_exprs[j], x)


def lie_bracket_adfb(sys: ControlSystem, x: Sequence[float]) -> np.ndarray:
    """ad_f b = (db/dx) f - (df/dx) b with f the stored drift and b the
    first control column."""
    f = np.asarray(sys.eval_drift(x), dtype=float)
    b = np.asarray(sys.eval_columns(x)[0], dtype=float)
    jac_f = sys.jacobian_drift(x)
    jac_b = sys.jacobian_column(0, x)
    return jac_b @ f - jac_f @ b


def equilibrium_residual(sys: ControlSystem, x: Sequence[float]) -> float:
    """det [f(x) b(x)] for planar systems, with b the first control column;
    zero where the drift and the control column are parallel."""
    if sys.n != 2:
        raise SystemError("residual is defined for planar systems")
    f = sys.eval_drift(x)
    b = sys.eval_columns(x)[0]
    return f[0] * b[1] - f[1] * b[0]


def rank_condition(sys: ControlSystem, x: Sequence[float]) -> bool:
    """True when [b, ad_f b] has full rank at x (planar single-input)."""
    if sys.n != 2 or sys.m != 1:
        raise SystemError("rank condition implemented for n=2, m=1")
    b = np.asarray(sys.eval_columns(x)[0], dtype=float)
    ad = lie_bracket_adfb(sys, x)
    det = b[0] * ad[1] - b[1] * ad[0]
    scale = max(1.0, float(np.linalg.norm(b) * np.linalg.norm(ad)))
    return abs(det) > RANK_TOL * scale


class LyapunovSpec:
    """A candidate Lyapunov function V given as source text, with the level
    epsilon that defines the seed set {V = epsilon}.

    Checks V(0) = 0 and V > 0 on a coarse sample of a box around the origin
    at construction; the gradient is formed symbolically.
    """

    def __init__(self, source: str, n: int, epsilon: float | None = None):
        if epsilon is not None and epsilon <= 0.0:
            raise SystemError("epsilon must be positive")
        self.n = n
        self.source = source
        self.epsilon = epsilon
        self.expr = parse(source, n)
        self._v_fn = compile_scalar([self.expr])
        self.grad_exprs = tuple(diff(self.expr, f"x{j}")
                                for j in range(1, n + 1))
        self._grad_fn = compile_scalar(self.grad_exprs)
        v0 = self.value([0.0] * n)
        if abs(v0) > 1e-12:
            raise SystemError(f"V(0) = {v0:.3e}, expected 0")
        rng = np.random.default_rng(20260825)
        for _ in range(200):
            pt = rng.uniform(-POSITIVITY_BOX, POSITIVITY_BOX, size=n)
            if float(np.linalg.norm(pt)) < 1e-6:
                continue
            if self.value(pt) <= 0.0:
                raise SystemError(
                    f"V is not positive at sampled point {pt.tolist()}")

    def value(self, x: Sequence[float]) -> float:
        return self._v_fn(0.0, x)[0]

    def gradient(self, x: Sequence[float]) -> list[float]:
        return self._grad_fn(0.0, x)

    def radial_point(self, direction: Sequence[float], level: float) -> np.ndarray:
        """Point x = r*d with V(x) = level, found by bisection along the ray."""
        d = np.asarray(direction, dtype=float)
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            raise SystemError("direction must be non-zero")
        d = d / norm
        lo, hi = 0.0, 1.0
        while self.value(hi * d) < level:
            hi *= 2.0
            if hi > RADIAL_MAX:
                raise SystemError(
                    f"level {level} not reached along direction {d.tolist()}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.value(mid * d) < level:
                lo = mid
            else:
                hi = mid
            if hi - lo <= RADIAL_TOL:
                break
        return 0.5 * (lo + hi) * d
