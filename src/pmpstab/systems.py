"""Control system and Lyapunov function descriptions.

A system is either control-affine, xdot = f(x) + sum_j u_j b_j(x), or a
general xdot = f(t, x, u).  All fields are parsed from the small expression
language in `exprs`; compiled evaluators are cached on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exprs import (
    Expr, Var, _add, _mul, compile_batch, compile_scalar, diff_with_flag,
    evaluate, free_vars, kink_arguments, parse, substitute, to_source,
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

    def midpoint(self) -> list[float]:
        if self.is_box:
            return [(l + h) / 2.0 for l, h in zip(self.lower, self.upper)]
        return list(self.values[0])

    def clip(self, u: Sequence[float]) -> list[float]:
        if not self.is_box:
            raise SystemError("clip is defined for box control sets only")
        return [min(max(v, l), h) for v, l, h in zip(u, self.lower, self.upper)]


_T = Var("t", 0)


def _parse_all(sources: Sequence[str], n: int, m: int) -> tuple[Expr, ...]:
    return tuple(parse(s, n, m) for s in sources)


class ControlSystem:
    """A finite-dimensional control system with compiled evaluators.

    Affine form stores the drift f and input columns b_j of
    xdot = f(x) + sum_j u_j b_j(x); general form stores xdot = f(t, x, u)
    directly.  Affine pieces must be autonomous.
    """

    def __init__(self, n: int, omega: ControlSet, *,
                 drift: Sequence[str] | None = None,
                 columns: Sequence[Sequence[str]] | None = None,
                 general: Sequence[str] | None = None,
                 name: str = "",
                 check_origin: bool = True):
        if n < 1:
            raise SystemError("state dimension must be positive")
        self.n = n
        self.m = omega.m
        self.omega = omega
        self.name = name
        self.affine = general is None
        if self.affine:
            if drift is None or columns is None:
                raise SystemError("affine form needs drift and columns")
            if len(drift) != n:
                raise SystemError("drift must have n components")
            if len(columns) != self.m:
                raise SystemError("need one column per control channel")
            # affine pieces may not mention u (m=0 at parse time) or t
            self.drift_exprs = _parse_all(drift, n, 0)
            self.column_exprs = tuple(_parse_all(col, n, 0) for col in columns)
            for col in self.column_exprs:
                if len(col) != n:
                    raise SystemError("each column must have n components")
            pieces = self.drift_exprs + tuple(e for col in self.column_exprs for e in col)
            if any(_T in free_vars(e) for e in pieces):
                raise SystemError("affine pieces must be autonomous (no t)")
            self.f_exprs = None
            self._drift_fn = compile_scalar(self.drift_exprs)
            self._column_fns = tuple(compile_scalar(col) for col in self.column_exprs)
            self._drift_batch = compile_batch(self.drift_exprs)
            self._column_batches = tuple(compile_batch(col) for col in self.column_exprs)
            self.autonomous = True
        else:
            if drift is not None or columns is not None:
                raise SystemError("give either affine pieces or a general f, not both")
            if len(general) != n:
                raise SystemError("f must have n components")
            self.f_exprs = _parse_all(general, n, self.m)
            self.drift_exprs = None
            self.column_exprs = None
            self._f_fn = compile_scalar(self.f_exprs)
            self.autonomous = not any(_T in free_vars(e) for e in self.f_exprs)
        self._jac_cache: dict[str, tuple] = {}
        if check_origin:
            if self.affine:
                r = self._drift_fn(0.0, [0.0] * n, [])
            else:
                r = self._f_fn(0.0, [0.0] * n, self.omega.midpoint())
            if max(abs(v) for v in r) > 1e-12:
                raise SystemError(
                    "origin is not an equilibrium of the uncontrolled system "
                    f"(residual {max(abs(v) for v in r):.3e}); pass "
                    "check_origin=False to skip this check")

    # ------------------------------------------------------------- dynamics

    def eval_drift(self, x: Sequence[float]) -> list[float]:
        if not self.affine:
            raise SystemError("drift is defined for affine systems only")
        return self._drift_fn(0.0, x, [])

    def eval_columns(self, x: Sequence[float]) -> list[list[float]]:
        if not self.affine:
            raise SystemError("columns are defined for affine systems only")
        return [fn(0.0, x, []) for fn in self._column_fns]

    def eval_dynamics(self, t: float, x: Sequence[float], u: Sequence[float]) -> list[float]:
        if self.affine:
            out = self._drift_fn(0.0, x, [])
            for j, fn in enumerate(self._column_fns):
                col = fn(0.0, x, [])
                uj = u[j]
                for i in range(self.n):
                    out[i] += uj * col[i]
            return out
        return self._f_fn(t, x, u)

    def eval_dynamics_batch(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """eval_dynamics at every row of x (K, n) and u (K, m) of an affine
        system, as an (n, K) array equal to it bit for bit: the drift plus
        u_j times column j, added channel by channel in order."""
        if not self.affine:
            raise SystemError("batched dynamics need the affine form")
        out = self._drift_batch(0.0, x, None)
        for j, fn in enumerate(self._column_batches):
            out = out + u[:, j] * fn(0.0, x, None)
        return out

    def closed_loop_exprs(self, controls: Sequence[Expr]) -> list[Expr]:
        """xdot expressions with each u_j replaced by controls[j]."""
        if not self.affine:
            mapping = {Var("u", j + 1): c for j, c in enumerate(controls)}
            return [substitute(e, mapping) for e in self.f_exprs]
        out = []
        for i in range(self.n):
            e = self.drift_exprs[i]
            for j, c in enumerate(controls):
                e = _add(e, _mul(c, self.column_exprs[j][i]))
            out.append(e)
        return out

    # ------------------------------------------------------------ jacobians

    def _jacobian_exprs(self, key: str, exprs: Sequence[Expr], m: int):
        cached = self._jac_cache.get(key)
        if cached is not None:
            return cached
        rows = []
        kink_args: list[Expr] = []
        for e in exprs:
            row = []
            for j in range(1, self.n + 1):
                de, kinked = diff_with_flag(e, f"x{j}")
                row.append(de)
                if kinked:
                    kink_args.extend(kink_arguments(e))
            rows.append(row)
        flat = [de for row in rows for de in row]
        fn = compile_scalar(flat)
        cached = (fn, kink_args, m)
        self._jac_cache[key] = cached
        return cached

    def _eval_jac(self, key: str, exprs: Sequence[Expr], t: float,
                  x: Sequence[float], u: Sequence[float]) -> np.ndarray:
        fn, kink_args, _ = self._jacobian_exprs(key, exprs, len(u))
        for arg in kink_args:
            if abs(evaluate(arg, x, u, t)) <= 1e-14:
                raise KinkError(
                    f"Jacobian requested on a kink of {to_source(arg)} at x={list(x)}")
        flat = fn(t, x, u)
        return np.asarray(flat, dtype=float).reshape(self.n, self.n)

    def jacobian_drift(self, x: Sequence[float]) -> np.ndarray:
        if not self.affine:
            raise SystemError("drift Jacobian is defined for affine systems only")
        return self._eval_jac("drift", self.drift_exprs, 0.0, x, [])

    def jacobian_column(self, j: int, x: Sequence[float]) -> np.ndarray:
        if not self.affine:
            raise SystemError("column Jacobian is defined for affine systems only")
        return self._eval_jac(f"col{j}", self.column_exprs[j], 0.0, x, [])

    def jacobian_x(self, t: float, x: Sequence[float], u: Sequence[float]) -> np.ndarray:
        """d(xdot)/dx at frozen u."""
        if self.affine:
            jac = self.jacobian_drift(x)
            for j in range(self.m):
                jac = jac + u[j] * self.jacobian_column(j, x)
            return jac
        return self._eval_jac("general", self.f_exprs, t, x, u)


def lie_bracket_adfb(sys: ControlSystem, x: Sequence[float], j: int = 0) -> np.ndarray:
    """ad_f b_j = (db_j/dx) f - (df/dx) b_j with f the stored drift."""
    if not sys.affine:
        raise SystemError("Lie bracket needs the affine form")
    f = np.asarray(sys.eval_drift(x), dtype=float)
    b = np.asarray(sys.eval_columns(x)[j], dtype=float)
    jac_f = sys.jacobian_drift(x)
    jac_b = sys.jacobian_column(j, x)
    return jac_b @ f - jac_f @ b


def equilibrium_residual(sys: ControlSystem, x: Sequence[float], j: int = 0) -> float:
    """det [f(x) b_j(x)] for planar single-input systems; zero where the
    drift and the control column are parallel."""
    if sys.n != 2:
        raise SystemError("residual is defined for planar systems")
    if not sys.affine:
        raise SystemError("residual needs the affine form")
    f = sys.eval_drift(x)
    b = sys.eval_columns(x)[j]
    return f[0] * b[1] - f[1] * b[0]


def rank_condition(sys: ControlSystem, x: Sequence[float]) -> bool:
    """True when [b, ad_f b] has full rank at x (planar single-input)."""
    if sys.n != 2 or sys.m != 1:
        raise SystemError("rank condition implemented for n=2, m=1")
    b = np.asarray(sys.eval_columns(x)[0], dtype=float)
    ad = lie_bracket_adfb(sys, x, 0)
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
        self.expr = parse(source, n, 0)
        self._v_fn = compile_scalar([self.expr])
        grads = []
        for j in range(1, n + 1):
            de, _ = diff_with_flag(self.expr, f"x{j}")
            grads.append(de)
        self.grad_exprs = tuple(grads)
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
        return self._v_fn(0.0, x, [])[0]

    def gradient(self, x: Sequence[float]) -> list[float]:
        return self._grad_fn(0.0, x, [])

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
