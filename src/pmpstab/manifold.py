"""Construction of the characteristic manifold swept by reversed
bicharacteristics started on a Lyapunov level set.

Seeds are the points of {V = eps} paired with nu = grad V; each seed is flowed
by the reversed characteristic system (xdot = -dS/dnu, nudot = +dS/dx) at the
frozen Hamiltonian-minimizing control, with the control re-resolved at every
switching event sigma = <nu, b(x)> = 0.  The generating value
W = V(x0) + int nu . dx is accumulated along each branch.  The reversed
branches and `flow_forward`, which runs the flow forwards, are generators
run by the lockstep DOP853 engine in `_dop853`: each asks for one solver
segment per stretch between switches (`_FlowCompiler.request`), with
`hamiltonian.branch_control` as the switch rule.  All branches of a build
advance in lockstep, each bit for bit as scipy's DOP853 integrator would
give it alone.

Branches store dense sample arrays (solver steps, a forced tau grid and the
event points); the assembled manifold supports nearest-sample queries through
a KD-tree, switching-curve extraction and rank/isotropy sections.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from . import _dop853, exprs as ex
from .hamiltonian import SWITCH_TOL, branch_control, hamiltonian_values
from .systems import ControlSystem, LyapunovSpec, SystemError, lie_bracket_adfb

__all__ = [
    "Seed", "BranchEvent", "Bicharacteristic", "LagrangianManifold",
    "QueryResult", "NotCoveredError", "SwitchPoint", "JacobianInfo",
    "seed_manifold", "integrate_bicharacteristic", "build_manifold",
    "jacobian_info",
    "illumination_check", "illumination_grid", "flow_forward",
    "switching_curve", "switching_polylines", "export_manifold_csv",
    "cross_path_integral", "two_path_generating_values",
    "TRANSVERSALITY_TOL", "FORCED_TAU_STEP", "FLOW_RTOL", "FLOW_ATOL",
    "CHART_DET_TOL", "TIE_TOL",
]

# a switch with |<nu, ad_f b>| at or below this ends the branch
TRANSVERSALITY_TOL = 1e-8
# tau spacing of the forced sample grid added to the solver steps
FORCED_TAU_STEP = 0.01
# DOP853 tolerances of every segment of the characteristic flow
FLOW_RTOL = 1e-10
FLOW_ATOL = 1e-12
# jacobian_info flags the (psi, tau) chart degenerate at |det| <= this
CHART_DET_TOL = 1e-6
# query_ties counts a sample as tied when its distance is within this of
# the nearest one
TIE_TOL = 1e-9
_EVENT_NUDGE = 1e-12

EVENT_FLAG = {"": 0, "switch": 1, "transversality-failure": 2, "budget": 3}


@dataclass(frozen=True)
class Seed:
    index: int
    psi: float
    x0: tuple[float, ...]
    nu0: tuple[float, ...]


@dataclass(frozen=True)
class BranchEvent:
    kind: str            # 'switch' | 'transversality-failure' | 'budget'
    tau: float
    x: tuple[float, ...]
    nu: tuple[float, ...]
    transversality: float
    sample_index: int


@dataclass
class Bicharacteristic:
    seed: Seed
    tau: np.ndarray      # (K,)
    x: np.ndarray        # (K, n)
    nu: np.ndarray       # (K, n)
    u: np.ndarray        # (K, m); event samples carry the post-switch control
    w: np.ndarray        # (K,)
    s: np.ndarray        # (K,) Hamiltonian value at the frozen sample control
    events: list[BranchEvent]
    degenerate_seed: bool
    stopped: bool        # ended before tau_max (transversality / budget)

    def interp_state(self, tau: float) -> tuple[np.ndarray, np.ndarray]:
        if tau < self.tau[0] - 1e-12 or tau > self.tau[-1] + 1e-12:
            raise ValueError(
                f"tau={tau} outside branch {self.seed.index} range "
                f"[{self.tau[0]}, {self.tau[-1]}]")
        xi = np.array([np.interp(tau, self.tau, self.x[:, i])
                       for i in range(self.x.shape[1])])
        ni = np.array([np.interp(tau, self.tau, self.nu[:, i])
                       for i in range(self.nu.shape[1])])
        return xi, ni

    def interp_w(self, tau: float) -> float:
        if tau < self.tau[0] - 1e-12 or tau > self.tau[-1] + 1e-12:
            raise ValueError(
                f"tau={tau} outside branch {self.seed.index} range")
        return float(np.interp(tau, self.tau, self.w))

    def control_at(self, tau: float) -> np.ndarray:
        idx = int(np.searchsorted(self.tau, tau, side="right")) - 1
        idx = min(max(idx, 0), len(self.tau) - 1)
        return self.u[idx]


class NotCoveredError(RuntimeError):
    def __init__(self, x, distance, radius):
        self.x = tuple(float(v) for v in x)
        self.distance = distance
        self.radius = radius
        if distance is None:
            msg = f"no manifold sample near x={self.x} (radius {radius:.3e})"
        else:
            msg = (f"nearest manifold sample is {distance:.3e} away from "
                   f"x={self.x}, beyond radius {radius:.3e}")
        super().__init__(msg)


@dataclass(frozen=True)
class QueryResult:
    x: tuple[float, ...]
    nu: tuple[float, ...]
    u: tuple[float, ...]
    w: float
    s: float
    tau: float
    psi: float
    branch: int
    sample: int
    distance: float


@dataclass(frozen=True)
class SwitchPoint:
    x: tuple[float, ...]
    psi: float
    tau: float
    branch: int
    family: int


@dataclass(frozen=True)
class JacobianInfo:
    det: float
    dx_dpsi: np.ndarray
    dx_dtau: np.ndarray
    degenerate: bool


# ------------------------------------------------------------------- seeds

def seed_manifold(lyap: LyapunovSpec, count: int) -> list[Seed]:
    """Seeds on {V = epsilon} with nu = grad V, where epsilon is the level
    stored on the LyapunovSpec.

    Planar systems use `count` rays at angles 2*pi*k/count; scalar systems
    always produce the two boundary points of the level interval.
    """
    epsilon = lyap.epsilon
    if epsilon is None or epsilon <= 0.0:
        raise SystemError("epsilon must be positive")
    seeds = []
    if lyap.n == 1:
        for idx, d in enumerate((1.0, -1.0)):
            x0 = lyap.radial_point([d], epsilon)
            nu0 = lyap.gradient(x0)
            seeds.append(Seed(idx, 0.0 if d > 0 else math.pi,
                              tuple(x0), tuple(nu0)))
        return seeds
    if lyap.n != 2:
        raise SystemError("seeding is implemented for n = 1 and n = 2")
    if count < 8:
        raise SystemError("need at least 8 seeds")
    for k in range(count):
        psi = 2.0 * math.pi * k / count
        x0 = lyap.radial_point([math.cos(psi), math.sin(psi)], epsilon)
        nu0 = lyap.gradient(x0)
        seeds.append(Seed(k, psi, tuple(x0), tuple(nu0)))
    return seeds


# ------------------------------------------------------- characteristic flow

class _FlowCompiler:
    """Per-system cache of the compiled characteristic flow and of the
    solver segments that both flows are built from.

    For a frozen control u the combined state is y = (x, nu, W); the
    reversed RHS (-xdot, J^T nu, <nu, -xdot>) is emitted by
    `exprs.compile_scalar` as one exec-compiled function that reads y once
    with y.tolist() and returns all 2n+1 entries, and by
    `exprs.compile_batch` for many states at once, equal row by row.
    The forward RHS is the same body negated entry by entry, which IEEE
    negation makes exact.  The system must have a single input and a box
    control set; any other raises SystemError.  The compiler refers to its
    system weakly, so that the `_compiler` cache does not keep systems
    alive.
    """

    def __init__(self, sys: ControlSystem):
        if not (sys.m == 1 and sys.omega.is_box):
            raise SystemError("the manifold needs a control-affine system "
                              "with a single input and a box control set")
        self._sys = weakref.ref(sys)
        self.n = sys.n
        self._cache: dict[tuple, tuple] = {}
        n = sys.n
        # sigma event needs <nu, b(x)> with nu relabelled to x_{n+1..2n}
        sigma_e: ex.Expr = ex.Num(0.0)
        for i in range(n):
            sigma_e = ex._add(
                sigma_e, ex._mul(ex.Var(n + 1 + i), sys.column_exprs[0][i]))
        self.sigma_event = _event(sigma_e)

    @property
    def sys(self) -> ControlSystem:
        return self._sys()

    def flow(self, key: tuple) -> tuple:
        """The (scalar, batch) right-hand sides of the flow at frozen
        control key[0] in the time direction key[1], 'reversed' or
        'forward'."""
        fns = self._cache.get(key)
        if fns is not None:
            return fns
        n = self.n
        xdot = self.sys.closed_loop_exprs([ex._num(v) for v in key[0]])
        body: list[ex.Expr] = [ex._neg(e) for e in xdot]
        for k in range(n):
            acc: ex.Expr = ex.Num(0.0)
            for i in range(n):
                dik, _ = ex.diff_with_flag(xdot[i], f"x{k + 1}")
                acc = ex._add(acc, ex._mul(dik, ex.Var(n + 1 + i)))
            body.append(acc)
        if key[1] == "forward":
            body = [ex._neg(e) for e in body]
        # dW pairs nu_k = x_{n+k} with the first n entries: <nu, -xdot>
        # reversed, <nu, xdot> forward
        weights = range(n + 1, 2 * n + 1)
        fns = (ex.compile_scalar(body, weights), ex.compile_batch(body, weights))
        self._cache[key] = fns
        return fns

    def request(self, y: np.ndarray, t0: float, t_end: float,
                u: Sequence[float], s_eff: float, direction: str,
                record: str | None = None,
                budget: bool = False) -> _dop853.Segment:
        """The engine request for one solver run of the flow at frozen
        control u from (t0, y) toward t_end, to be ended by the next
        switch: event 0 is sigma crossing zero against its current sign
        s_eff, and event 1, with `budget`, the budget event rising through
        zero.

        A start on the switching surface (|sigma| <= SWITCH_TOL) first
        steps off it by _EVENT_NUDGE along the flow, or by t_end - t0 when
        that is shorter.  The segment starts after that step; when the
        step reaches t_end, the segment starts at t_end and is not to be
        run.
        """
        key = (tuple(float(v) for v in u), direction)
        if abs(self.sigma_event[0](t0, y)) <= SWITCH_TOL:
            f = np.asarray(self.flow(key)[0](t0, y))
            if t0 + _EVENT_NUDGE <= t_end:
                y, t0 = y + _EVENT_NUDGE * f, t0 + _EVENT_NUDGE
            else:
                y, t0 = y + (t_end - t0) * f, t_end
        directions = (-s_eff, 1.0) if budget else (-s_eff,)
        return _dop853.Segment(t0, y, t_end, key, directions, record)

    def run(self, gens: Sequence, events: Sequence, dense: bool) -> list:
        """Run flow generators in lockstep (see `_dop853.run`); the samples
        are the solver steps plus a FORCED_TAU_STEP grid."""
        return _dop853.run(gens, self.flow, events, dense=dense,
                           rtol=FLOW_RTOL, atol=FLOW_ATOL,
                           grid_step=FORCED_TAU_STEP,
                           min_gap=10 * _EVENT_NUDGE)


_COMPILERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _compiler(sys: ControlSystem) -> _FlowCompiler:
    """The one _FlowCompiler of `sys`, shared by build_manifold and every
    flow_forward call; built on first use, dropped with the system."""
    compiler = _COMPILERS.get(sys)
    if compiler is None:
        compiler = _COMPILERS[sys] = _FlowCompiler(sys)
    return compiler


def _event(e: ex.Expr) -> tuple:
    """The event function e of the flow state as a (scalar, batch) pair of
    the engine."""
    scalar, batch = ex.compile_scalar([e]), ex.compile_batch([e])
    return (lambda t, y: scalar(t, y)[0], lambda t, y: batch(t, y)[:, 0])


def _budget_event(n: int, budget: float) -> tuple:
    """Event |x|^2 - budget^2, summed left to right from 0."""
    s: ex.Expr = ex.Num(0.0)
    for i in range(1, n + 1):
        s = ex.BinOp("+", s, ex.BinOp("*", ex.Var(i), ex.Var(i)))
    return _event(ex.BinOp("-", s, ex.Num(budget * budget)))


def _branch(compiler: _FlowCompiler, seed: Seed, tau_max: float,
            epsilon: float):
    """Generator of one reversed branch (see integrate_bicharacteristic):
    yields its solver segments and returns the Bicharacteristic."""
    sys = compiler.sys
    n = sys.n

    y = np.concatenate([seed.x0, seed.nu0, [epsilon]])

    u_parts: list[np.ndarray] = []      # per segment: the sample controls
    events: list[BranchEvent] = []
    samples = None
    sample_count = 0
    stopped = False

    u, s_eff, sigma0, non_transversal = branch_control(
        sys, y[:n], y[n:2 * n], "reversed")
    degenerate_seed = abs(sigma0) <= SWITCH_TOL

    def record_event(kind: str, tau: float, yv: np.ndarray, trans: float,
                     sample_index: int) -> None:
        events.append(BranchEvent(kind, float(tau),
                                  tuple(yv[:n]), tuple(yv[n:2 * n]),
                                  float(trans), sample_index))

    def transversality(yv: np.ndarray) -> float:
        return float(np.dot(yv[n:2 * n], lie_bracket_adfb(sys, yv[:n])))

    if degenerate_seed:
        trans = transversality(y)
        if non_transversal or abs(trans) <= TRANSVERSALITY_TOL:
            # the branch is the seed sample alone
            record_event("transversality-failure", 0.0, y, trans, 0)
            return _assemble(sys, seed, np.array([0.0]), y.reshape(1, -1),
                             np.array([u], dtype=float), events, True, True)
        # otherwise the seed lies on the switching surface; sigma leaves
        # zero with the resolved sign, so this is a departure, not a
        # recorded switch

    tau0 = 0.0
    while tau0 < tau_max:
        seg = compiler.request(y, tau0, tau_max, u, s_eff, "reversed",
                               "grid" if sample_count == 0 else "grid-after",
                               budget=True)
        if seg.t0 >= tau_max:
            # a switch within the nudge of tau_max: the flow from there
            # adds no sample
            break
        out = yield seg
        if not out.success:
            raise RuntimeError(f"reversed flow failed: {out.message}")
        samples = out.samples
        u_rows = np.broadcast_to(np.asarray(u, dtype=float),
                                 (samples.count - sample_count, sys.m)).copy()
        u_parts.append(u_rows)
        sample_count = samples.count
        y = out.y.copy()
        tau0 = out.t

        if out.event == 0:
            trans = transversality(y)
            if abs(trans) <= TRANSVERSALITY_TOL:
                record_event("transversality-failure", tau0, y, trans,
                             sample_count - 1)
                stopped = True
                break
            record_event("switch", tau0, y, trans, sample_count - 1)
            u, s_eff, _, _ = branch_control(sys, y[:n], y[n:2 * n], "reversed")
            # the event sample carries the post-switch control
            u_rows[-1] = u
        elif out.event == 1:
            record_event("budget", tau0, y, 0.0, sample_count - 1)
            stopped = True
            break
        else:
            break  # reached tau_max

    return _assemble(sys, seed, samples.t[:sample_count],
                     samples.y[:sample_count], np.concatenate(u_parts),
                     events, degenerate_seed, stopped)


def _assemble(sys, seed, tau, y, u, events, degenerate_seed, stopped):
    """The Bicharacteristic of sample times tau and flow states y (K, 2n+1),
    with its own copies of the arrays."""
    n = sys.n
    x, nu = y[:, :n].copy(), y[:, n:2 * n].copy()
    w = y[:, 2 * n].copy()
    s = hamiltonian_values(sys, x, nu, u)
    return Bicharacteristic(seed, tau.copy(), x, nu, u, w, s, events,
                            degenerate_seed, stopped)


def _run_branches(compiler: _FlowCompiler, seeds: Sequence[Seed],
                  tau_max: float, budget: float, epsilon: float) -> list:
    """All branches of `seeds` in lockstep; per seed, the Bicharacteristic
    or the exception it failed with."""
    return compiler.run(
        [_branch(compiler, seed, tau_max, epsilon) for seed in seeds],
        [compiler.sigma_event, _budget_event(compiler.n, budget)],
        dense=True)


def integrate_bicharacteristic(compiler: _FlowCompiler, seed: Seed,
                               tau_max: float, budget: float,
                               epsilon: float) -> Bicharacteristic:
    """Integrate one reversed branch of `compiler.sys` from `seed` up to
    tau_max.

    W starts at `epsilon`, the level of the seed set.  The branch stops
    early on a non-transversal switch (|<nu, ad_f b>| at or below
    TRANSVERSALITY_TOL at sigma = 0) or when |x| reaches `budget`.
    """
    (result,) = _run_branches(compiler, [seed], tau_max, budget, epsilon)
    if isinstance(result, Exception):
        raise result
    return result


def _forward(compiler: _FlowCompiler, x0, nu0, duration: float):
    """Generator of flow_forward: yields its solver segments and returns
    (x, nu, switch count)."""
    sys = compiler.sys
    n = sys.n
    y = np.concatenate([x0, nu0, [0.0]])
    t0 = 0.0
    switches = 0
    u, s_eff, _, degen = branch_control(sys, y[:n], y[n:2 * n], "forward")
    if degen:
        raise SystemError("forward flow started at a non-transversal switch point")
    while t0 < duration:
        seg = compiler.request(y, t0, duration, u, s_eff, "forward")
        if seg.t0 == duration:
            y = seg.y0
            break
        out = yield seg
        if not out.success:
            raise RuntimeError(f"forward flow failed: {out.message}")
        y = out.y.copy()
        t0 = out.t
        if not (out.event == 0 and t0 < duration):
            break
        switches += 1
        u, s_eff, _, degen = branch_control(sys, y[:n], y[n:2 * n], "forward")
        if degen:
            raise SystemError("non-transversal switch on the forward flow")
    return y[:n].copy(), y[n:2 * n].copy(), switches


def flow_forward(sys: ControlSystem, x0: Sequence[float], nu0: Sequence[float],
                 duration: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Integrate the forward characteristic flow for `duration`, re-selecting
    the control at switching events; returns (x, nu, switch count).

    Used to check that branch samples flow back onto the seed set.
    """
    compiler = _compiler(sys)
    (result,) = compiler.run([_forward(compiler, x0, nu0, duration)],
                             [compiler.sigma_event], dense=False)
    if isinstance(result, Exception):
        raise result
    return result


# ----------------------------------------------------------------- assembly

class LagrangianManifold:
    """Assembled branch family with a cKDTree nearest-sample index.

    `dropped` counts the seeds whose branch failed and is missing from
    `branches`.
    """

    def __init__(self, system: ControlSystem, lyapunov: LyapunovSpec,
                 epsilon: float, branches: list[Bicharacteristic],
                 tau_max: float, budget: float,
                 query_radius: float | None = None, dropped: int = 0):
        self.system = system
        self.lyapunov = lyapunov
        self.epsilon = epsilon
        self.branches = branches
        self.dropped = dropped
        self.tau_max = tau_max
        self.budget = budget
        self.psi = np.array([b.seed.psi for b in branches])
        n = system.n
        self.flat_x = np.vstack([b.x for b in branches])
        self.flat_nu = np.vstack([b.nu for b in branches])
        self.flat_u = np.vstack([b.u for b in branches])
        self.flat_w = np.concatenate([b.w for b in branches])
        self.flat_s = np.concatenate([b.s for b in branches])
        self.flat_tau = np.concatenate([b.tau for b in branches])
        self.flat_branch = np.concatenate(
            [np.full(len(b.tau), i, dtype=int) for i, b in enumerate(branches)])
        self.flat_sample = np.concatenate(
            [np.arange(len(b.tau), dtype=int) for b in branches])
        if query_radius is None:
            gaps = [np.linalg.norm(np.diff(b.x, axis=0), axis=1)
                    for b in branches if len(b.tau) > 1]
            all_gaps = np.concatenate(gaps) if gaps else np.array([1.0])
            query_radius = 2.0 * float(np.median(all_gaps))
            if query_radius <= 0.0:
                query_radius = 1e-6
        self.query_radius = query_radius
        self._tree = cKDTree(self.flat_x)

    @property
    def n_samples(self) -> int:
        return len(self.flat_tau)

    @functools.cached_property
    def nu2_lipschitz(self) -> float:
        """Largest |d nu2| / |dx| ratio between consecutive samples.

        The observer's control-mismatch bound uses it as the constant M:
        when the surrogate and true states straddle the switching surface,
        the switching value at the true state is at most M |e2| from zero.
        """
        worst = 0.0
        for b in self.branches:
            dnu = np.abs(np.diff(b.nu[:, 1]))
            dx = np.linalg.norm(np.diff(b.x, axis=0), axis=1)
            keep = dx > 1e-12
            if keep.any():
                worst = max(worst, float(np.max(dnu[keep] / dx[keep])))
        return worst

    def _result(self, idx: int, dist: float) -> QueryResult:
        return QueryResult(
            tuple(self.flat_x[idx]), tuple(self.flat_nu[idx]),
            tuple(self.flat_u[idx]), float(self.flat_w[idx]),
            float(self.flat_s[idx]), float(self.flat_tau[idx]),
            float(self.psi[self.flat_branch[idx]]),
            int(self.flat_branch[idx]), int(self.flat_sample[idx]), dist)

    def query(self, x: Sequence[float], *, bounded: bool = True) -> QueryResult:
        p = np.asarray(x, dtype=float)
        dist, idx = self._tree.query(p)
        dist = float(dist)
        if bounded and dist > self.query_radius:
            raise NotCoveredError(p, dist, self.query_radius)
        return self._result(int(idx), dist)

    def query_ties(self, x: Sequence[float], *,
                   bounded: bool = True) -> list[QueryResult]:
        """All samples whose distance is within TIE_TOL of the minimum.

        Returned in ascending flat-index order.
        """
        p = np.asarray(x, dtype=float)
        dmin, _ = self._tree.query(p)
        dmin = float(dmin)
        if bounded and dmin > self.query_radius:
            raise NotCoveredError(p, dmin, self.query_radius)
        idxs = sorted(self._tree.query_ball_point(p, dmin + TIE_TOL))
        return [self._result(int(i),
                             float(np.linalg.norm(self.flat_x[i] - p)))
                for i in idxs]


def build_manifold(sys: ControlSystem, lyap: LyapunovSpec, count: int,
                   tau_max: float, budget: float = 1e6,
                   query_radius: float | None = None) -> LagrangianManifold:
    """Seed {V = epsilon} at the level epsilon of `lyap` and integrate
    every reversed branch.

    All branches are integrated together, in lockstep, and assembled in
    seed order; each is bit for bit what integrate_bicharacteristic gives
    for its seed alone.  Per-branch failures are tolerated up to half the seed count:
    failed branches are dropped with a warning and counted in the
    manifold's `dropped`.  A system that is not control-affine with a
    single input and a box control set, or a tau_max that is not
    positive, raises SystemError before seeding.
    """
    compiler = _compiler(sys)
    if not tau_max > 0.0:
        raise SystemError(f"tau_max must be positive, got {tau_max}")
    seeds = seed_manifold(lyap, count)
    epsilon = lyap.epsilon

    branches, failures = [], []
    for seed, result in zip(seeds, _run_branches(compiler, seeds, tau_max,
                                                 budget, epsilon)):
        if isinstance(result, Exception):  # aggregated below
            failures.append((seed.index, result))
        else:
            branches.append(result)
    if len(failures) * 2 > len(seeds):
        detail = "; ".join(f"branch {i}: {e}" for i, e in failures[:5])
        raise RuntimeError(
            f"{len(failures)} of {len(seeds)} branches failed: {detail}")
    if failures:
        import warnings
        warnings.warn(f"dropped {len(failures)} failed branches "
                      f"(first: branch {failures[0][0]}: {failures[0][1]})")
    return LagrangianManifold(sys, lyap, epsilon, branches, tau_max, budget,
                              query_radius, dropped=len(failures))


# -------------------------------------------------------------- diagnostics

def jacobian_info(man: LagrangianManifold, branch: int,
                  tau: float) -> JacobianInfo:
    """Jacobian columns of the chart (psi, tau) -> x at a branch point.

    d x/d psi is a centered difference across the neighbouring branches
    (psi is periodic); d x/d tau is the exact reversed flow velocity.  The
    chart is flagged degenerate when |det| is at most CHART_DET_TOL
    (planar only).
    """
    count = len(man.branches)
    b = man.branches[branch]
    left = man.branches[(branch - 1) % count]
    right = man.branches[(branch + 1) % count]
    x_l, _ = left.interp_state(tau)
    x_r, _ = right.interp_state(tau)
    dpsi = (man.psi[(branch + 1) % count] - man.psi[(branch - 1) % count]) \
        % (2.0 * math.pi)
    dx_dpsi = (x_r - x_l) / dpsi
    xi, _ = b.interp_state(tau)
    u = b.control_at(tau)
    dx_dtau = -np.asarray(man.system.eval_dynamics(xi, u))
    if man.system.n == 2:
        det = float(dx_dpsi[0] * dx_dtau[1] - dx_dpsi[1] * dx_dtau[0])
    else:
        det = float(np.linalg.det(np.column_stack([dx_dpsi, dx_dtau])))
    return JacobianInfo(det, dx_dpsi, dx_dtau, abs(det) <= CHART_DET_TOL)


@dataclass(frozen=True)
class IlluminationReport:
    points: np.ndarray
    status: list[str]
    inner: int
    illuminated: int
    dark: int


def box_grid(lower: Sequence[float], upper: Sequence[float],
             res: int) -> np.ndarray:
    """Nodes of a uniform box grid with `res` points per axis, one row per
    node in row-major order (the last axis varies fastest)."""
    axes = [np.linspace(lo, hi, res) for lo, hi in zip(lower, upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def illumination_check(man: LagrangianManifold,
                       points: Sequence[Sequence[float]]) -> list[str]:
    """Classify points: 'inner' if V <= eps, 'illuminated' if some branch
    sample lies within the query radius, 'dark' otherwise.  The nearest
    samples of all points come from one batched KD-tree query."""
    dist, _ = man._tree.query(
        np.asarray(points, dtype=float).reshape(-1, man.system.n))
    out = []
    for p, d in zip(points, dist.tolist()):
        if man.lyapunov.value(p) <= man.epsilon:
            out.append("inner")
        elif d > man.query_radius:
            out.append("dark")
        else:
            out.append("illuminated")
    return out


def illumination_grid(man: LagrangianManifold, lower: Sequence[float],
                      upper: Sequence[float], grid_res: int = 41) -> IlluminationReport:
    """illumination_check over a uniform box grid, with counts."""
    pts = box_grid(lower, upper, grid_res)
    status = illumination_check(man, pts)
    return IlluminationReport(pts, status,
                              status.count("inner"),
                              status.count("illuminated"),
                              status.count("dark"))


def switching_curve(man: LagrangianManifold) -> list[SwitchPoint]:
    """Switch events grouped into families.

    For each switch ordinal (first switch on a branch, second, ...) the
    branch indices holding such an event are split into circularly contiguous
    runs over the seed circle; each run is one family, ordered along it.
    """
    count = len(man.branches)
    by_ordinal: dict[int, dict[int, BranchEvent]] = {}
    for bi, b in enumerate(man.branches):
        ordinal = 0
        for evt in b.events:
            if evt.kind != "switch":
                continue
            by_ordinal.setdefault(ordinal, {})[bi] = evt
            ordinal += 1
    points: list[SwitchPoint] = []
    family = 0
    for ordinal in sorted(by_ordinal):
        members = by_ordinal[ordinal]
        present = sorted(members)
        if not present:
            continue
        runs = _circular_runs(present, count)
        for run in runs:
            for bi in run:
                evt = members[bi]
                points.append(SwitchPoint(evt.x, float(man.psi[bi]),
                                          evt.tau, bi, family))
            family += 1
    return points


def _circular_runs(indices: list[int], count: int) -> list[list[int]]:
    """Split sorted indices on the cycle Z_count into contiguous runs."""
    if len(indices) == count:
        return [indices]
    index_set = set(indices)
    runs = []
    # start each run just after a gap
    starts = [i for i in indices if (i - 1) % count not in index_set]
    for start in sorted(starts):
        run = [start]
        nxt = (start + 1) % count
        while nxt in index_set:
            run.append(nxt)
            nxt = (nxt + 1) % count
        runs.append(run)
    return runs


def switching_polylines(man: LagrangianManifold) -> list[np.ndarray]:
    points = switching_curve(man)
    families = sorted({p.family for p in points})
    out = []
    for fam in families:
        rows = [p.x for p in points if p.family == fam]
        out.append(np.asarray(rows))
    return out


# ----------------------------------------------------- cross-branch sections

def _section(man: LagrangianManifold, tau: float):
    count = len(man.branches)
    xs = np.empty((count, man.system.n))
    nus = np.empty((count, man.system.n))
    for i, b in enumerate(man.branches):
        xs[i], nus[i] = b.interp_state(tau)
    return xs, nus


def cross_path_integral(man: LagrangianManifold, tau: float):
    """Loop integral of <nu, dx/dpsi> over the transported seed curve at a
    fixed tau, plus the pointwise integrand (periodic central differences)."""
    xs, nus = _section(man, tau)
    count = len(xs)
    dpsi = 2.0 * math.pi / count
    x_psi = (np.roll(xs, -1, axis=0) - np.roll(xs, 1, axis=0)) / (2.0 * dpsi)
    integrand = np.sum(nus * x_psi, axis=1)
    integral = float(np.sum(integrand) * dpsi)
    return integral, integrand


def two_path_generating_values(man: LagrangianManifold, branch_a: int,
                               branch_b: int, tau: float):
    """Compare W on branch_b against the value transported from branch_a
    along the fixed-tau section (indices increasing from a to b)."""
    if branch_b < branch_a:
        raise ValueError("need branch_a <= branch_b")
    xs, nus = _section(man, tau)
    w_a = man.branches[branch_a].interp_w(tau)
    w_b = man.branches[branch_b].interp_w(tau)
    # trapezoid along the section between the two branches
    seg_x = xs[branch_a:branch_b + 1]
    seg_nu = nus[branch_a:branch_b + 1]
    dx = np.diff(seg_x, axis=0)
    mid_nu = 0.5 * (seg_nu[1:] + seg_nu[:-1])
    transport = float(np.sum(mid_nu * dx))
    return w_b, w_a + transport, w_b - (w_a + transport)


# ------------------------------------------------------------------- export

# rows per formatted chunk of write_table: each chunk is one string, and
# with 4096 rows the pendulum law export raised the process's peak RSS by
# about 1 MB for no gain in speed (the same with 256 rows)
_WRITE_CHUNK = 256


def _csv_field(text: str) -> str:
    """A text field as csv.writer writes it with QUOTE_MINIMAL."""
    if ',' in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_row(fields) -> str:
    if len(fields) == 1 and fields[0] == "":
        return '""'   # csv.writer quotes a lone empty field
    return ",".join(fields)


def write_table(fh, header: Sequence[str], columns: Sequence) -> None:
    """Write a header and equal-length columns as CSV rows, byte for byte
    as csv.writer does (rows end in \r\n, minimal quoting).

    Float columns are written with repr, so the text reads back to the
    same doubles; every other column (int, str) is written with str, and
    only str columns can need quotes.  Rows are formatted a chunk at a
    time to bound the memory held.
    """
    cols = [np.asarray(c) for c in columns]
    fmts = [repr if c.dtype.kind == "f" else str for c in cols]
    texts = [c.dtype.kind not in "biuf" for c in cols]
    fh.write(_csv_row([_csv_field(str(h)) for h in header]) + "\r\n")
    for lo in range(0, len(cols[0]), _WRITE_CHUNK):
        hi = lo + _WRITE_CHUNK
        parts = []
        for fmt, text, c in zip(fmts, texts, cols):
            part = map(fmt, c[lo:hi].tolist())
            parts.append(map(_csv_field, part) if text else part)
        rows = zip(*parts)
        if len(cols) == 1:
            fh.write("".join(_csv_row(r) + "\r\n" for r in rows))
        else:
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def manifold_table(man: LagrangianManifold) -> tuple[list[str], list]:
    """Header and columns of the flat sample table, one row per sample."""
    n = man.system.n
    header = (["psi", "tau"] + [f"x{i+1}" for i in range(n)]
              + [f"nu{i+1}" for i in range(n)] + ["u", "W", "S", "event_flag"])
    flags = np.zeros(man.n_samples, dtype=int)
    start = 0
    for b in man.branches:
        for evt in b.events:
            flags[start + evt.sample_index] = EVENT_FLAG[evt.kind]
        start += len(b.tau)
    return header, [man.psi[man.flat_branch], man.flat_tau, *man.flat_x.T,
                    *man.flat_nu.T, *man.flat_u.T, man.flat_w, man.flat_s,
                    flags]


def export_manifold_csv(man: LagrangianManifold, path: str) -> None:
    with open(path, "w", newline="") as fh:
        write_table(fh, *manifold_table(man))
