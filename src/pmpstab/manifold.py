"""Construction of the characteristic manifold swept by reversed
bicharacteristics started on a Lyapunov level set.

Seeds are the points of {V = eps} paired with nu = grad V; each seed is flowed
by the reversed characteristic system (xdot = -dS/dnu, nudot = +dS/dx) at the
frozen Hamiltonian-minimizing control, with the control re-resolved at every
switching event sigma = <nu, b(x)> = 0.  The generating value
W = V(x0) + int nu . dx is accumulated along each branch.

Branches store dense sample arrays (solver steps, a forced tau grid and the
event points); the assembled manifold supports nearest-sample queries through
a KD-tree, switching-curve extraction and rank/isotropy sections.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.spatial import cKDTree

from . import exprs as ex
from .hamiltonian import SWITCH_TOL, branch_control, hamiltonian_values, reversed_rhs
from .systems import ControlSystem, LyapunovSpec, SystemError, lie_bracket_adfb

__all__ = [
    "Seed", "BranchEvent", "Bicharacteristic", "LagrangianManifold",
    "QueryResult", "NotCoveredError", "SwitchPoint", "JacobianInfo",
    "seed_manifold", "integrate_bicharacteristic", "build_manifold",
    "query_manifold", "jacobian_along", "jacobian_info",
    "illumination_check", "illumination_grid", "flow_forward",
    "switching_curve", "switching_polylines", "export_manifold_csv",
    "cross_path_integral", "two_path_generating_values",
    "TRANSVERSALITY_TOL", "FORCED_TAU_STEP", "FLOW_RTOL", "FLOW_ATOL",
    "CHART_DET_TOL",
]

# a switch with |<nu, ad_f b>| at or below this ends the branch
TRANSVERSALITY_TOL = 1e-8
# tau spacing of the forced sample grid added to the solver steps
FORCED_TAU_STEP = 0.01
# DOP853 tolerances of the reversed branches and of flow_forward
FLOW_RTOL = 1e-10
FLOW_ATOL = 1e-12
# jacobian_info flags the (psi, tau) chart degenerate at |det| <= this
CHART_DET_TOL = 1e-6
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

def seed_manifold(lyap: LyapunovSpec, count: int,
                  epsilon: float | None = None) -> list[Seed]:
    """Seeds on {V = epsilon} with nu = grad V.

    Planar systems use `count` rays at angles 2*pi*k/count; scalar systems
    always produce the two boundary points of the level interval.  epsilon
    defaults to the level stored on the LyapunovSpec.
    """
    if epsilon is None:
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


# ------------------------------------------------- reversed branch integration

class _FlowCompiler:
    """Per-system cache of compiled reversed-flow right-hand sides.

    For a frozen control u the combined state is y = (x, nu, W); the RHS
    (-xdot, J^T nu, <nu, -xdot>) is emitted by `exprs.compile_ode` as one
    exec-compiled function that reads y once with y.tolist() and returns
    all 2n+1 entries, so one solver call costs one Python call and no
    per-call symbolic work.  The system must be affine with a single input.
    """

    def __init__(self, sys: ControlSystem):
        self.sys = sys
        self.n = sys.n
        self._cache: dict[tuple[float, ...], object] = {}
        n = sys.n
        # sigma event needs <nu, b(x)> with nu relabelled to x_{n+1..2n}
        sigma_e: ex.Expr = ex.Num(0.0)
        for i in range(n):
            sigma_e = ex._add(
                sigma_e, ex._mul(ex.Var("x", n + 1 + i), sys.column_exprs[0][i]))
        self._sigma_fn = ex.compile_scalar([sigma_e])

    def sigma(self, y: np.ndarray) -> float:
        return self._sigma_fn(0.0, y, ())[0]

    def rhs(self, u: Sequence[float]):
        key = tuple(float(v) for v in u)
        fn = self._cache.get(key)
        if fn is not None:
            return fn
        n = self.n
        xdot = self.sys.closed_loop_exprs([ex._num(v) for v in key])
        body: list[ex.Expr] = [ex._neg(e) for e in xdot]
        for k in range(n):
            acc: ex.Expr = ex.Num(0.0)
            for i in range(n):
                dik, _ = ex.diff_with_flag(xdot[i], f"x{k + 1}")
                acc = ex._add(acc, ex._mul(dik, ex.Var("x", n + 1 + i)))
            body.append(acc)
        # dW = <nu, -xdot> pairs nu_k = x_{n+k} with the first n entries
        fn = ex.compile_ode(body, weights=range(n + 1, 2 * n + 1))
        self._cache[key] = fn
        return fn


def integrate_bicharacteristic(sys: ControlSystem, seed: Seed, tau_max: float,
                               budget: float, epsilon: float,
                               compiler: _FlowCompiler) -> Bicharacteristic:
    """Integrate one reversed branch from `seed` up to tau_max.

    W starts at `epsilon`, the level of the seed set, and `compiler` holds
    the compiled right-hand sides of `sys`.  The branch stops early on a
    non-transversal switch (|<nu, ad_f b>| at or below TRANSVERSALITY_TOL
    at sigma = 0) or when |x| reaches `budget`.
    """
    if not (sys.affine and sys.m == 1 and sys.omega.is_box):
        raise SystemError("branch integration needs a single-input affine box system")
    n = sys.n

    y = np.empty(2 * n + 1)
    y[:n] = seed.x0
    y[n:2 * n] = seed.nu0
    y[2 * n] = epsilon

    taus: list[np.ndarray] = []
    xs: list[np.ndarray] = []
    nus: list[np.ndarray] = []
    us: list[np.ndarray] = []
    ws: list[np.ndarray] = []
    events: list[BranchEvent] = []
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

    if degenerate_seed:
        trans = float(np.dot(y[n:2 * n], lie_bracket_adfb(sys, y[:n], 0)))
        if non_transversal or abs(trans) <= TRANSVERSALITY_TOL:
            # the branch is the seed sample alone
            record_event("transversality-failure", 0.0, y, trans, 0)
            taus.append(np.array([0.0]))
            xs.append(y[:n].reshape(1, n))
            nus.append(y[n:2 * n].reshape(1, n))
            ws.append(y[2 * n:])
            us.append(np.array([u], dtype=float))
            stopped = True
        # otherwise the seed lies on the switching surface; sigma leaves
        # zero with the resolved sign, so this is a departure, not a
        # recorded switch

    tau0 = 0.0
    nudge_first = degenerate_seed
    while tau0 < tau_max and not stopped:
        rhs = compiler.rhs(u)
        if nudge_first or tau0 > 0.0:
            # step off the switching surface before restarting the solver
            dy = np.asarray(rhs(tau0, y))
            y = y + _EVENT_NUDGE * dy
            tau0 = tau0 + _EVENT_NUDGE
            nudge_first = False

        def sigma_event(t, yv):
            return compiler.sigma(yv)

        sigma_event.terminal = True
        sigma_event.direction = -s_eff

        def budget_event(t, yv, _b2=budget * budget, _n=n):
            acc = 0.0
            for i in range(_n):
                acc += yv[i] * yv[i]
            return acc - _b2

        budget_event.terminal = True
        budget_event.direction = 1.0

        sol = solve_ivp(rhs, (tau0, tau_max), y, method="DOP853",
                        rtol=FLOW_RTOL, atol=FLOW_ATOL, dense_output=True,
                        events=[sigma_event, budget_event])
        if not sol.success:
            raise RuntimeError(
                f"branch {seed.index} integration failed: {sol.message}")

        seg_end = sol.t[-1]
        grid = np.arange(math.floor(tau0 / FORCED_TAU_STEP) * FORCED_TAU_STEP
                         + FORCED_TAU_STEP, seg_end, FORCED_TAU_STEP)
        times = np.union1d(sol.t, grid)
        # drop near-duplicates (event restarts sit 1e-12 after the event)
        keep = np.concatenate(([True], np.diff(times) > 10 * _EVENT_NUDGE))
        times = times[keep]
        if sample_count > 0:
            times = times[times > tau0 + 10 * _EVENT_NUDGE]
        yy = sol.sol(times) if len(times) else np.empty((2 * n + 1, 0))

        hit_sigma = len(sol.t_events[0]) > 0
        hit_budget = len(sol.t_events[1]) > 0

        taus.append(times)
        xs.append(yy[:n].T.copy())
        nus.append(yy[n:2 * n].T.copy())
        ws.append(yy[2 * n].copy())
        u_arr = np.broadcast_to(np.asarray(u, dtype=float), (len(times), sys.m)).copy()
        us.append(u_arr)
        sample_count += len(times)

        y = sol.y[:, -1].copy()
        tau0 = seg_end

        if hit_sigma:
            trans = float(np.dot(y[n:2 * n], lie_bracket_adfb(sys, y[:n], 0)))
            if abs(trans) <= TRANSVERSALITY_TOL:
                record_event("transversality-failure", tau0, y, trans,
                             sample_count - 1)
                stopped = True
                break
            record_event("switch", tau0, y, trans, sample_count - 1)
            s_eff = 1.0 if -trans > 0 else -1.0
            lo, hi = sys.omega.lower[0], sys.omega.upper[0]
            u = [lo] if s_eff > 0 else [hi]
            # the event sample carries the post-switch control
            us[-1][-1] = u
        elif hit_budget:
            record_event("budget", tau0, y, 0.0, sample_count - 1)
            stopped = True
            break
        else:
            break  # reached tau_max

    tau_all = np.concatenate(taus)
    x_all = np.vstack(xs)
    nu_all = np.vstack(nus)
    u_all = np.vstack(us)
    w_all = np.concatenate(ws)
    s_all = hamiltonian_values(sys, x_all, nu_all, u_all)
    return Bicharacteristic(seed, tau_all, x_all, nu_all, u_all, w_all, s_all,
                            events, degenerate_seed, stopped)


def flow_forward(sys: ControlSystem, x0: Sequence[float], nu0: Sequence[float],
                 duration: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Integrate the forward characteristic flow for `duration`, re-selecting
    the control at switching events; returns (x, nu, switch count).

    Used to check that branch samples flow back onto the seed set.
    """
    if not (sys.affine and sys.m == 1 and sys.omega.is_box):
        raise SystemError("forward flow needs a single-input affine box system")
    n = sys.n
    compiler = _FlowCompiler(sys)
    y = np.empty(2 * n + 1)
    y[:n] = x0
    y[n:2 * n] = nu0
    y[2 * n] = 0.0
    t0 = 0.0
    switches = 0
    u, s_eff, _, degen = branch_control(sys, y[:n], y[n:2 * n], "forward")
    if degen:
        raise SystemError("forward flow started at a non-transversal switch point")
    while t0 < duration:
        rev = compiler.rhs(u)

        def rhs(t, yv, _rev=rev):
            return [-v for v in _rev(t, yv)]

        if abs(compiler.sigma(y)) <= SWITCH_TOL:
            # starting on the surface: step off before arming the event
            y = y + _EVENT_NUDGE * np.asarray(rhs(t0, y))
            t0 = t0 + _EVENT_NUDGE

        def sigma_event(t, yv):
            return compiler.sigma(yv)

        sigma_event.terminal = True
        sigma_event.direction = -s_eff
        sol = solve_ivp(rhs, (t0, duration), y, method="DOP853",
                        rtol=FLOW_RTOL, atol=FLOW_ATOL, events=[sigma_event])
        if not sol.success:
            raise RuntimeError(f"forward flow failed: {sol.message}")
        y = sol.y[:, -1].copy()
        t0 = sol.t[-1]
        if len(sol.t_events[0]) and t0 < duration:
            switches += 1
            u, s_eff, _, degen = branch_control(sys, y[:n], y[n:2 * n],
                                                "forward")
            if degen:
                raise SystemError("non-transversal switch on the forward flow")
        else:
            break
    return y[:n].copy(), y[n:2 * n].copy(), switches


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

    def query_ties(self, x: Sequence[float], tie_tol: float = 1e-9, *,
                   bounded: bool = True) -> list[QueryResult]:
        """All samples whose distance is within tie_tol of the minimum.

        Returned in ascending flat-index order.
        """
        p = np.asarray(x, dtype=float)
        dmin, _ = self._tree.query(p)
        dmin = float(dmin)
        if bounded and dmin > self.query_radius:
            raise NotCoveredError(p, dmin, self.query_radius)
        idxs = sorted(self._tree.query_ball_point(p, dmin + tie_tol))
        return [self._result(int(i),
                             float(np.linalg.norm(self.flat_x[i] - p)))
                for i in idxs]


def build_manifold(sys: ControlSystem, lyap: LyapunovSpec, count: int,
                   tau_max: float, epsilon: float | None = None,
                   budget: float = 1e6,
                   query_radius: float | None = None) -> LagrangianManifold:
    """Seed {V = epsilon} and integrate every reversed branch.

    Branches are integrated one after another and assembled in seed
    order.  Per-branch failures are tolerated up to half the seed count:
    failed branches are dropped with a warning and counted in the
    manifold's `dropped`.
    """
    if epsilon is None:
        epsilon = lyap.epsilon
    seeds = seed_manifold(lyap, count, epsilon)
    # other systems are rejected by integrate_bicharacteristic, per branch
    compiler = _FlowCompiler(sys) if sys.affine and sys.m == 1 else None

    branches, failures = [], []
    for seed in seeds:
        try:
            branches.append(integrate_bicharacteristic(
                sys, seed, tau_max, budget, epsilon, compiler))
        except Exception as exc:  # aggregated below
            failures.append((seed.index, exc))
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


def query_manifold(man: LagrangianManifold, x: Sequence[float]) -> QueryResult:
    return man.query(x)


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
    xi, ni = b.interp_state(tau)
    u = b.control_at(tau)
    dx, _ = reversed_rhs(man.system, xi, ni, u)
    dx_dtau = np.asarray(dx)
    if man.system.n == 2:
        det = float(dx_dpsi[0] * dx_dtau[1] - dx_dpsi[1] * dx_dtau[0])
    else:
        det = float(np.linalg.det(np.column_stack([dx_dpsi, dx_dtau])))
    return JacobianInfo(det, dx_dpsi, dx_dtau, abs(det) <= CHART_DET_TOL)


def jacobian_along(man: LagrangianManifold, branch: int, tau: float) -> float:
    """det(dx/dpsi, dx/dtau) of the chart at a branch point."""
    return jacobian_info(man, branch, tau).det


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
    sample lies within the query radius, 'dark' otherwise."""
    out = []
    for p in points:
        if man.lyapunov.value(p) <= man.epsilon:
            out.append("inner")
            continue
        try:
            man.query(p)
            out.append("illuminated")
        except NotCoveredError:
            out.append("dark")
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

_WRITE_CHUNK = 4096


def write_table(fh, header: Sequence[str], columns: Sequence) -> None:
    """Write a header and equal-length columns as CSV rows.

    Float columns are written with repr, so the text reads back to the
    same doubles; every other column (int, str) is written with str.
    Rows are formatted a chunk at a time to bound the memory held.
    """
    cols = [np.asarray(c) for c in columns]
    fmts = [repr if c.dtype.kind == "f" else str for c in cols]
    writer = csv.writer(fh)
    writer.writerow(header)
    for lo in range(0, len(cols[0]), _WRITE_CHUNK):
        hi = lo + _WRITE_CHUNK
        writer.writerows(zip(*(map(fmt, c[lo:hi].tolist())
                               for fmt, c in zip(fmts, cols))))


def manifold_table(man: LagrangianManifold) -> tuple[list[str], list]:
    """Header and columns of the flat sample table, one row per sample."""
    n, m = man.system.n, man.system.m
    header = (["psi", "tau"] + [f"x{i+1}" for i in range(n)]
              + [f"nu{i+1}" for i in range(n)]
              + ([f"u{j+1}" for j in range(m)] if m > 1 else ["u"])
              + ["W", "S", "event_flag"])
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
