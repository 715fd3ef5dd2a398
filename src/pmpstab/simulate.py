"""Closed-loop simulation with Filippov handling of switching surfaces.

The engine integrates xdot = f(x, u(x)) for a feedback law that is smooth
inside a handover set and discontinuous across switching surfaces outside
it.  Integration is segment based: inside each segment the control is
frozen (outer region) or smooth (inner region), and `segment`, the loop's
one solver call, integrates it with scipy's DOP853; terminal events mark
surface crossings, handover, convergence and blowup.  At a surface hit a
trial micro-step with the other side's control decides between crossing
and sliding.  Sliding integrates the Filippov convex combination
u_eq = alpha u+ + (1 - alpha) u- of the one-sided limits u+ = -k and
u- = +k, with alpha estimated from directional derivatives of the
switching value.

The loop reads these members of a law: `system`, `k`, `boundary_value`,
`switching_value`, `control`, `fd_scale` and `inner_dynamics`.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from . import exprs as ex
from .hamiltonian import SWITCH_TOL
from .manifold import box_grid, write_table
from .systems import ControlSystem

EVENT_FLAG = {
    "boundary-cross": 1,
    "control-switch": 2,
    "sliding-enter": 3,
    "sliding-exit": 4,
    "converged": 5,
}

# CHATTER_LIMIT control switches within MAX_STEP turn into sliding
CHATTER_LIMIT = 50
# events are sampled only at step endpoints; on segments with polynomial
# solutions the step would otherwise grow without bound and jump over
# short-lived crossings, e.g. an arc that dips through the inner region
MAX_STEP = 0.1
# sliding segments take explicit steps of SLIDE_STEP
SLIDE_STEP = 0.02


class BlowupError(RuntimeError):
    """Trajectory left the blowup ball; the loop is not stabilizing."""

    def __init__(self, t, x):
        self.t = float(t)
        self.x = tuple(float(v) for v in x)
        super().__init__(f"|x| exceeded blowup radius at t={self.t:.6g}")


@dataclass(frozen=True)
class TrajectoryEvent:
    kind: str
    t: float
    x: tuple[float, ...]
    sample_index: int


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    events: tuple[TrajectoryEvent, ...]
    converged: bool
    t_converged: float | None
    final_region: str

    def event_times(self, kind: str) -> list[float]:
        return [e.t for e in self.events if e.kind == kind]


@dataclass(frozen=True)
class StaticSwitchingLaw:
    """Fixed-surface bang-bang law for engine tests.

    u = -k * sign(sigma(x)) with a closed-form switching expression; there
    is no inner region (the handover value is a positive constant).
    """

    system: ControlSystem
    surface_source: str
    k: float = 1.0
    fd_scale: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "_surface",
                           ex.parse(self.surface_source, self.system.n))

    def switching_value(self, x: Sequence[float]) -> float:
        return ex.evaluate(self._surface, x)

    def boundary_value(self, x: Sequence[float]) -> float:
        return 1.0

    def control(self, x: Sequence[float]) -> list[float]:
        s = self.switching_value(x)
        sgn = 0.0 if s == 0.0 else math.copysign(1.0, s)
        return [-self.k * sgn] * self.system.m


def _rk4(sys: ControlSystem, x: np.ndarray, u: Sequence[float],
         h: float) -> np.ndarray:
    k1 = np.asarray(sys.eval_dynamics(x, u))
    k2 = np.asarray(sys.eval_dynamics(x + 0.5 * h * k1, u))
    k3 = np.asarray(sys.eval_dynamics(x + 0.5 * h * k2, u))
    k4 = np.asarray(sys.eval_dynamics(x + h * k3, u))
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _probe_h(law, sys: ControlSystem, x, u) -> float:
    """Micro-step length whose displacement matches the law's FD scale."""
    speed = math.sqrt(sum(v * v for v in sys.eval_dynamics(x, u)))
    return law.fd_scale / max(speed, 1e-9)


def _sliding_state(law, sys: ControlSystem,
                   x: np.ndarray) -> tuple[bool, list[float]]:
    """Classify x against the switching surface: (sliding, u).

    The surface test must serve sampled switching fields, which are
    piecewise constant in x with jumps of order one: |sigma| stays far
    from zero there, so besides |sigma| <= SWITCH_TOL the point counts as
    on-surface when the two one-sided probes straddle a sign change.
    Sliding requires the one-sided flows, under u+ = -k and u- = +k per
    channel, to point at each other (sigma decreasing from the + side,
    increasing from the - side); u is then the convex combination that
    keeps the surface invariant.  Otherwise u is the control consistent
    with the departure side.
    """
    sigma = law.switching_value(x)
    u_plus = [-law.k] * sys.m
    u_minus = [law.k] * sys.m
    h_p = _probe_h(law, sys, x, u_plus)
    h_m = _probe_h(law, sys, x, u_minus)
    s_p = law.switching_value(_rk4(sys, x, u_plus, h_p))
    s_m = law.switching_value(_rk4(sys, x, u_minus, h_m))
    rate_plus = (s_p - sigma) / h_p
    rate_minus = (s_m - sigma) / h_m
    on_surface = abs(sigma) <= SWITCH_TOL or (s_p < 0.0) != (s_m < 0.0)
    if on_surface and rate_plus < 0.0 < rate_minus:
        alpha = rate_minus / (rate_minus - rate_plus)
        u_eq = sys.omega.clip([alpha * up + (1.0 - alpha) * um
                               for up, um in zip(u_plus, u_minus)])
        return True, list(u_eq)
    if on_surface:
        u = u_plus if rate_plus + rate_minus > 0.0 else u_minus
        return False, list(u)
    return False, list(law.control(x))


def filippov_step(law, x: Sequence[float], h: float):
    """One explicit step of the Filippov closed loop.

    Returns (x_next, u_used, sliding).  Off the switching surface this is
    a plain RK4 step with the law's control; on it, the sliding control
    from _sliding_state.
    """
    sys = law.system
    x = np.asarray(x, dtype=float)
    sliding, u = _sliding_state(law, sys, x)
    return _rk4(sys, x, u, h), list(u), sliding


def _event(fn, direction: float):
    """Terminal solver event at the zeros of fn(y), crossed in direction."""
    def event(t, y):
        return fn(y)
    event.terminal = True
    event.direction = direction
    return event


class _Recorder:
    def __init__(self):
        self.ts: list[float] = []
        self.xs: list[list[float]] = []
        self.us: list[list[float]] = []
        self.events: list[TrajectoryEvent] = []

    def add(self, t: float, x, u) -> None:
        self.ts.append(float(t))
        self.xs.append([float(v) for v in x])
        self.us.append([float(v) for v in u])

    def mark(self, kind: str):
        i = len(self.ts) - 1
        self.events.append(TrajectoryEvent(
            kind, self.ts[i], tuple(self.xs[i]), i))


def simulate_closed_loop(law, x0: Sequence[float], t_max: float, *,
                         rel_tol: float = 1e-9, abs_tol: float = 1e-12,
                         convergence_radius: float = 1e-2,
                         dwell: float = 1.0,
                         blowup: float = 1e6,
                         record_dt: float | None = None) -> Trajectory:
    """Integrate the closed loop from x0 until t_max, convergence or blowup.

    Convergence means |x| entered the convergence ball and stayed there
    for a dwell period; the trajectory then stops early.  Blowup raises
    BlowupError.  Sliding segments use explicit steps of SLIDE_STEP.
    record_dt switches sampling from solver steps to a fixed grid (events
    are always recorded).
    """
    sys = law.system
    x = np.asarray(x0, dtype=float)
    if len(x) != sys.n:
        raise ValueError(f"x0 must have {sys.n} components")
    rec = _Recorder()
    t = 0.0
    switch_times: collections.deque = collections.deque(maxlen=CHATTER_LIMIT)
    mode = "inner" if law.boundary_value(x) <= 0.0 else "outer"

    r2_ball, r2_blowup = convergence_radius ** 2, blowup * blowup

    def ball(y):
        return float(np.dot(y, y)) - r2_ball

    blowup_event = _event(lambda y: float(np.dot(y, y)) - r2_blowup, 1.0)
    ball_in, ball_out = _event(ball, -1.0), _event(ball, 1.0)
    leave_inner = _event(lambda y: law.boundary_value(y) - 1e-9, 1.0)
    enter_inner = _event(law.boundary_value, -1.0)

    def segment(rhs, t_end, events, u_of=None):
        """Integrate from (t, x) to t_end or the first event, recording
        the samples when u_of gives the control; the blowup event raises.
        Returns (t, x, index of the fired event or None)."""
        t_eval = None
        if u_of is not None and record_dt is not None:
            pts = np.arange(math.floor(t / record_dt) + 1,
                            math.floor(t_end / record_dt) + 1) * record_dt
            t_eval = np.concatenate([[t], pts[pts > t + 1e-15]])
            if t_eval[-1] < t_end - 1e-15:
                t_eval = np.concatenate([t_eval, [t_end]])
        sol = solve_ivp(rhs, (t, t_end), x, method="DOP853",
                        rtol=rel_tol, atol=abs_tol, t_eval=t_eval,
                        max_step=MAX_STEP, events=events)
        points = list(zip(sol.t, sol.y.T))
        # every event is terminal, so at most one fires
        fired = next((i for i, e in enumerate(sol.t_events) if e.size), None)
        if fired is not None:
            points.append((sol.t_events[fired][0],
                           np.asarray(sol.y_events[fired][0])))
        if u_of is not None:
            for tt, y in points:
                if not rec.ts or float(tt) > rec.ts[-1] + 1e-15:
                    rec.add(tt, y, u_of(y))
        t_out, x_out = float(points[-1][0]), points[-1][1]
        if fired is not None and events[fired] is blowup_event:
            raise BlowupError(t_out, x_out)
        return t_out, x_out, fired

    converged, t_converged = False, None

    while t < t_max and not converged:
        if float(np.dot(x, x)) > r2_blowup:
            raise BlowupError(t, x)

        if mode == "inner":
            if float(np.dot(x, x)) > r2_ball:
                t, x, fired = segment(
                    law.inner_dynamics, t_max,
                    [ball_in, leave_inner, blowup_event], law.control)
                if fired == 1:
                    rec.mark("boundary-cross")
                    mode = "outer"
                if fired != 0:
                    continue
            elif not rec.ts:
                # already in the ball: no crossing event will fire
                rec.add(t, x, law.control(x))
            t_in = t
            # one dwell period; it fails when |x| leaves the ball
            t, x, left = segment(law.inner_dynamics, t + dwell, [ball_out])
            rec.add(t, x, law.control(x))
            if left is None:
                converged, t_converged = True, t_in
                rec.mark("converged")
            elif law.boundary_value(x) > 0.0:
                rec.mark("boundary-cross")
                mode = "outer"
            continue

        if mode == "outer":
            sigma0 = law.switching_value(x)
            if abs(sigma0) <= SWITCH_TOL:
                mode = "sliding-decision"
                continue
            s0 = 1.0 if sigma0 > 0.0 else -1.0
            u = law.control(x)
            rhs = lambda tt, y, uu=tuple(u): sys.eval_dynamics(y, uu)
            t, x, fired = segment(
                rhs, t_max,
                [_event(law.switching_value, -s0), enter_inner, blowup_event],
                lambda y: u)
            if fired == 1:
                rec.mark("boundary-cross")
                mode = "inner"
                continue
            if fired == 0:
                rec.mark("control-switch")
                switch_times.append(t)
                if (len(switch_times) == CHATTER_LIMIT
                        and switch_times[-1] - switch_times[0] < MAX_STEP):
                    rec.mark("sliding-enter")
                    mode = "sliding"
                    continue
                mode = "sliding-decision"
            continue

        if mode == "sliding-decision":
            sliding, u = _sliding_state(law, sys, x)
            if sliding:
                rec.mark("sliding-enter")
                mode = "sliding"
                continue
            # transversal crossing: micro-step with the consistent control
            h = _probe_h(law, sys, x, u)
            x = _rk4(sys, x, u, h)
            t = t + h
            rec.add(t, x, u)
            mode = "outer"
            continue

        # sliding
        in_ball_since = None
        while t < t_max:
            x_next, u_eq, sliding = filippov_step(law, x, SLIDE_STEP)
            if not sliding:
                rec.mark("sliding-exit")
                mode = "outer"
                break
            t = t + SLIDE_STEP
            x = x_next
            rec.add(t, x, u_eq)
            if law.boundary_value(x) <= 0.0:
                rec.mark("boundary-cross")
                mode = "inner"
                break
            r2 = float(np.dot(x, x))
            if r2 > r2_blowup:
                raise BlowupError(t, x)
            if r2 <= r2_ball:
                if in_ball_since is None:
                    in_ball_since = t
                elif t - in_ball_since >= dwell:
                    converged, t_converged = True, in_ball_since
                    rec.mark("converged")
                    break
            else:
                in_ball_since = None
        else:
            mode = "outer"
        continue

    if not rec.ts:
        rec.add(0.0, x, law.control(x))
    final_region = "inner" if law.boundary_value(x) <= 0.0 else "outer"
    return Trajectory(np.asarray(rec.ts), np.asarray(rec.xs),
                      np.asarray(rec.us), tuple(rec.events),
                      converged, t_converged, final_region)


@dataclass(frozen=True)
class Verdict:
    converged: bool
    t_converged: float | None
    final_norm: float
    max_abs_u: float
    v_inner_increase_max: float


def stabilization_verdict(law, traj: Trajectory) -> Verdict:
    """Summarize a trajectory against the stabilization contract.

    v_inner_increase_max is the largest one-step increase of V between
    consecutive samples that both lie in the handover set; it should stay
    below the per-step tolerance when the inner law decreases V.
    """
    v = np.array([law.lyapunov.value(p) for p in traj.x])
    inside = v <= law.epsilon
    inc = -math.inf
    for i in range(len(v) - 1):
        if inside[i] and inside[i + 1]:
            inc = max(inc, float(v[i + 1] - v[i]))
    max_u = float(np.max(np.abs(traj.u))) if traj.u.size else 0.0
    return Verdict(traj.converged, traj.t_converged,
                   float(np.linalg.norm(traj.x[-1])), max_u,
                   inc if inc > -math.inf else 0.0)


@dataclass(frozen=True)
class GridReport:
    points: np.ndarray
    verdicts: tuple[Verdict, ...]

    @property
    def all_converged(self) -> bool:
        return all(v.converged for v in self.verdicts)

    @property
    def max_abs_u(self) -> float:
        return max(v.max_abs_u for v in self.verdicts)

    @property
    def v_inner_increase_max(self) -> float:
        return max(v.v_inner_increase_max for v in self.verdicts)

    @property
    def latest_convergence(self) -> float:
        ts = [v.t_converged for v in self.verdicts if v.t_converged is not None]
        return max(ts) if ts else math.inf


def simulate_grid(law, lower: Sequence[float], upper: Sequence[float],
                  grid_res: int, t_max: float, **options) -> GridReport:
    """Run the closed loop from every node of a box grid, one start after
    another; the report follows the row-major grid order."""
    pts = box_grid(lower, upper, grid_res)
    verdicts = tuple(
        stabilization_verdict(law, simulate_closed_loop(law, p, t_max, **options))
        for p in pts)
    return GridReport(pts, verdicts)


def export_trajectory_csv(traj: Trajectory, path: str) -> None:
    n = traj.x.shape[1]
    m = traj.u.shape[1]
    flags = np.zeros(len(traj.t), dtype=int)
    for evt in traj.events:
        flags[evt.sample_index] = EVENT_FLAG[evt.kind]
    header = (["t"] + [f"x{i+1}" for i in range(n)]
              + ([f"u{j+1}" for j in range(m)] if m > 1 else ["u"])
              + ["event_flag"])
    with open(path, "w", newline="") as fh:
        write_table(fh, header, [traj.t, *traj.x.T, *traj.u.T, flags])
