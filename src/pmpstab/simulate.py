"""Closed-loop simulation with Filippov handling of switching surfaces.

The loop integrates xdot = f(x, u(x)) for a feedback law that is smooth
inside a handover set and discontinuous across switching surfaces outside
it.  Integration is segment based: inside each segment the control is
frozen (outer region) or smooth (inner region), and the lockstep DOP853
engine of `_dop853` integrates it.  Each start is a generator that yields
its segments to the engine, so `simulate_grid` steps all its starts
together, while the mode logic, the sliding steps and the probes stay
scalar per start.  Sliding integrates the Filippov convex combination
u_eq = alpha u+ + (1 - alpha) u- of the one-sided limits u+ = -k and
u- = +k, with alpha estimated from directional derivatives of the
switching value.

A start is in mode inner when boundary_value(x) <= 0 and outer otherwise.
Every later mode change passes one transition, which marks its event at
the last sample (`-`: no mark); leaving the blowup ball raises
BlowupError in any mode, and t_max ends the run.

    mode     when                                  mark            next
    inner    a segment leaves the handover set     boundary-cross  outer
    inner    a dwell in the ball ends by t_max     converged       (end)
    inner    a dwell leaves the ball outside the   boundary-cross  outer
             handover set
    outer    a segment enters the handover set     boundary-cross  inner
    outer    sigma crosses zero                    control-switch  decision
    outer    |sigma| <= SWITCH_TOL at a segment    -               decision
             start
    sliding  the one-sided flows stop meeting      sliding-exit    outer
    sliding  a step enters the handover set        boundary-cross  inner
    sliding  a dwell in the ball                   converged       (end)

The decision, part of the same transition, takes the first line that
holds; none is made at t_max.  A start on the surface is recorded as
sample 0 under the control the decision picks:

    CHATTER_LIMIT control switches within           sliding-enter  sliding
    MAX_STEP, this one included
    the one-sided flows meet (`_sliding_state`)     sliding-enter  sliding
    otherwise: a micro-step under the control of    -              outer
    the departure side

The module reads these members of a law: `system` (single-input), `k`,
`boundary_value`, `switching_value`, `control` ([u]; past it u is a
float), `fd_scale`, `inner_dynamics`, and, for the verdicts, `lyapunov`
and `epsilon`.  `Trajectory.u` is a (K, 1) array.
"""

from __future__ import annotations

import collections
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _dop853, exprs as ex
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
        return [-self.k * sgn]


def _control(law, x) -> float:
    (u,) = law.control(x)
    return u


def _rk4(sys: ControlSystem, x: np.ndarray, u: float, h: float) -> np.ndarray:
    uu = (u,)
    k1 = np.asarray(sys.eval_dynamics(x, uu))
    k2 = np.asarray(sys.eval_dynamics(x + 0.5 * h * k1, uu))
    k3 = np.asarray(sys.eval_dynamics(x + 0.5 * h * k2, uu))
    k4 = np.asarray(sys.eval_dynamics(x + h * k3, uu))
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _probe_h(law, sys: ControlSystem, x, u: float) -> float:
    """Micro-step length whose displacement matches the law's FD scale."""
    speed = math.sqrt(sum(v * v for v in sys.eval_dynamics(x, (u,))))
    return law.fd_scale / max(speed, 1e-9)


def _sliding_state(law, sys: ControlSystem,
                   x: np.ndarray) -> tuple[bool, float]:
    """Classify x against the switching surface: (sliding, u), u a float.

    The surface test must serve sampled switching fields, which are
    piecewise constant in x with jumps of order one: |sigma| stays far
    from zero there, so besides |sigma| <= SWITCH_TOL the point counts as
    on-surface when the two one-sided probes straddle a sign change.
    Sliding requires the one-sided flows, under u+ = -k and u- = +k, to
    point at each other (sigma decreasing from the + side, increasing
    from the - side); u is then the convex combination that keeps the
    surface invariant.  Otherwise u is the control consistent with the
    departure side.
    """
    sigma = law.switching_value(x)
    u_plus, u_minus = -law.k, law.k
    h_p = _probe_h(law, sys, x, u_plus)
    h_m = _probe_h(law, sys, x, u_minus)
    s_p = law.switching_value(_rk4(sys, x, u_plus, h_p))
    s_m = law.switching_value(_rk4(sys, x, u_minus, h_m))
    rate_plus = (s_p - sigma) / h_p
    rate_minus = (s_m - sigma) / h_m
    on_surface = abs(sigma) <= SWITCH_TOL or (s_p < 0.0) != (s_m < 0.0)
    if on_surface and rate_plus < 0.0 < rate_minus:
        alpha = rate_minus / (rate_minus - rate_plus)
        u_eq = alpha * u_plus + (1.0 - alpha) * u_minus
        return True, min(max(u_eq, sys.omega.lower[0]), sys.omega.upper[0])
    if on_surface:
        return False, u_plus if rate_plus + rate_minus > 0.0 else u_minus
    return False, _control(law, x)


def filippov_step(law, x: Sequence[float], h: float):
    """One explicit step of the Filippov closed loop.

    Returns (x_next, u_used, sliding), u_used a float.  Off the switching
    surface this is a plain RK4 step with the law's control; on it, the
    sliding control from _sliding_state.
    """
    sys = law.system
    x = np.asarray(x, dtype=float)
    sliding, u = _sliding_state(law, sys, x)
    return _rk4(sys, x, u, h), u, sliding


class _Recorder:
    def __init__(self):
        self.ts: list[float] = []
        self.xs: list[list[float]] = []
        self.us: list[float] = []
        self.events: list[TrajectoryEvent] = []

    def add(self, t: float, x, u: float) -> None:
        self.ts.append(float(t))
        self.xs.append([float(v) for v in x])
        self.us.append(float(u))


# the loop's solver events, by index: |x| entering or leaving the
# convergence ball, V leaving or entering the handover set, sigma crossing
# zero and |x| leaving the blowup ball
_BALL, _LEAVE, _ENTER, _SIGMA, _BLOWUP = range(5)
# the solver key of the inner dynamics; an outer key is the frozen control
_INNER = "inner"


def _settings(t_max: float, rel_tol: float = 1e-9, abs_tol: float = 1e-12,
              convergence_radius: float = 1e-2, dwell: float = 1.0,
              blowup: float = 1e6, record_dt: float | None = None) -> dict:
    """The closed-loop settings as a dict, each checked to be a positive
    real number, with the squared radii r2_ball and r2_blowup."""
    settings = dict(t_max=t_max, rel_tol=rel_tol, abs_tol=abs_tol,
                    convergence_radius=convergence_radius, dwell=dwell,
                    blowup=blowup, record_dt=record_dt)
    bad = [name for name, v in settings.items()
           if not (v is None and name == "record_dt"
                   or isinstance(v, numbers.Real) and v > 0.0)]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be positive")
    return dict(settings, r2_ball=convergence_radius ** 2,
                r2_blowup=blowup * blowup)


def _closed_loop(law, x0: Sequence[float], settings: dict):
    """The closed loop from x0 as a row of `_run`: a generator that yields
    its solver segments and returns the Trajectory.  A failed solver
    segment raises RuntimeError; blowup raises BlowupError."""
    sys = law.system
    if sys.m != 1:
        raise ValueError(f"the closed loop needs a single-input system, "
                         f"got m={sys.m}")
    x = np.asarray(x0, dtype=float)
    if len(x) != sys.n:
        raise ValueError(f"x0 must have {sys.n} components")
    t_max, dwell = settings["t_max"], settings["dwell"]
    record_dt = settings["record_dt"]
    rec = _Recorder()
    t = 0.0
    switch_times: collections.deque = collections.deque(maxlen=CHATTER_LIMIT)
    mode = "inner" if law.boundary_value(x) <= 0.0 else "outer"
    r2_ball, r2_blowup = settings["r2_ball"], settings["r2_blowup"]

    def segment(key, t_end, events, directions, u_of=None):
        """Integrate from (t, x) to t_end or the first of `events`, armed
        in `directions`, recording the samples when u_of gives the
        control; the blowup event raises BlowupError and a failed segment
        RuntimeError.  Returns (t, x, the fired event or None)."""
        if not t_end > t:
            # a dwell from a ball event at t_max: solve_ivp takes no step
            # over an empty span and finds no event
            return t, x, None
        record = times = None
        if u_of is not None and record_dt is None:
            record = "steps"
        elif u_of is not None:
            pts = np.arange(math.floor(t / record_dt) + 1,
                            math.floor(t_end / record_dt) + 1) * record_dt
            times = np.concatenate([[t], pts[pts > t + 1e-15]])
            if times[-1] < t_end - 1e-15:
                times = np.concatenate([times, [t_end]])
            record = "times"
        out = yield _dop853.Segment(t, x, t_end, key, directions, record,
                                    events, times)
        if out.message is not None:
            raise RuntimeError(f"closed-loop solver failed at "
                               f"t={out.t!r}: {out.message}")
        points = []
        if record is not None:
            ts, ys = out.samples.take()
            points = list(zip(ts.tolist(), ys))
        if out.event is not None:
            points.append((out.t, out.y))
        if u_of is not None:
            for tt, y in points:
                if not rec.ts or tt > rec.ts[-1] + 1e-15:
                    rec.add(tt, y, u_of(y))
        t_out, x_out = points[-1] if points else (out.t, out.y)
        if out.event == _BLOWUP:
            raise BlowupError(t_out, x_out)
        return t_out, x_out, out.event

    def transition(kind, to=None):
        """Mark `kind` (None: no mark) at the last sample and enter mode
        `to`; without `to`, the chatter rule or, before t_max, the sliding
        decision picks it.  No self-call: it would put the frame in a
        reference cycle that keeps the samples until the cycle collector."""
        nonlocal mode, t, x
        marks = [] if kind is None else [kind]
        if kind == "control-switch":
            switch_times.append(t)
            if (len(switch_times) == CHATTER_LIMIT
                    and switch_times[-1] - switch_times[0] < MAX_STEP):
                to = "sliding"
                marks.append("sliding-enter")
        cross = None
        if to is None and t < t_max:
            sliding, cross = _sliding_state(law, sys, x)
            if not rec.ts:      # a start on the surface: mark x0
                rec.add(t, x, cross)
            if sliding:
                to, cross = "sliding", None
                marks.append("sliding-enter")
        i = len(rec.ts) - 1
        for k in marks:
            rec.events.append(TrajectoryEvent(k, rec.ts[i], tuple(rec.xs[i]),
                                              i))
        if cross is not None:
            # transversal crossing: micro-step with the consistent control
            h = _probe_h(law, sys, x, cross)
            x = _rk4(sys, x, cross, h)
            t = t + h
            rec.add(t, x, cross)
        mode = to or "outer"

    t_converged = None
    while t < t_max and t_converged is None:
        if float(np.dot(x, x)) > r2_blowup:
            raise BlowupError(t, x)

        if mode == "inner":
            if float(np.dot(x, x)) > r2_ball:
                t, x, fired = yield from segment(
                    _INNER, t_max, (_BALL, _LEAVE, _BLOWUP),
                    (-1.0, 1.0, 1.0), lambda y: _control(law, y))
                if fired == _LEAVE:
                    transition("boundary-cross", "outer")
                if fired != _BALL:
                    continue
            elif not rec.ts:
                # already in the ball: no crossing event will fire
                rec.add(t, x, _control(law, x))
            t_in, t_end = t, t + dwell
            # one dwell period, cut at t_max; it fails when |x| leaves the ball
            t, x, left = yield from segment(
                _INNER, min(t_end, t_max), (_BALL,), (1.0,))
            rec.add(t, x, _control(law, x))
            if left is None and t_end <= t_max:
                t_converged = t_in
                transition("converged", "inner")
            elif left is not None and law.boundary_value(x) > 0.0:
                transition("boundary-cross", "outer")

        elif mode == "outer":
            sigma0 = law.switching_value(x)
            if abs(sigma0) <= SWITCH_TOL:
                transition(None)
                continue
            s0 = 1.0 if sigma0 > 0.0 else -1.0
            u = _control(law, x)
            # the key holds the control's exact bits, signed zeros apart
            t, x, fired = yield from segment(
                float.hex(u), t_max,
                (_SIGMA, _ENTER, _BLOWUP), (-s0, -1.0, 1.0), lambda y: u)
            if fired == _ENTER:
                transition("boundary-cross", "inner")
            elif fired == _SIGMA:
                transition("control-switch")

        else:
            in_ball_since = None
            while t < t_max:
                x_next, u_eq, sliding = filippov_step(
                    law, x, min(SLIDE_STEP, t_max - t))
                if not sliding:
                    transition("sliding-exit", "outer")
                    break
                t = min(t + SLIDE_STEP, t_max)
                x = x_next
                rec.add(t, x, u_eq)
                if law.boundary_value(x) <= 0.0:
                    transition("boundary-cross", "inner")
                    break
                r2 = float(np.dot(x, x))
                if r2 > r2_blowup:
                    raise BlowupError(t, x)
                if r2 <= r2_ball:
                    if in_ball_since is None:
                        in_ball_since = t
                    elif t - in_ball_since >= dwell:
                        t_converged = in_ball_since
                        transition("converged", "sliding")
                        break
                else:
                    in_ball_since = None

    final_region = "inner" if law.boundary_value(x) <= 0.0 else "outer"
    return Trajectory(np.asarray(rec.ts), np.asarray(rec.xs),
                      np.asarray(rec.us)[:, None], tuple(rec.events),
                      t_converged is not None, t_converged, final_region)


def _run(law, rows: list, settings: dict) -> list:
    """Run closed-loop rows in lockstep on the DOP853 engine and return
    their results; the first row that failed, in row order, raises.  Once
    a row fails, the rows after it stop at their next segment and the
    rows before it run on."""
    sys = law.system
    r2_ball, r2_blowup = settings["r2_ball"], settings["r2_blowup"]
    failed = len(rows)      # the first failed row so far

    def guarded(i, row):
        nonlocal failed
        out = None
        while i < failed:
            try:
                out = yield row.send(out)
            except StopIteration as stop:
                return stop.value
            except BaseException:
                # the row raised, or the engine ended it with an error
                failed = min(failed, i)
                raise

    def rhs(key):
        if key == _INNER:
            return law.inner_dynamics, None
        u = (float.fromhex(key),)
        return lambda t, y: sys.eval_dynamics(y, u), None

    events = [(lambda t, y: float(np.dot(y, y)) - r2_ball, None),
              (lambda t, y: law.boundary_value(y) - 1e-9, None),
              (lambda t, y: law.boundary_value(y), None),
              (lambda t, y: law.switching_value(y), None),
              (lambda t, y: float(np.dot(y, y)) - r2_blowup, None)]
    results = _dop853.run([guarded(i, row) for i, row in enumerate(rows)],
                          rhs, events, rtol=settings["rel_tol"],
                          atol=settings["abs_tol"], max_step=MAX_STEP)
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def simulate_closed_loop(law, x0: Sequence[float], t_max: float, *,
                         rel_tol: float = 1e-9, abs_tol: float = 1e-12,
                         convergence_radius: float = 1e-2,
                         dwell: float = 1.0,
                         blowup: float = 1e6,
                         record_dt: float | None = None) -> Trajectory:
    """Integrate the closed loop from x0 until t_max, convergence or blowup.

    Convergence means |x| entered the convergence ball and stayed there
    for a dwell period ending by t_max; the trajectory then stops early.
    Blowup raises BlowupError, and a failed solver segment RuntimeError.
    Sliding steps are SLIDE_STEP long, the last one shortened to end at
    t_max.  record_dt switches sampling from solver steps to a fixed grid
    (events are always recorded).  t_max and the options must be
    positive, record_dt when set; otherwise ValueError names them.
    """
    settings = _settings(t_max, rel_tol, abs_tol, convergence_radius, dwell,
                         blowup, record_dt)
    (traj,) = _run(law, [_closed_loop(law, x0, settings)], settings)
    return traj


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
    steps = np.diff(v)[inside[:-1] & inside[1:]]
    max_u = float(np.max(np.abs(traj.u))) if traj.u.size else 0.0
    return Verdict(traj.converged, traj.t_converged,
                   float(np.linalg.norm(traj.x[-1])), max_u,
                   float(steps.max()) if steps.size else 0.0)


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
    """Run the closed loop from every node of a box grid, all starts in
    lockstep, each with the verdict `simulate_closed_loop` and
    `stabilization_verdict` give it; the report follows the row-major grid
    order.  Once a start fails, the starts after it in grid order stop at
    their next segment and the starts before it run on; then the first
    start that failed, in grid order, raises its exception."""
    pts = box_grid(lower, upper, grid_res)
    settings = _settings(t_max, **options)

    def row(x0):
        traj = yield from _closed_loop(law, x0, settings)
        return stabilization_verdict(law, traj)

    verdicts = _run(law, [row(p) for p in pts], settings)
    return GridReport(pts, tuple(verdicts))


def export_trajectory_csv(traj: Trajectory, path: str) -> None:
    n = traj.x.shape[1]
    flags = np.zeros(len(traj.t), dtype=int)
    for evt in traj.events:
        flags[evt.sample_index] = EVENT_FLAG[evt.kind]
    header = ["t"] + [f"x{i+1}" for i in range(n)] + ["u", "event_flag"]
    with open(path, "w", newline="") as fh:
        write_table(fh, header, [traj.t, *traj.x.T, traj.u[:, 0], flags])
