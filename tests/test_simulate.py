"""Discontinuous closed-loop simulation: event-driven integration, sliding
motion and grid audits."""

import collections
import contextlib
import gc
import hashlib
import io
import math
import os
import signal
import types
import weakref
from dataclasses import dataclass, field

import numpy as np
import pytest

import pmpstab.observer as OB
import pmpstab.simulate as SM
from pmpstab import cli
from pmpstab.hamiltonian import branch_control
from pmpstab.manifold import NotCoveredError, box_grid
from pmpstab.simulate import (
    BlowupError,
    StaticSwitchingLaw,
    filippov_step,
    simulate_closed_loop,
    simulate_grid,
    stabilization_verdict,
)
from pmpstab.synthesis import double_integrator_system
from pmpstab.systems import ControlSet, ControlSystem, LyapunovSpec


@contextlib.contextmanager
def wall_time_limit(seconds):
    """Raise TimeoutError in the test when the block runs longer than
    `seconds` of wall time, so that a loop that never returns fails."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def relay_law():
    """Scalar relay xdot = u with surface sigma = x1: the origin is reached
    in finite time and then held by sliding with u_eq = 0."""
    sys = ControlSystem(1, ControlSet.box((-1.0,), (1.0,)),
                        drift=("0",), columns=(("1",),))
    return StaticSwitchingLaw(sys, "x1")


class TestFilippovStep:
    def test_plain_step_away_from_the_surface(self, relay_law):
        xn, u, sliding = filippov_step(relay_law, (0.5,), 0.01)
        assert not sliding
        assert u == -1.0
        assert xn == pytest.approx([0.49])

    def test_sliding_on_the_surface_uses_equivalent_control(self, relay_law):
        xn, u, sliding = filippov_step(relay_law, (0.0,), 0.01)
        assert sliding
        assert u == pytest.approx(0.0, abs=1e-6)
        assert xn == pytest.approx([0.0], abs=1e-8)

    def test_sliding_holds_the_state(self, relay_law):
        x = (1e-12,)
        for _ in range(100):
            x, _, _ = filippov_step(relay_law, x, 0.01)
        assert abs(x[0]) < 1e-6


class TestScalarRelay:
    def test_finite_time_convergence_through_sliding(self, relay_law):
        traj = simulate_closed_loop(relay_law, (0.8,), 10.0)
        assert traj.converged
        # reaching time is |x0| / k up to the convergence ball radius
        assert traj.t_converged == pytest.approx(0.8, abs=0.05)
        kinds = [e.kind for e in traj.events]
        assert "sliding-enter" in kinds
        assert kinds[-1] == "converged"
        assert abs(traj.x[-1][0]) <= 1e-6

    def test_sliding_until_the_horizon_ends_unconverged(self, relay_law):
        # the surface is reached at t = 0.8; the dwell cannot finish by 1.0
        traj = simulate_closed_loop(relay_law, (0.8,), 1.0)
        assert not traj.converged
        assert traj.t_converged is None
        assert [e.kind for e in traj.events] == ["control-switch",
                                                 "sliding-enter"]
        assert traj.t[-1] == 1.0
        assert abs(traj.x[-1][0]) <= 1e-6

    def test_start_on_the_surface_slides_from_sample_0(self, relay_law):
        traj = simulate_closed_loop(relay_law, (0.0,), 1.0)
        assert traj.events[0] == SM.TrajectoryEvent("sliding-enter", 0.0,
                                                    (0.0,), 0)
        # sample 0 holds the equivalent control the sliding steps apply
        assert traj.u[0, 0] == 0.0
        assert traj.t[-1] == 1.0

    def test_transversal_start_on_the_surface_records_x0(self):
        # sigma = x1 = 0 at the start, and x1' = x2 = 1 on both sides
        law = StaticSwitchingLaw(double_integrator_system(), "x1")
        traj = simulate_closed_loop(law, (0.0, 1.0), 1.0)
        assert traj.t[0] == 0.0
        assert traj.x[0].tolist() == [0.0, 1.0]
        assert traj.t[1] > 0.0 and traj.x[1, 0] > 0.0
        # sample 0 holds the departure-side control of the micro-step
        assert traj.u[:2, 0].tolist() == [-1.0, -1.0]


def _surrogate_control(get):
    law = get("di_law_small")
    sur = OB._SurrogateLaw(law, OB._combined_system(law.system,
                                                    OB.select_gains(1.0)))
    return sur.control((3.0, 3.0, 3.0, 2.5))


# each control a single-input law gives, from the fixtures of
# `request.getfixturevalue`: a one-element list [u]
LAW_CONTROLS = {
    "law-inner": lambda get: get("di_law_small").control((0.5, 0.5)),
    "law-boundary": lambda get: get("di_law_small").control((1.0, 0.0)),
    "law-outer": lambda get: get("di_law_small").control((3.0, 3.0)),
    "static-law": lambda get: get("relay_law").control((0.5,)),
    "surrogate-law": _surrogate_control,
}


@pytest.mark.parametrize("case", list(LAW_CONTROLS))
def test_a_law_control_is_one_float_in_a_list(case, request):
    u = LAW_CONTROLS[case](request.getfixturevalue)
    assert type(u) is list and len(u) == 1 and type(u[0]) is float


# each control value the closed loop or the switch rule hands on
CONTROL_VALUES = {
    "closed-loop-control": lambda get: SM._control(get("di_law_small"),
                                                   (3.0, 3.0)),
    "filippov-off-surface": lambda get: filippov_step(get("relay_law"),
                                                      (0.5,), 0.01)[1],
    "filippov-sliding": lambda get: filippov_step(get("relay_law"),
                                                  (0.0,), 0.01)[1],
    "branch-control": lambda get: branch_control(
        get("di_system"), (1.0, 2.0), (0.5, -0.6))[0],
    "branch-control-degenerate": lambda get: branch_control(
        get("di_system"), (1.0, 2.0), (0.0, 0.0))[0],
}


@pytest.mark.parametrize("case", list(CONTROL_VALUES))
def test_a_control_is_one_float(case, request):
    assert type(CONTROL_VALUES[case](request.getfixturevalue)) is float


@dataclass(frozen=True)
class CenterLaw(StaticSwitchingLaw):
    """All of the plane is inner, and the inner loop x1' = x2, x2' = -4 x1
    is a center: its elliptic orbits leave every ball they start in."""

    def boundary_value(self, x):
        return -1.0

    @property
    def inner_dynamics(self):
        return lambda t, y: [y[1], -4.0 * y[0]]


@dataclass(frozen=True)
class SmallHandoverLaw(CenterLaw):
    """The handover set is the disc |x| <= 0.007, inside the convergence
    ball, so an orbit can leave the ball outside the handover set."""

    def boundary_value(self, x):
        return float(np.dot(x, x)) - 0.007 ** 2


@dataclass(frozen=True)
class EscapeLaw(StaticSwitchingLaw):
    """All of the line is inner, and the inner loop x' = s x^2 leaves every
    ball in finite time from a start x with s x > 0; past |x| = limit it
    raises.  `calls` logs x at every `control` call, and "raised" where
    the inner loop raises."""

    s: float = -1.0
    limit: float = math.inf
    calls: list = field(default_factory=list, compare=False)
    lyapunov = LyapunovSpec("x1^2/2", 1, epsilon=0.5)
    epsilon = 0.5

    def boundary_value(self, x):
        return -1.0

    @property
    def inner_dynamics(self):
        def f(t, y):
            if abs(y[0]) > self.limit:
                self.calls.append("raised")
                raise FloatingPointError(f"|x| > {self.limit}")
            return [self.s * y[0] * y[0]]
        return f

    def control(self, x):
        self.calls.append(float(x[0]))
        return super().control(x)


@pytest.fixture(scope="module")
def center_system():
    return ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                         drift=("x2", "-4*x1"), columns=(("0", "1"),))


class TestDwell:
    def test_dwell_that_leaves_the_ball_does_not_converge(self, center_system):
        traj = simulate_closed_loop(CenterLaw(center_system, "x1"),
                                    (0.009, 0.0), 2.0)
        assert not traj.converged
        assert traj.events == ()
        assert traj.t[-1] == 2.0
        # each dwell ends where the orbit leaves the ball, and the inner
        # segment after it ends where the orbit comes back
        r = np.linalg.norm(traj.x, axis=1)
        assert np.count_nonzero(np.isclose(r, 1e-2, rtol=1e-6)) >= 3
        assert float(r.max()) > 1.5e-2

    def test_dwell_that_leaves_the_ball_outside_the_handover_set_crosses(
            self, center_system):
        # x = (0.006 cos 2t, -0.012 sin 2t) reaches |x| = 0.01 when
        # sin^2 2t = 64/108, outside the disc |x| <= 0.007
        traj = simulate_closed_loop(SmallHandoverLaw(center_system, "x1"),
                                    (0.006, 0.0), 0.5)
        first = traj.events[0]
        assert first.kind == "boundary-cross"
        assert first.t == pytest.approx(
            math.asin(math.sqrt(64.0 / 108.0)) / 2.0, abs=1e-6)
        assert np.linalg.norm(first.x) == pytest.approx(1e-2, rel=1e-6)

    def test_dwell_is_cut_at_the_horizon(self, di_law_small):
        # from (2, 1) the ball is entered at t = 21.1469; a horizon 0.01
        # later leaves no room for the dwell
        traj = simulate_closed_loop(di_law_small, (2.0, 1.0), 21.157)
        assert not traj.converged
        assert traj.t_converged is None
        assert traj.t[-1] == 21.157
        traj = simulate_closed_loop(di_law_small, (2.0, 1.0), 60.0)
        assert traj.converged
        assert traj.t_converged == 21.146879425046908


class TestSettings:
    @pytest.mark.parametrize("key, value", [
        ("rel_tol", 0.0), ("abs_tol", 0.0), ("convergence_radius", -1.0),
        ("dwell", -1.0), ("dwell", float("nan")), ("blowup", 0.0),
        ("record_dt", 0.0), ("record_dt", -0.5),
        ("rel_tol", None), ("rel_tol", "1e-9"), ("abs_tol", None),
        ("abs_tol", "1e-12"), ("convergence_radius", None),
        ("convergence_radius", "0.01"), ("dwell", None), ("dwell", "1"),
        ("blowup", None), ("blowup", "1e6"), ("record_dt", "0.1")])
    def test_nonpositive_setting_is_rejected(self, relay_law, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be positive$"):
            simulate_closed_loop(relay_law, (0.8,), 10.0, **{key: value})

    def test_every_bad_setting_is_named(self, relay_law):
        with pytest.raises(ValueError,
                           match="^abs_tol, record_dt must be positive$"):
            simulate_closed_loop(relay_law, (0.8,), 10.0, abs_tol=-1.0,
                                 record_dt=0.0)

    def test_two_input_system_is_rejected(self, monkeypatch):
        def no_segment(*args):
            raise AssertionError("a segment was requested")

        monkeypatch.setattr(SM._dop853, "Segment", no_segment)
        sys = ControlSystem(2, ControlSet.box((-1.0, -1.0), (1.0, 1.0)),
                            drift=("0", "0"), columns=(("1", "0"), ("0", "1")))
        with pytest.raises(ValueError, match="single-input"):
            simulate_closed_loop(StaticSwitchingLaw(sys, "x1"), (0.5, 0.5),
                                 1.0)


class TestDoubleIntegratorLoop:
    def test_far_start_converges_with_admissible_control(self, di_law):
        traj = simulate_closed_loop(di_law, (3.0, 3.0), 100.0)
        assert traj.converged
        assert traj.t_converged < 60.0
        assert traj.final_region == "inner"
        assert max(abs(u[0]) for u in traj.u) <= di_law.k + 1e-12
        kinds = [e.kind for e in traj.events]
        assert "control-switch" in kinds
        assert "boundary-cross" in kinds
        assert kinds[-1] == "converged"

    def test_bang_segments_conserve_the_drift_energy(self, di_law):
        # under constant u the quantity x2^2/2 - u x1 is a first integral
        traj = simulate_closed_loop(di_law, (3.0, 3.0), 100.0, record_dt=0.05)
        first_switch = traj.event_times("control-switch")[0]
        samples = [(x, u) for t, x, u in zip(traj.t, traj.x, traj.u)
                   if t < first_switch - 1e-9]
        assert len(samples) > 20
        es = [x[1] ** 2 / 2 - u[0] * x[0] for x, u in samples]
        assert max(es) - min(es) <= 1e-7

    def test_arc_through_the_origin_still_hands_over(self, di_law):
        # the u = -1 parabola from (-2, 2) passes through the origin exactly;
        # the disk dip must be caught even though the arc re-exits
        traj = simulate_closed_loop(di_law, (-2.0, 2.0), 100.0)
        assert traj.converged
        assert "boundary-cross" in [e.kind for e in traj.events]
        assert float(np.linalg.norm(traj.x[-1])) <= 1e-2

    def test_origin_start_converges_immediately(self, di_law):
        traj = simulate_closed_loop(di_law, (0.0, 0.0), 100.0)
        assert traj.converged
        assert traj.t_converged == 0.0
        assert [e.kind for e in traj.events] == ["converged"]

    def test_inner_region_is_invariant_after_entry(self, di_law):
        traj = simulate_closed_loop(di_law, (3.0, 3.0), 100.0, record_dt=0.05)
        t_in = traj.event_times("boundary-cross")[0]
        eps = di_law.epsilon
        for t, x in zip(traj.t, traj.x):
            if t > t_in + 1e-9:
                assert di_law.lyapunov.value(x) <= eps + 1e-9

    def test_sampling_does_not_depend_on_the_horizon(self, di_law):
        runs = [simulate_closed_loop(di_law, (3.0, 3.0), t_max)
                for t_max in (30.0, 100.0, 200.0)]
        assert all(r.converged for r in runs)
        assert len({r.t_converged for r in runs}) == 1
        assert len({tuple(r.event_times("control-switch"))
                    for r in runs}) == 1

    def test_record_grid_is_respected(self, di_law):
        traj = simulate_closed_loop(di_law, (2.0, 1.0), 30.0, record_dt=0.25)
        ts = np.asarray(traj.t)
        # interior samples fall on the grid; event times are inserted
        on_grid = np.isclose(ts / 0.25, np.round(ts / 0.25), atol=1e-9)
        assert np.count_nonzero(on_grid) >= len(ts) - 2 * len(traj.events)

    def test_blowup_guard_raises(self, di_law):
        with pytest.raises(BlowupError) as info:
            simulate_closed_loop(di_law, (3.0, 3.0), 100.0, blowup=2.0)
        assert float(np.linalg.norm(info.value.x)) > 2.0

    def test_blowup_event_ends_an_outer_segment(self, di_law):
        # the start lies inside the blowup ball; the first bang arc leaves it
        with pytest.raises(BlowupError) as info:
            simulate_closed_loop(di_law, (0.0, 3.5), 100.0, blowup=4.0)
        assert info.value.t == pytest.approx(1.073, abs=1e-3)
        assert float(np.linalg.norm(info.value.x)) == pytest.approx(4.0)


class TestVerdict:
    def test_verdict_summarizes_the_run(self, di_law):
        traj = simulate_closed_loop(di_law, (3.0, 3.0), 100.0, record_dt=0.05)
        v = stabilization_verdict(di_law, traj)
        assert v.converged
        assert v.t_converged == traj.t_converged
        assert v.final_norm <= 1e-2
        assert v.max_abs_u <= di_law.k + 1e-12
        # V never increases along inner-region samples
        assert v.v_inner_increase_max <= 1e-9


def serial_verdicts(law, lower, upper, res, t_max, **options):
    """The grid's verdicts from simulate_closed_loop, one start after
    another, with the trajectories."""
    trajs = [simulate_closed_loop(law, p, t_max, **options)
             for p in box_grid(lower, upper, res)]
    return [stabilization_verdict(law, tr) for tr in trajs], trajs


class TestGrid:
    def test_coarse_grid_converges_and_is_deterministic(self, di_law_small):
        g1 = simulate_grid(di_law_small, (-2.0, -2.0), (2.0, 2.0), 5, 40.0)
        g2 = simulate_grid(di_law_small, (-2.0, -2.0), (2.0, 2.0), 5, 40.0)
        assert len(g1.points) == 25
        assert all(v.converged for v in g1.verdicts)
        assert all(tuple(p) == tuple(q) for p, q in zip(g1.points, g2.points))
        assert all(a == b for a, b in zip(g1.verdicts, g2.verdicts))

    @pytest.mark.parametrize("record_dt", [None, 0.1])
    def test_lockstep_grid_equals_starts_run_one_by_one(self, di_law_small,
                                                        record_dt):
        # the block holds inner starts, outer starts and starts that slide
        box = (-1.5, -0.5), (-0.5, 0.5), 3
        report = simulate_grid(di_law_small, *box, 40.0, record_dt=record_dt)
        want, trajs = serial_verdicts(di_law_small, *box, 40.0,
                                      record_dt=record_dt)
        assert report.verdicts == tuple(want)
        kinds = [{e.kind for e in tr.events} for tr in trajs]
        assert any(k == {"converged"} for k in kinds)
        assert any("control-switch" in k and "sliding-enter" not in k
                   for k in kinds)
        assert any("sliding-enter" in k for k in kinds)

    def test_many_rows_sharing_a_control_keep_their_own_verdicts(
            self, di_law_small):
        # 36 starts, many of them stepping under the same control at once
        box = (-3.0, -3.0), (3.0, 3.0), 6
        report = simulate_grid(di_law_small, *box, 40.0)
        want, _ = serial_verdicts(di_law_small, *box, 40.0)
        assert report.verdicts == tuple(want)

    def test_first_failing_start_in_grid_order_raises(self, di_law_small):
        # four starts leave the blowup ball; the first of them in grid
        # order raises, although it fails last in time
        box = (1.0, 1.0), (3.0, 3.0), 3
        errors = []
        for p in box_grid(*box):
            try:
                simulate_closed_loop(di_law_small, p, 40.0, blowup=4.0)
            except BlowupError as exc:
                errors.append(exc)
        assert len(errors) == 4
        assert errors[0].t > max(e.t for e in errors[1:])
        with pytest.raises(BlowupError) as info:
            simulate_grid(di_law_small, *box, 40.0, blowup=4.0)
        assert (info.value.t, info.value.x) == (errors[0].t, errors[0].x)

    @pytest.mark.parametrize("s, last", [
        # the first row escapes: the rows after it stop
        (-1.0, -10.0),
        # the last row escapes: the rows before it run on to t_max, where
        # the first row reaches -1/(1 + 5)
        (1.0, -1.0 / 6.0)])
    def test_rows_after_a_failed_row_stop(self, relay_law, s, last):
        law = EscapeLaw(relay_law.system, "x1", s=s)
        with wall_time_limit(30), pytest.raises(BlowupError) as info:
            simulate_grid(law, (-1.0,), (1.0,), 3, 5.0, blowup=10.0)
        # x = s/(1 - t) from x(0) = s leaves |x| <= 10 at t = 0.9
        assert info.value.t == pytest.approx(0.9, abs=1e-9)
        assert info.value.x == pytest.approx((10.0 * s,))
        # the last control call is the failed row's last sample, or the
        # end of a row before it
        assert law.calls[-1] == pytest.approx(last)

    def test_rows_after_a_row_the_engine_ended_stop(self, relay_law):
        # the first row's inner loop raises inside the engine's step
        law = EscapeLaw(relay_law.system, "x1", limit=5.0)
        with wall_time_limit(30), pytest.raises(FloatingPointError):
            simulate_grid(law, (-1.0,), (1.0,), 3, 5.0)
        assert law.calls[-1] == "raised"

    def test_unknown_option_is_rejected(self, di_law_small):
        with pytest.raises(TypeError):
            simulate_grid(di_law_small, (0.0, 0.0), (1.0, 1.0), 2, 1.0,
                          max_step=0.1)


@pytest.fixture(scope="module")
def pole_law():
    """x1' = x1/(1 - x1) reaches its pole x1 = 1 in finite time,
    t = x1 - 1 - log(x1) from x1(0) = x1, where the solver fails; the
    surface x2 = 100 is never reached."""
    sys = ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                        drift=("x1/(1 - x1)", "0"), columns=(("0", "1"),))
    return StaticSwitchingLaw(sys, "x2 - 100")


class TestSolverFailure:
    def test_failed_segment_raises_instead_of_restarting(self, pole_law):
        with wall_time_limit(30), pytest.raises(RuntimeError) as info:
            simulate_closed_loop(pole_law, (0.5, 0.0), 5.0)
        msg = str(info.value)
        assert msg.endswith(
            ": Required step size is less than spacing between numbers.")
        t = float(msg.split("t=")[1].split(":")[0])
        assert t == pytest.approx(0.5 - 1.0 - math.log(0.5), abs=1e-6)

    def test_grid_raises_the_first_failing_start_in_grid_order(
            self, pole_law):
        # the start x1 = 0.3 comes first in the grid and fails last in time
        with wall_time_limit(30), pytest.raises(RuntimeError) as info:
            simulate_grid(pole_law, (0.3, 0.0), (0.5, 0.0), 2, 5.0)
        t = float(str(info.value).split("t=")[1].split(":")[0])
        assert t == pytest.approx(0.3 - 1.0 - math.log(0.3), abs=1e-6)


def time_to_origin(x):
    """Closed-form minimum time of x1'' = u, |u| <= 1, to the origin:
    x2 + 2 sqrt(x1 + x2^2/2) on or above the switching curve
    x1 + x2|x2|/2 = 0, and the same at -x below it."""
    x1, x2 = x
    if x1 + x2 * abs(x2) / 2.0 < 0.0:
        x1, x2 = -x1, -x2
    return x2 + 2.0 * math.sqrt(x1 + x2 * x2 / 2.0)


class TestTimeOptimalOracle:
    """The simulator against a closed form that needs no manifold: the
    time-optimal double-integrator surface as a static switching law."""

    def test_origin_is_reached_at_the_minimum_time(self):
        law = StaticSwitchingLaw(double_integrator_system(),
                                 "x1 + x2*abs(x2)/2")
        rng = np.random.default_rng(20261019)
        for x0 in rng.uniform(-3.0, 3.0, (20, 2)):
            T = time_to_origin(x0)
            traj = simulate_closed_loop(law, x0, T + 0.5)
            near = np.linalg.norm(traj.x, axis=1) <= 0.05
            assert near.any(), x0
            t_hit = float(traj.t[np.argmax(near)])
            # the ball is reached before the origin, and samples on the
            # sliding arc lie SLIDE_STEP = 0.02 apart; measured over 60
            # starts: from 0.0499 early to 1.1e-5 late
            assert T - 0.05 <= t_hit <= T + 1e-4, (x0, T, t_hit)


def config_law(name):
    """The config, manifold and law that the CLI builds from
    configs/<name>."""
    path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
    with contextlib.redirect_stdout(io.StringIO()):
        cfg, _, man, law = cli._pipeline(types.SimpleNamespace(config=path))
    return cfg, man, law


class TestTimeToGo:
    """The closed loop keeps the manifold's promise: from an outer start
    x0 it reaches the handover boundary after about the reversed time tau
    of the sample it reads at x0."""

    @pytest.mark.parametrize("name, half, res, covered, median, worst", [
        # measured: 110 of 116 outer starts covered, relative error median
        # 0.0075 and max 0.0316
        ("double_integrator.json", 5.0, 11, 110, 0.008, 0.035),
        # measured: 70 of 76 covered, median 0.0069 and max 0.0433
        ("pendulum.json", 2.5, 9, 70, 0.0075, 0.045),
    ])
    def test_first_boundary_cross_comes_after_tau(
            self, name, half, res, covered, median, worst):
        cfg, man, law = config_law(name)
        options = cli._sim_options(cfg)
        rel = []
        for x0 in box_grid((-half, -half), (half, half), res):
            if law.boundary_value(x0) <= 0.0:
                continue    # an inner start
            try:
                man.query(x0)
            except NotCoveredError:
                continue
            traj = simulate_closed_loop(law, x0, cfg["simulation"]["t_max"],
                                        **options)
            t_hit = traj.event_times("boundary-cross")[0]
            tau = man.flat_tau[man.project(x0)]
            rel.append(abs(t_hit - tau) / tau)
        assert len(rel) == covered
        assert np.median(rel) <= median
        assert max(rel) <= worst


class TestGeneratingValueAlongTheLoop:
    """W, read at the nearest sample, should not rise along the closed
    loop's outer arcs, where the law follows the manifold's extremals."""

    def test_largest_rise_between_covered_outer_samples(self):
        cfg, man, law = config_law("double_integrator.json")
        options = cli._sim_options(cfg)
        pairs, rise = 0, -math.inf
        for x0 in box_grid((-5.0, -5.0), (5.0, 5.0), 7):
            traj = simulate_closed_loop(law, x0, cfg["simulation"]["t_max"],
                                        **options)
            outer = np.array([law.boundary_value(p) > 0.0 for p in traj.x])
            dist, near = man.nearest(traj.x)
            covered = outer & (dist <= man.query_radius)
            both = outer[:-1] & outer[1:]
            pairs += int(np.sum(both))
            keep = covered[:-1] & covered[1:]
            rise = max(rise, float(np.max(np.diff(man.flat_w[near])[keep],
                                          initial=-math.inf)))
        assert pairs == 3291
        # measured 0.0614; beyond query_radius W rises by up to 0.63
        assert rise <= 0.062


def transition_digests(traj):
    """SHA-256 of the t, x and u bytes, and of the events as
    (kind, t.hex(), sample_index)."""
    samples = b"".join(a.tobytes() for a in (traj.t, traj.x, traj.u))
    events = repr([(e.kind, e.t.hex(), e.sample_index) for e in traj.events])
    return (hashlib.sha256(samples).hexdigest(),
            hashlib.sha256(events.encode()).hexdigest())


@pytest.fixture(scope="module")
def di_config_law():
    return config_law("double_integrator.json")[2]


class TestTransitionPins:
    """Every mode change of the closed loop, bit for bit: the samples and
    events of runs that together pass through each transition."""

    @pytest.mark.parametrize("chatter_limit, kinds, digests", [
        # 660 sliding decisions slide and 1,269 cross; the ball is reached
        # but outer mode checks it only while sliding, so the run does not
        # converge
        (50, {"control-switch": 644, "sliding-enter": 660,
              "sliding-exit": 660},
         ("0aba036b243dec32dc2e8f72d469514081f5fb92dbfeb5d27ab5697b81a5ae13",
          "71a2718615e96cf792a9f129f9f3246370a6b35bf576119a9054050aa95fcfae")),
        # two switches within MAX_STEP: the chatter rule enters sliding
        (2, {"control-switch": 644, "sliding-enter": 1008,
             "sliding-exit": 1008},
         ("0aba036b243dec32dc2e8f72d469514081f5fb92dbfeb5d27ab5697b81a5ae13",
          "d04571b7f70d3a17ff1d974a1193339bf79419c97345da1a60b47b8b7d415e00")),
    ])
    def test_time_optimal_surface(self, monkeypatch, chatter_limit, kinds,
                                  digests):
        monkeypatch.setattr(SM, "CHATTER_LIMIT", chatter_limit)
        law = StaticSwitchingLaw(double_integrator_system(),
                                 "x1 + x2*abs(x2)/2")
        with wall_time_limit(60):
            traj = simulate_closed_loop(law, (2.0, 1.0), 30.0)
        assert not traj.converged
        assert collections.Counter(e.kind for e in traj.events) == kinds
        assert transition_digests(traj) == digests

    @pytest.mark.parametrize("x0, t_max, kinds, digests", [
        # the switch lands on t_max: no sliding decision follows
        (0.5, 0.5, ["control-switch"],
         ("1e12714863d298fc03354b733030b4a530c56a5862c11ddf9738140b28827b65",
          "8a46f8ee31748db5a9a57e8d09b8dc87d693c5442a5218ad164b0bf703301f43")),
        # sliding until the horizon
        (0.8, 1.0, ["control-switch", "sliding-enter"],
         ("ae39b1b0d7fe3a8ae5b5d1b6c52414a1d6f1e91c27f13579dc17847c53e380d2",
          "2850100cee54a792d932c9af52201bdd499b817ae8b4962cce9f977c815b94fb")),
        # sliding until convergence
        (0.8, 10.0, ["control-switch", "sliding-enter", "converged"],
         ("811cc2e13c57804e9a13a482470abc0568241b76aef9d41350f38c9ff0d996a4",
          "92ea360d775709c621348ee81f4707a87647f12004c7671b5fe6179961138127")),
    ])
    def test_relay(self, relay_law, x0, t_max, kinds, digests):
        with wall_time_limit(30):
            traj = simulate_closed_loop(relay_law, (x0,), t_max)
        assert [e.kind for e in traj.events] == kinds
        assert transition_digests(traj) == digests

    @pytest.mark.parametrize("law_class, x0, t_max, options, kinds, digests", [
        # dwells that leave the ball inside the handover set
        (CenterLaw, (0.009, 0.0), 2.0, {}, [],
         ("f0a4b37eee0a43e7674b23755f5fde423a590e72f58c1e652c1fa00256f72429",
          "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945")),
        # a dwell that leaves it outside
        (SmallHandoverLaw, (0.006, 0.0), 0.5, {}, ["boundary-cross"],
         ("4dc709520e8f6b20488e6e6781d0d85d4432c6ae7e841e3109c321eed6876d49",
          "329805b7bfdb8a178b45b1569a8db44353ea2f5661ecbfbe822c7d4572fa14c2")),
        # an inner segment that leaves the handover set, and an outer one
        # that enters it
        (SmallHandoverLaw, (0.006, 0.0), 0.5, {"convergence_radius": 0.005},
         ["boundary-cross", "control-switch", "boundary-cross"],
         ("ad8ed10074a0de05ad2581b4edfa4e4ab165704c0537dd6cd612c90e39602469",
          "bc59e9f670e65b0b8cfcddefaeff494bd13758b968ba15bbc7f70d4f4c69299a")),
    ])
    def test_inner_exits(self, center_system, law_class, x0, t_max, options,
                         kinds, digests):
        with wall_time_limit(30):
            traj = simulate_closed_loop(law_class(center_system, "x1"), x0,
                                        t_max, **options)
        assert [e.kind for e in traj.events] == kinds
        assert transition_digests(traj) == digests

    SLIDE_IN = ["control-switch", "sliding-enter", "boundary-cross",
                "converged"]

    @pytest.mark.parametrize("x0, kinds, digests", [
        # the 6 of the config grid's 124 sliding stints that end at the
        # handover boundary instead of with sliding-exit
        ((-3.5, 3.0), SLIDE_IN,
         ("659dd12b8ed5d7402cee8e9b867610081dd9be1a3a3959c94525652c5adb8a50",
          "e528fd6e701a12a938ce9e6210174968282be61c76f55e27d49844ef6a2a243e")),
        ((-1.0, 2.0), SLIDE_IN,
         ("abcd641cb75e5525cc65b0a3b6dfeb0a13fa6762ff18d415f5d787ab58ae510e",
          "9254db3f5cba7e4a209e640bbff0ed550e9a908885e34fe891f64523431d729b")),
        ((-0.5, -1.0), SLIDE_IN,
         ("c87f6564013eeac2b08fc6cd6c8a6e86c9a46cc9abbba7a655978178240f5689",
          "f9c2abc4de35d900b63fc59cd343f7dc771c2d6d98f0ebf83eac01c153a8e545")),
        ((0.5, 1.0), SLIDE_IN,
         ("3bde1a946c7c99a3beaee15454e68209786a152a647b96fb9487a25de14f152a",
          "fabe2a0f29f2b76e388a4cfadcf23f937f978224eeaf7b2d486309e354397646")),
        ((1.0, -2.0), SLIDE_IN,
         ("4bb3eb2704ac4206a872c492d1efb010049559389d7c987ef1ee7ca2688f6775",
          "9882f72f650e9edf5b61ef356155d189f300dd391ecece2b95f78561ff8b112a")),
        ((3.5, -3.0), SLIDE_IN,
         ("1b8dcd85e396f77b52b177a70079092816faf8975b7702594daf32417177f793",
          "e528fd6e701a12a938ce9e6210174968282be61c76f55e27d49844ef6a2a243e")),
        # the config's start: four crossings, then the handover set
        ((3.0, 3.0), ["control-switch"] * 4 + ["boundary-cross", "converged"],
         ("07fe002a5efb036d6aed7b8cb8ee078d3cac83568e61305695e762f205d52a08",
          "59d1a641cb52d9de041521de377d826a59e029c5889d5b626dc886a08593ce7f")),
    ])
    def test_config_law(self, di_config_law, x0, kinds, digests):
        with wall_time_limit(30):
            traj = simulate_closed_loop(di_config_law, x0, 100.0)
        assert [e.kind for e in traj.events] == kinds
        assert transition_digests(traj) == digests

    def test_a_run_frees_its_samples_without_the_cycle_collector(
            self, monkeypatch, relay_law):
        # a reference cycle through the loop's frame would hold every
        # recorded sample until the cyclic collector runs
        made = []

        class Recorder(SM._Recorder):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(SM, "_Recorder", Recorder)
        gc.disable()
        try:
            traj = simulate_closed_loop(relay_law, (0.8,), 10.0)
            assert traj.converged
            assert len(made) == 1 and made[0]() is None
        finally:
            gc.enable()


class TestExport:
    def test_csv_round_trip(self, di_law, tmp_path):
        traj = simulate_closed_loop(di_law, (2.0, 1.0), 30.0, record_dt=0.25)
        path = tmp_path / "traj.csv"
        SM.export_trajectory_csv(traj, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,u,event_flag"
        assert len(lines) == len(traj.t) + 1
        first = lines[1].split(",")
        assert float(first[0]) == traj.t[0]
        assert [float(first[1]), float(first[2])] == pytest.approx(traj.x[0])
        flags = {int(l.rsplit(",", 1)[1]) for l in lines[1:]}
        assert flags <= set(SM.EVENT_FLAG.values()) | {0}

    def test_export_is_reproducible(self, di_law, tmp_path):
        traj = simulate_closed_loop(di_law, (2.0, 1.0), 30.0, record_dt=0.25)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        SM.export_trajectory_csv(traj, str(a))
        SM.export_trajectory_csv(traj, str(b))
        assert a.read_bytes() == b.read_bytes()
