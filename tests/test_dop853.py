"""The lockstep DOP853 engine against scipy's solve_ivp, bit for bit.

Every row of an engine run is compared with its own
solve_ivp(method="DOP853", dense_output=(record == "grid"), events=...)
call: the end state, t_events/y_events and the samples on the forced tau
grid, which hold every step point (t, y) and the dense output between
them.  The reference is scipy itself, so a failure here
points at the engine or at a numpy/scipy/BLAS version whose rounding
differs from the one the engine mirrors.
"""

import dataclasses
import gc
import math
import re
import types

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq as scipy_brentq

import pmpstab.exprs as ex
import pmpstab.manifold as M
from pmpstab import _dop853
from pmpstab.observer import manipulator_system
from pmpstab.simulate import StaticSwitchingLaw, simulate_closed_loop
from pmpstab.synthesis import double_integrator_system
from pmpstab.systems import ControlSet, ControlSystem

from test_manifold import rich_system

STEP = M.FORCED_TAU_STEP
GAP = 10 * M._EVENT_NUDGE

SYSTEMS = {"di": double_integrator_system,
           "pendulum": lambda: manipulator_system("-sin(x1)"),
           "rich": rich_system}


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def one_segment(seg):
    out = yield seg
    return out


def two_segments(compiler, seg, t_split):
    """A "grid" segment of `seg` up to t_split, then another one on to
    seg.t_bound from where it ended, at the control branch_control
    resolves there; returns both segments, the sample count after the
    first and the second's outcome."""
    first = dataclasses.replace(seg, t_bound=t_split)
    out = yield first
    count = out.samples.count
    u, s_eff, _, _ = M.branch_control(compiler.sys, out.y[:2], out.y[2:4],
                                      "reversed")
    second = compiler.request(out.y, out.t, seg.t_bound, u, s_eff,
                              "reversed", "grid")
    out = yield second
    return first, second, count, out


def engine(compiler, segs, events):
    return _dop853.run([one_segment(s) for s in segs], compiler.flow, events,
                       rtol=M.FLOW_RTOL, atol=M.FLOW_ATOL, grid_step=STEP,
                       min_gap=GAP)


def reference(compiler, seg, events):
    evs = []
    for (scalar, _), direction in zip(events, seg.directions):
        def ev(t, y, scalar=scalar):
            return scalar(t, y)
        ev.terminal = True
        ev.direction = direction
        evs.append(ev)
    return solve_ivp(compiler.flow(seg.key)[0], (seg.t0, seg.t_bound),
                     seg.y0, method="DOP853", rtol=M.FLOW_RTOL,
                     atol=M.FLOW_ATOL, dense_output=seg.record == "grid",
                     events=evs)


def grid_reference(sol, after):
    """The forced-grid samples of one segment as the manifold took them
    from solve_ivp; `after` drops the start of a segment that goes on from
    where the row's last one ended."""
    t0 = sol.t[0]
    start = math.floor(t0 / STEP) * STEP + STEP
    times = np.union1d(sol.t, np.arange(start, sol.t[-1], STEP))
    times = times[np.concatenate(([True], np.diff(times) > GAP))]
    if after:
        times = times[times > t0 + GAP]
    return times, sol.sol(times).T


def seeds(sys, count, radius=1.0, w=0.5):
    """Reversed-flow starts on a circle with nu = x, plus a W column."""
    psi = 2.0 * np.pi * (np.arange(count) + 0.37) / count
    x = radius * np.column_stack([np.cos(psi), np.sin(psi)])
    return np.column_stack([x, x, np.full(count, w)])


def segments(compiler, starts, t_bounds, record, direction="reversed",
             budget=None, t0s=(0.0,)):
    """One segment per start, at the control branch_control resolves
    there, so the row keys mix; t0s and t_bounds are taken in turn."""
    sys = compiler.sys
    segs = []
    for k, y in enumerate(starts):
        u, s_eff, _, _ = M.branch_control(sys, y[:2], y[2:4], direction)
        t0 = t0s[k % len(t0s)]
        seg = compiler.request(y, t0, t0 + t_bounds[k % len(t_bounds)], u,
                               s_eff, direction, record,
                               budget=budget is not None)
        segs.append(seg)
    return segs


def events_for(compiler, budget=None):
    events = [compiler.sigma_event]
    if budget is not None:
        events.append(M._budget_event(compiler.n, budget))
    return events


def assert_same_segment(out, sol, events_used):
    assert sol.success and out.success
    assert bits(out.t) == bits(sol.t[-1])
    assert bits(out.y) == bits(sol.y[:, -1])
    fired = [k for k in range(events_used) if len(sol.t_events[k])]
    assert fired == ([] if out.event is None else [out.event])
    if out.event is not None:
        assert bits(sol.t_events[out.event]) == bits([out.t])
        # y_events holds the step's interpolant at the root, the end state
        # unless solve_ivp dropped a step whose root repeats the previous
        # step point (then the interpolant there: its y_old, up to the sign
        # of zero entries)
        assert bits(sol.y_events[out.event][0]) == bits(out.y)


def assert_batched(segs):
    """Some right-hand side starts with enough rows for its batched form."""
    keys = [seg.key for seg in segs]
    assert max(map(keys.count, keys)) >= _dop853._SMALL


def assert_same_grid(out, sol, after):
    times, ys = grid_reference(sol, after)
    n = out.samples.count
    assert bits(out.samples.t[:n]) == bits(times)
    assert bits(out.samples.y[:n]) == bits(ys)


class TestOracle:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_step_points_and_events(self, name):
        sys = SYSTEMS[name]()   # the compiler holds its system weakly
        compiler = M._compiler(sys)
        events = events_for(compiler, budget=1.6)
        segs = segments(compiler, seeds(sys, 48), (0.4, 1.0, 3.0), "grid",
                        budget=1.6)
        assert_batched(segs)
        outs = engine(compiler, segs, events)
        kinds = set()
        for seg, out in zip(segs, outs):
            sol = reference(compiler, seg, events)
            assert_same_segment(out, sol, 2)
            assert_same_grid(out, sol, False)
            kinds.add(out.event)
        # switches, budget stops and rows that reach t_bound all occur
        assert kinds == {0, 1, None}
        assert len({seg.key for seg in segs}) == 2

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    @pytest.mark.parametrize("record", ["grid"])
    def test_dense_grid_samples(self, name, record):
        sys = SYSTEMS[name]()   # the compiler holds its system weakly
        compiler = M._compiler(sys)
        events = events_for(compiler, budget=2.5)
        starts = seeds(sys, 40, radius=0.8)
        # a start 5e-12 below a grid point: the near-duplicate rule drops
        # that grid point
        segs = segments(compiler, starts, (0.7, 2.0), record, budget=2.5,
                        t0s=(0.0, 0.31 - 5e-12, 1.0))
        assert_batched(segs)
        outs = engine(compiler, segs, events)
        for seg, out in zip(segs, outs):
            sol = reference(compiler, seg, events)
            assert_same_segment(out, sol, 2)
            assert_same_grid(out, sol, False)
        # segments that end at a root and at t_bound both occur
        assert {out.event is None for out in outs} == {True, False}

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_arange_entry_past_the_end_is_dropped(self, name):
        # from t0 = 1.0 the arange up to 1.3 ends with 1.3000000000000003,
        # past the segment's end, so the last step's grid times are not in
        # order before t_bound; segments of 0.004 are shorter than their
        # first step, which is then also their last
        sys = SYSTEMS[name]()   # the compiler holds its system weakly
        compiler = M._compiler(sys)
        events = events_for(compiler, budget=2.5)
        overshoot = 1.3000000000000003
        assert np.arange(1.01, 1.3, STEP)[-1] == overshoot
        segs = segments(compiler, seeds(sys, 36, radius=0.8), (0.3, 0.004),
                        "grid", budget=2.5, t0s=(1.0, 1.0, 1.298))
        assert_batched(segs)
        outs = engine(compiler, segs, events)
        at_bound = one_step = 0
        for seg, out in zip(segs, outs):
            sol = reference(compiler, seg, events)
            assert_same_segment(out, sol, 2)
            assert_same_grid(out, sol, False)
            t = out.samples.t[:out.samples.count]
            if seg.t_bound == 1.3 and out.event is None:
                assert t[-1] == 1.3 and overshoot not in t
                at_bound += 1
            if seg.t_bound - seg.t0 < 0.005:
                assert len(sol.t) == 2
                one_step += 1
        assert at_bound and one_step

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_forward_flow_without_dense_output(self, name):
        sys = SYSTEMS[name]()   # the compiler holds its system weakly
        compiler = M._compiler(sys)
        events = events_for(compiler)
        rng = np.random.default_rng(7)
        starts = np.column_stack([rng.normal(size=(12, 4)), np.zeros(12)])
        segs = segments(compiler, starts, (1.5,), None, direction="forward")
        outs = engine(compiler, segs, events)
        for seg, out in zip(segs, outs):
            assert_same_segment(out, reference(compiler, seg, events), 1)
        assert {out.event for out in outs} == {0, None}

    def test_few_rows_take_the_scalar_path(self):
        # below _dop853._SMALL rows the right-hand side is called row by row
        sys = SYSTEMS["pendulum"]()
        compiler = M._compiler(sys)
        events = events_for(compiler, budget=1.6)
        segs = segments(compiler, seeds(sys, 3), (0.4, 1.0, 3.0), "grid",
                        budget=1.6)
        assert len(segs) < _dop853._SMALL
        for seg, out in zip(segs, engine(compiler, segs, events)):
            sol = reference(compiler, seg, events)
            assert_same_segment(out, sol, 2)
            assert_same_grid(out, sol, False)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_grid_then_grid_after_in_one_store(self, name):
        # one row runs a "grid" segment, then from where it ended another
        # one into the same store, as manifold._branch does: the second is
        # grid_reference's `after` case, which drops its own start
        sys = SYSTEMS[name]()   # the compiler holds its system weakly
        compiler = M._compiler(sys)
        events = events_for(compiler)
        segs = []
        for k, seg in enumerate(segments(compiler, seeds(sys, 36, 0.8),
                                         (2.0,), "grid")):
            if k % 3 == 1:
                # a start 3 ulps below a grid point
                t0 = np.nextafter(np.nextafter(np.nextafter(0.31, 0), 0), 0)
            elif k % 3 == 2:
                # the first step ends 1e-13 below a grid point, which the
                # second step (a mid-segment one) then drops
                h1 = reference(compiler, seg, events).t[1]
                t0 = round(h1 + 0.3, 2) - h1 - 1e-13
            else:
                t0 = 0.0
            segs.append(dataclasses.replace(seg, t0=t0, t_bound=t0 + 2.0))
        assert_batched(segs)
        outs = _dop853.run([two_segments(compiler, seg, seg.t0 + 0.9)
                            for seg in segs], compiler.flow, events,
                           rtol=M.FLOW_RTOL, atol=M.FLOW_ATOL,
                           grid_step=STEP, min_gap=GAP)
        dropped = 0
        for first, second, count, out in outs:
            sol1 = reference(compiler, first, events)
            sol2 = reference(compiler, second, events)
            assert_same_segment(out, sol2, 1)
            t1, y1 = grid_reference(sol1, False)
            t2, y2 = grid_reference(sol2, True)
            assert count == len(t1)
            n = out.samples.count
            assert bits(out.samples.t[:n]) == bits(np.concatenate((t1, t2)))
            assert bits(out.samples.y[:n]) == bits(np.concatenate((y1, y2)))
            b1 = sol1.t[1]
            start = math.floor(first.t0 / STEP) * STEP + STEP
            grid = np.arange(start, sol1.t[-1], STEP)
            if len(sol1.t) > 3 and np.any((grid > b1) & (grid - b1 <= GAP)):
                dropped += 1
        assert dropped >= 3
        # first segments that end at a switch and at t_split both occur
        assert {second.t0 < first.t_bound
                for first, second, _, _ in outs} == {True, False}


class TestFailures:
    @pytest.mark.parametrize("t_bound", [1.0, 1.0 - 1e-3])
    def test_segment_must_run_forwards(self, t_bound):
        sys = SYSTEMS["di"]()
        compiler = M._compiler(sys)
        y = np.array([0.3, -0.2, 0.5, 0.7, 0.0])
        seg = _dop853.Segment(1.0, y, t_bound, ((1.0,), "forward"), (-1.0,))
        (out,) = engine(compiler, [seg], events_for(compiler))
        assert isinstance(out, ValueError)
        assert str(out) == "a segment needs t_bound > t0"

    def test_domain_error_drops_only_its_row(self):
        sys = ControlSystem(2, ControlSet.box([-1.0], [1.0]),
                            drift=("x2", "sqrt(2 - x1) - sqrt(2)"),
                            columns=[("0", "1")])
        compiler = M._compiler(sys)
        events = events_for(compiler)
        starts = seeds(sys, 64, radius=1.2)
        segs = segments(compiler, starts, (4.0,), "grid")
        assert_batched(segs)
        outs = engine(compiler, segs, events)
        failed = [o for o in outs if isinstance(o, Exception)]
        assert failed and len(failed) < len(outs)
        for seg, out in zip(segs, outs):
            if isinstance(out, Exception):
                assert isinstance(out, ex.ExprDomainError)
                with pytest.raises(ex.ExprDomainError,
                                   match=re.escape(str(out))):
                    reference(compiler, seg, events)
            else:
                sol = reference(compiler, seg, events)
                assert_same_segment(out, sol, 1)
                assert_same_grid(out, sol, False)

    def test_too_small_step_is_reported(self):
        sys = ControlSystem(2, ControlSet.box([-1.0], [1.0]),
                            drift=("x2", "log(1.3 - x1^2) - log(1.3)"),
                            columns=[("0", "1")])
        compiler = M._compiler(sys)
        events = events_for(compiler)
        segs = segments(compiler, seeds(sys, 8), (3.0,), None)
        too_small = 0
        for seg, out in zip(segs, engine(compiler, segs, events)):
            if isinstance(out, Exception):
                with pytest.raises(type(out), match=re.escape(str(out))):
                    reference(compiler, seg, events)
                continue
            sol = reference(compiler, seg, events)
            if sol.success:
                assert_same_segment(out, sol, 1)
                continue
            assert out.message == sol.message
            assert bits(out.t) == bits(sol.t[-1])
            assert bits(out.y) == bits(sol.y[:, -1])
            too_small += 1
        assert too_small > 0

    @pytest.mark.parametrize("x1", [1e104, 1e50])
    def test_right_hand_side_not_finite_at_a_start(self, x1):
        # at x1 = 1e104 the drift x1^3/1000 is inf; at 1e50 it is finite,
        # but divided by the tolerances' scale its square overflows in the
        # initial step's norm
        sys = ControlSystem(2, ControlSet.box([-1.0], [1.0]),
                            drift=("x2", "x1*x1*x1*0.001"),
                            columns=[("0", "1")])
        compiler = M._compiler(sys)
        events = events_for(compiler)
        starts = seeds(sys, 40)
        starts[7, 0] = x1
        segs = segments(compiler, starts, (1.0,), "grid")
        assert_batched(segs)
        outs = engine(compiler, segs, events)
        assert isinstance(outs[7], ValueError)
        assert str(outs[7]).startswith(
            "the right-hand side is not finite at t = 0.0")
        for seg, out in zip(segs[:7] + segs[8:], outs[:7] + outs[8:]):
            sol = reference(compiler, seg, events)
            assert_same_segment(out, sol, 1)
            assert_same_grid(out, sol, False)


# ------------------------------------------- closed-loop engine features

def run_rows(compiler, segs, events, **options):
    """One row per segment, as the closed loop runs the engine."""
    return _dop853.run([one_segment(s) for s in segs], compiler.flow, events,
                       rtol=M.FLOW_RTOL, atol=M.FLOW_ATOL, **options)


def armed_reference(compiler, seg, events, **options):
    """solve_ivp over the events `seg` arms, in its order."""
    armed = range(len(events)) if seg.events is None else seg.events
    evs = []
    for j, direction in zip(armed, seg.directions):
        def ev(t, y, scalar=events[j][0]):
            return scalar(t, y)
        ev.terminal = True
        ev.direction = direction
        evs.append(ev)
    return solve_ivp(compiler.flow(seg.key)[0], (seg.t0, seg.t_bound),
                     seg.y0, method="DOP853", rtol=M.FLOW_RTOL,
                     atol=M.FLOW_ATOL, events=evs, **options)


def assert_same_armed_segment(out, sol, seg):
    """As assert_same_segment, with out.event a run index and sol's events
    the armed ones in the segment's order."""
    armed = list(seg.events)
    assert sol.success and out.success
    assert bits(out.t) == bits(sol.t[-1])
    assert bits(out.y) == bits(sol.y[:, -1])
    fired = [armed[k] for k in range(len(armed)) if len(sol.t_events[k])]
    assert fired == ([] if out.event is None else [out.event])
    if out.event is not None:
        k = armed.index(out.event)
        assert bits(sol.t_events[k]) == bits([out.t])
        assert bits(sol.y_events[k][0]) == bits(out.y)


def with_record(segs, record, times=None):
    return [dataclasses.replace(seg, events=(0,), record=record,
                                times=None if times is None
                                else times(seg))
            for seg in segs]


class TestClosedLoopFeatures:
    @pytest.mark.parametrize("count", [1, 3, 24])
    @pytest.mark.parametrize("max_step", [0.05, 0.15])
    def test_max_step_clamps_every_step(self, count, max_step):
        sys = SYSTEMS["pendulum"]()
        compiler = M._compiler(sys)
        events = events_for(compiler)
        segs = with_record(segments(compiler, seeds(sys, count), (2.0, 0.7),
                                    None), "steps")
        outs = run_rows(compiler, segs, events, max_step=max_step)
        steps = 0
        for seg, out in zip(segs, outs):
            sol = armed_reference(compiler, seg, events, max_step=max_step)
            assert_same_armed_segment(out, sol, seg)
            t, y = out.samples.take()
            assert bits(t) == bits(sol.t)
            assert bits(y) == bits(sol.y.T)
            assert np.diff(t).max() <= max_step * (1 + 1e-12)
            steps += len(t) - 1
        unclamped = run_rows(compiler, segs, events)
        assert steps > sum(o.samples.count - 1 for o in unclamped)

    def test_max_step_must_be_positive(self):
        sys = SYSTEMS["di"]()   # the compiler holds its system weakly
        compiler = M._compiler(sys)
        with pytest.raises(ValueError, match="`max_step` must be positive."):
            run_rows(compiler, [], events_for(compiler), max_step=0.0)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_step_record_is_sol_t(self, name):
        # every accepted step point; a terminal root replaces the last one
        sys = SYSTEMS[name]()   # the compiler holds its system weakly
        compiler = M._compiler(sys)
        events = events_for(compiler)
        segs = with_record(segments(compiler, seeds(sys, 20), (0.4, 3.0),
                                    None, t0s=(0.0, 0.37)), "steps")
        outs = run_rows(compiler, segs, events, max_step=0.1)
        for seg, out in zip(segs, outs):
            sol = armed_reference(compiler, seg, events, max_step=0.1)
            assert_same_armed_segment(out, sol, seg)
            t, y = out.samples.take()
            assert bits(t) == bits(sol.t)
            assert bits(y) == bits(sol.y.T)
            assert out.samples.count == 0
        assert {out.event for out in outs} == {0, None}

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    @pytest.mark.parametrize("count", [1, 20])
    def test_times_record_is_sol_t_with_t_eval(self, name, count):
        # t_eval as the closed loop builds it for record_dt: the start, a
        # grid, and the end when the grid misses it
        sys = SYSTEMS[name]()   # the compiler holds its system weakly
        compiler = M._compiler(sys)
        events = events_for(compiler)

        def times(seg, dt=0.013):
            pts = np.arange(math.floor(seg.t0 / dt) + 1,
                            math.floor(seg.t_bound / dt) + 1) * dt
            t_eval = np.concatenate([[seg.t0], pts[pts > seg.t0 + 1e-15]])
            return np.concatenate([t_eval, [seg.t_bound]])

        segs = with_record(segments(compiler, seeds(sys, count), (0.4, 3.0),
                                    None, t0s=(0.0, 0.37)), "times", times)
        outs = run_rows(compiler, segs, events, max_step=0.1)
        for seg, out in zip(segs, outs):
            sol = armed_reference(compiler, seg, events, max_step=0.1,
                                  t_eval=seg.times)
            t, y = out.samples.take()
            assert bits(t) == bits(sol.t)
            assert bits(y) == bits(sol.y.T)
            assert bits(out.t) == bits(sol.t_events[0] if out.event == 0
                                       else [seg.t_bound])
        if count > 1:
            assert {out.event for out in outs} == {0, None}

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_every_record_mode_in_one_run(self, name):
        # rows of all four record modes share one run and its sample pass
        sys = SYSTEMS[name]()   # the compiler holds its system weakly
        compiler = M._compiler(sys)
        events = events_for(compiler)
        modes = [None, "steps", "times", "grid"]
        segs = [dataclasses.replace(
            seg, record=modes[k % 4], times=np.linspace(
                seg.t0, seg.t_bound, 40) if k % 4 == 2 else None)
            for k, seg in enumerate(segments(
                compiler, seeds(sys, 48), (0.4, 3.0, 3.0), None,
                t0s=(0.0, 0.37, 0.81, 0.37, 0.0)))]
        assert_batched(segs)
        outs = run_rows(compiler, segs, events, grid_step=STEP, min_gap=GAP)
        ended = set()
        for seg, out in zip(segs, outs):
            if seg.record == "times":
                sol = armed_reference(compiler, seg, events,
                                      t_eval=seg.times)
                assert bits(out.t) == bits(sol.t_events[0] if out.event == 0
                                           else [seg.t_bound])
                t, y = sol.t, sol.y.T
            else:
                sol = reference(compiler, seg, events)
                assert_same_segment(out, sol, 1)
                t, y = (grid_reference(sol, False) if seg.record == "grid"
                        else (sol.t, sol.y.T))
            if seg.record is None:
                t, y = t[:0], y[:0]
            n = out.samples.count
            assert bits(out.samples.t[:n]) == bits(t)
            assert bits(out.samples.y[:n]) == bits(y)
            ended.add((seg.record, out.event))
        assert {(mode, event) for mode in modes for event in (0, None)} \
            <= ended

    def test_times_outside_the_span_are_rejected(self):
        sys = SYSTEMS["di"]()   # the compiler holds its system weakly
        compiler = M._compiler(sys)
        (seg,) = with_record(segments(compiler, seeds(sys, 1),
                                      (1.0,), None), "times",
                             lambda seg: [0.0, 1.5])
        (out,) = run_rows(compiler, [seg], events_for(compiler))
        assert isinstance(out, ValueError)
        assert str(out) == "Values in `t_eval` are not within `t_span`."

    @pytest.mark.parametrize("count", [1, 23])
    def test_armed_subsets_and_ties_go_to_the_first_listed(self, count):
        # events 0 and 1 are the same switching function, so every switch
        # is a tie: the event a segment lists first ends it, as in
        # solve_ivp; event 2, the budget, is armed by some segments only
        sys = SYSTEMS["di"]()
        compiler = M._compiler(sys)
        sigma = compiler.sigma_event
        twin = (lambda t, y: sigma[0](t, y), lambda t, y: sigma[1](t, y))
        events = [sigma, twin, M._budget_event(compiler.n, 1.3)]
        orders = [(1, 0), (0, 1), (2, 1, 0), (1,), (2,)]
        segs = []
        for k, seg in enumerate(segments(compiler, seeds(sys, count),
                                         (2.5,), None)):
            armed = orders[k % len(orders)]
            s_dir = seg.directions[0]
            segs.append(dataclasses.replace(
                seg, events=armed, record="steps",
                directions=tuple(1.0 if j == 2 else s_dir for j in armed)))
        outs = run_rows(compiler, segs, events, max_step=0.1)
        fired = set()
        for seg, out in zip(segs, outs):
            sol = armed_reference(compiler, seg, events, max_step=0.1)
            assert_same_armed_segment(out, sol, seg)
            t, y = out.samples.take()
            assert bits(t) == bits(sol.t)
            assert bits(y) == bits(sol.y.T)
            fired.add((seg.events, out.event))
        if count > 1:
            assert {((1, 0), 1), ((0, 1), 0), ((1,), 1)} <= fired
            assert any(seg_events[0] == 2 and event == 2
                       for seg_events, event in fired)


def brent_both(f, a, b, **kw):
    """What scipy's brentq and the engine's port give on one bracket: the
    root's bits, or the exception's type and message."""
    out = []
    for solve, tol in ((scipy_brentq, {"xtol": _dop853._ROOT_TOL,
                                        "rtol": _dop853._ROOT_TOL}),
                       (_dop853.brentq, {})):
        try:
            root = solve(f, a, b, **tol, **kw)
        except (ValueError, RuntimeError) as exc:
            out.append((type(exc), str(exc)))
        else:
            assert type(root) is float
            out.append(root.hex())
    return out


class TestBrent:
    """`_dop853.brentq`, the engine's event root finder, against
    scipy.optimize.brentq with the engine's tolerances."""

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_dense_output_polynomials(self, system):
        # each step's interpolant, evaluated as `locate` does, crossing
        # levels between its end values, entry by entry
        sys = SYSTEMS[system]()
        compiler = M._compiler(sys)
        rng = np.random.default_rng(5)
        brackets = 0
        for seg in segments(compiler, seeds(sys, 8), (3.0,), "grid"):
            sol = reference(compiler, seg, [])
            for sp in sol.sol.interpolants:
                F, yo = sp.F.tolist(), sp.y_old.tolist()
                t_old, t_new, h = float(sp.t_old), float(sp.t), float(sp.h)
                ends = (_dop853._interp(F, yo, t_old, h, t_old),
                        _dop853._interp(F, yo, t_old, h, t_new))
                for k, (g0, g1) in enumerate(zip(*ends)):
                    for level in (g0, g1, *(g0 + (g1 - g0) * rng.random(2))):
                        def f(t, k=k, level=level):
                            return (_dop853._interp(F, yo, t_old, h, t)[k]
                                    - level)
                        got, want = brent_both(f, t_old, t_new)
                        assert got == want
                        brackets += 1
        assert brackets >= 600

    def test_random_brackets(self):
        # roots inside, near-flat odd powers that underflow to zero on a
        # stretch, steep and tiny functions, and secant steps that divide
        # by zero
        rng = np.random.default_rng(11)
        for i in range(3000):
            a = float(rng.uniform(-10, 10))
            b = a + float(10 ** rng.uniform(-12, 2))
            r = float(rng.uniform(a, b))
            kind = i % 5
            if kind == 0:
                c = rng.normal(size=5).tolist()
                def f(x, r=r, c=c):
                    return (x - r) * (1 + sum(0.1 * ci * (x - r) ** (k + 1)
                                              for k, ci in enumerate(c)))
            elif kind == 1:
                p = int(rng.choice([3, 5, 7]))
                def f(x, r=r, p=p):
                    return (x - r) ** p * 1e-300
            elif kind == 2:
                def f(x, r=r):
                    return math.tanh((x - r) * 1e6) * 1e-200
            elif kind == 3:
                def f(x, r=r):
                    return math.expm1(x - r)
            else:
                s = float(rng.uniform(1e-170, 1e-150))
                def f(x, r=r, s=s):
                    return (x - r) * s
            got, want = brent_both(f, a, b)
            assert got == want

    @pytest.mark.parametrize("a, b", [(0.25, 2.0), (-2.0, 0.25)])
    def test_root_at_an_endpoint(self, a, b):
        got, want = brent_both(lambda x: x - 0.25, a, b)
        assert got == want == (0.25).hex()

    @pytest.mark.parametrize("f, a, b, kw", [
        (lambda x: math.nan, 0.0, 1.0, {}),
        (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, {}),
        (lambda x: x - 2.0, 0.0, 1.0, {}),
        (lambda x: 1.0 if x > 0.3 else -1.0, -1e300, 1e300, {}),
        (lambda x: x ** 3 - 2.0, 0.0, 2.0, {"maxiter": 3}),
    ], ids=["nan-at-a", "nan-inside", "same-sign", "100-iterations",
            "maxiter"])
    def test_errors(self, f, a, b, kw):
        got, want = brent_both(f, a, b, **kw)
        assert isinstance(got, tuple) and got == want

    def test_event_location_leaves_no_cyclic_garbage(self):
        # the time-optimal loop from (2, 1) locates about 1,300 events;
        # scipy's brentq wrapped each event function in a closure that
        # refers to itself, so every location left a cycle holding the
        # function `locate` builds.  Other cycles, such as compiled
        # functions that a full cache lets go, are not counted.
        law = StaticSwitchingLaw(double_integrator_system(),
                                 "x1 + x2*abs(x2)/2")
        simulate_closed_loop(law, (2.0, 1.0), 1.0)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            simulate_closed_loop(law, (2.0, 1.0), 30.0)
            gc.collect()
            from_locate = [o for o in gc.garbage
                           if isinstance(o, types.FunctionType)
                           and ".locate." in o.__qualname__]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert from_locate == []


def test_tableau_equals_scipy():
    from scipy.integrate._ivp import dop853_coefficients as ref
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(_dop853, name) == getattr(ref, name)
    for name in ("A", "B", "C", "E3", "E5", "D"):
        ours, theirs = getattr(_dop853, name), getattr(ref, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()
