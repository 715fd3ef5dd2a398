"""Discontinuous closed-loop simulation: event-driven integration, sliding
motion and grid audits."""

from dataclasses import dataclass

import numpy as np
import pytest

import pmpstab.simulate as SM
from pmpstab.simulate import (
    BlowupError,
    StaticSwitchingLaw,
    filippov_step,
    simulate_closed_loop,
    simulate_grid,
    stabilization_verdict,
)
from pmpstab.systems import ControlSet, ControlSystem


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
        assert u == [-1.0]
        assert xn == pytest.approx([0.49])

    def test_sliding_on_the_surface_uses_equivalent_control(self, relay_law):
        xn, u, sliding = filippov_step(relay_law, (0.0,), 0.01)
        assert sliding
        assert u == pytest.approx([0.0], abs=1e-6)
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
        assert traj.t[-1] >= 1.0
        assert abs(traj.x[-1][0]) <= 1e-6


@dataclass(frozen=True)
class CenterLaw(StaticSwitchingLaw):
    """All of the plane is inner, and the inner loop x1' = x2, x2' = -4 x1
    is a center: its elliptic orbits leave every ball they start in."""

    def boundary_value(self, x):
        return -1.0

    @property
    def inner_dynamics(self):
        return lambda t, y: [y[1], -4.0 * y[0]]


class TestDwell:
    def test_dwell_that_leaves_the_ball_does_not_converge(self):
        sys = ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                            drift=("x2", "-4*x1"), columns=(("0", "1"),))
        traj = simulate_closed_loop(CenterLaw(sys, "x1"), (0.009, 0.0), 2.0)
        assert not traj.converged
        assert traj.events == ()
        assert traj.t[-1] == 2.0
        # each dwell ends where the orbit leaves the ball, and the inner
        # segment after it ends where the orbit comes back
        r = np.linalg.norm(traj.x, axis=1)
        assert np.count_nonzero(np.isclose(r, 1e-2, rtol=1e-6)) >= 3
        assert float(r.max()) > 1.5e-2


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


class TestGrid:
    def test_coarse_grid_converges_and_is_deterministic(self, di_law_small):
        g1 = simulate_grid(di_law_small, (-2.0, -2.0), (2.0, 2.0), 5, 40.0)
        g2 = simulate_grid(di_law_small, (-2.0, -2.0), (2.0, 2.0), 5, 40.0)
        assert len(g1.points) == 25
        assert all(v.converged for v in g1.verdicts)
        assert all(tuple(p) == tuple(q) for p, q in zip(g1.points, g2.points))
        assert all(a == b for a, b in zip(g1.verdicts, g2.verdicts))


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
