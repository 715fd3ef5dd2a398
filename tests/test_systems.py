"""Control sets, control systems and Lyapunov level-set specifications."""

import numpy as np
import pytest

from pmpstab.systems import (
    ControlSet,
    ControlSystem,
    LyapunovSpec,
    equilibrium_residual,
    lie_bracket_adfb,
    rank_condition,
)


def di():
    return ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                         drift=("x2", "0"), columns=(("0", "1"),),
                         name="double-integrator")


class TestControlSet:
    def test_box_membership_and_clip(self):
        om = ControlSet.box((-1.0, 0.0), (1.0, 2.0))
        assert om.is_box and om.m == 2
        assert om.contains((0.5, 1.0))
        assert om.contains((1.0, 2.0))
        assert not om.contains((1.1, 1.0))
        assert om.clip((3.0, -5.0)) == [1.0, 0.0]

    def test_finite_membership(self):
        om = ControlSet.finite([(-1.0,), (0.0,), (1.0,)])
        assert not om.is_box
        assert om.contains((0.0,))
        assert om.contains((1.0 + 1e-13,))
        assert not om.contains((0.5,))

    def test_finite_clip_rejected(self):
        om = ControlSet.finite([(-1.0,), (1.0,)])
        with pytest.raises(Exception, match="box"):
            om.clip((0.2,))

    def test_box_requires_ordered_bounds(self):
        with pytest.raises(Exception):
            ControlSet.box((1.0,), (-1.0,))


class TestControlSystem:
    def test_affine_dynamics(self):
        sys = di()
        assert sys.eval_drift((1.0, 2.0)) == [2.0, 0.0]
        assert sys.eval_columns((1.0, 2.0)) == [[0.0, 1.0]]
        assert sys.eval_dynamics((1.0, 2.0), (0.5,)) == [2.0, 0.5]

    def test_jacobians_match_finite_differences(self):
        sys = ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                            drift=("x2", "-sin(x1)"), columns=(("0", "1 + x1^2"),))
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.normal(size=2)
            u = rng.uniform(-1.0, 1.0, size=1)
            jac = sys.jacobian_drift(x) + u[0] * sys.jacobian_column(0, x)
            h = 1e-6
            for i in range(2):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                col = (np.asarray(sys.eval_dynamics(xp, u))
                       - np.asarray(sys.eval_dynamics(xm, u))) / (2 * h)
                assert jac[:, i] == pytest.approx(col, rel=1e-5, abs=1e-7)

    def test_time_dependence_rejected_in_affine_pieces(self):
        with pytest.raises(Exception):
            ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                          drift=("x2", "t"), columns=(("0", "1"),))

    def test_origin_must_be_a_rest_point(self):
        with pytest.raises(Exception, match="origin is not an equilibrium"):
            ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                          drift=("x2", "1 + x1"), columns=(("0", "1"),))


class TestStructureDiagnostics:
    def test_bracket_of_double_integrator_is_constant(self):
        sys = di()
        for x in [(0.0, 0.0), (3.0, -2.0), (0.7, 0.7)]:
            assert lie_bracket_adfb(sys, x) == pytest.approx([-1.0, 0.0])

    def test_bracket_of_pendulum_matches_hand_value(self):
        sys = ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                            drift=("x2", "-sin(x1)"), columns=(("0", "1"),))
        # ad_f b = -(df/dx) b = (-1, 0) since b is constant
        assert lie_bracket_adfb(sys, (0.9, -0.4)) == pytest.approx([-1.0, 0.0])

    def test_equilibrium_residual_detects_parallel_fields(self):
        sys = di()
        # f = (x2, 0), b = (0, 1): residual = x2, vanishing on the x1 axis
        assert equilibrium_residual(sys, (5.0, 0.0)) == 0.0
        assert equilibrium_residual(sys, (5.0, 2.0)) == 2.0

    def test_rank_condition_holds_everywhere_for_double_integrator(self):
        sys = di()
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert rank_condition(sys, rng.uniform(-5, 5, size=2))


class TestLyapunovSpec:
    def test_quadratic_value_gradient_level(self):
        lyap = LyapunovSpec("(x1^2 + x2^2)/2", 2, epsilon=0.5)
        assert lyap.epsilon == 0.5
        assert lyap.value((3.0, 4.0)) == 12.5
        assert lyap.gradient((3.0, 4.0)) == [3.0, 4.0]

    def test_anisotropic_quadratic(self):
        lyap = LyapunovSpec("x1^2 + 4*x2^2", 2)
        assert lyap.value((1.0, 1.0)) == 5.0
        assert lyap.gradient((1.0, 1.0)) == [2.0, 8.0]

    def test_radial_point_lands_on_the_level_set(self):
        lyap = LyapunovSpec("x1^2 + 4*x2^2", 2)
        rng = np.random.default_rng(6)
        for _ in range(20):
            direction = rng.normal(size=2)
            pt = lyap.radial_point(direction, 0.8)
            assert lyap.value(pt) == pytest.approx(0.8, abs=1e-10)
            # point sits on the requested ray
            cross = pt[0] * direction[1] - pt[1] * direction[0]
            assert abs(cross) < 1e-9 * np.linalg.norm(pt) * np.linalg.norm(direction)

    def test_nonvanishing_at_origin_rejected(self):
        with pytest.raises(Exception, match="V\\(0\\)"):
            LyapunovSpec("x1^2 + 1", 2)

    def test_sign_indefinite_candidate_rejected(self):
        with pytest.raises(Exception):
            LyapunovSpec("x1^2 - x2^2", 2)

    def test_time_dependence_rejected(self):
        # V is only ever evaluated at t = 0, so a t term would be frozen
        with pytest.raises(ValueError, match="stationary"):
            LyapunovSpec("0.5*(x1^2 + x2^2) + t*x1^2", 2, epsilon=0.5)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(Exception, match="epsilon"):
            LyapunovSpec("(x1^2 + x2^2)/2", 2, epsilon=0.0)
