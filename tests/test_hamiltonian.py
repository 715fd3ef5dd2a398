"""Pointwise Hamiltonian minimization and the bicharacteristic right sides."""

import numpy as np
import pytest

from pmpstab.hamiltonian import (
    branch_control,
    hamiltonian_value,
    minimize_hamiltonian,
    switching_values,
)
from pmpstab.manifold import _compiler
from pmpstab.systems import ControlSet, ControlSystem


def di():
    return ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                         drift=("x2", "0"), columns=(("0", "1"),))


class TestHamiltonianValue:
    def test_affine_value_at_given_control(self):
        # H = nu . (f + u b) = nu1 x2 + nu2 u
        assert hamiltonian_value(di(), (1.0, 2.0), (0.5, -0.6), (1.0,)) \
            == pytest.approx(0.4)

    def test_default_control_is_the_minimizer(self):
        sys = di()
        assert hamiltonian_value(sys, (1.0, 2.0), (0.5, -0.6)) \
            == pytest.approx(0.4)

    def test_switching_values_are_column_inner_products(self):
        sys = ControlSystem(2, ControlSet.box((-1.0, -1.0), (1.0, 1.0)),
                            drift=("x2", "0"),
                            columns=(("0", "1"), ("1 + x1^2", "0")))
        assert switching_values(sys, (2.0, 0.0), (0.25, -0.6)) \
            == pytest.approx([-0.6, 1.25])


class TestMinimizeAffineBox:
    def test_bang_controls_per_sign(self):
        sys = di()
        r = minimize_hamiltonian(sys, (1.0, 2.0), (0.5, -0.6))
        assert r.u == (1.0,) and not r.degenerate
        assert r.value == pytest.approx(0.4)
        r = minimize_hamiltonian(sys, (1.0, 2.0), (0.5, 0.6))
        assert r.u == (-1.0,)

    def test_asymmetric_box_uses_the_correct_face(self):
        sys = ControlSystem(2, ControlSet.box((-2.0,), (5.0,)),
                            drift=("x2", "0"), columns=(("0", "1"),))
        assert minimize_hamiltonian(sys, (0.0, 0.0), (0.0, -1.0)).u == (5.0,)
        assert minimize_hamiltonian(sys, (0.0, 0.0), (0.0, 1.0)).u == (-2.0,)

    def test_channels_minimized_independently(self):
        sys = ControlSystem(2, ControlSet.box((-1.0, 0.0), (1.0, 2.0)),
                            drift=("x2", "0"),
                            columns=(("0", "1"), ("1", "0")))
        r = minimize_hamiltonian(sys, (0.0, 0.0), (-0.3, 0.8))
        # sigma = (0.8, -0.3): first channel to its lower face, second upper
        assert r.u == (-1.0, 2.0)

    def test_degenerate_channel_reports_midpoint(self):
        sys = ControlSystem(2, ControlSet.box((-2.0,), (4.0,)),
                            drift=("x2", "0"), columns=(("0", "1"),))
        r = minimize_hamiltonian(sys, (1.0, 2.0), (0.5, 0.0))
        assert r.degenerate
        assert r.u == (1.0,)


class TestMinimizeFiniteSet:
    def test_exhaustive_minimum(self):
        sys = ControlSystem(2, ControlSet.finite([(-1.0,), (0.0,), (1.0,)]),
                            drift=("x2", "0"), columns=(("0", "1"),))
        r = minimize_hamiltonian(sys, (1.0, 2.0), (0.5, -0.6))
        assert r.u == (1.0,) and r.value == pytest.approx(0.4)
        assert not r.degenerate

    def test_tie_keeps_the_first_listed_value(self):
        sys = ControlSystem(2, ControlSet.finite([(-1.0,), (0.0,), (1.0,)]),
                            drift=("x2", "0"), columns=(("0", "1"),))
        # sigma = 0: every value gives H = 1, first listed wins, tie flagged
        r = minimize_hamiltonian(sys, (1.0, 2.0), (0.5, 0.0))
        assert r.u == (-1.0,)
        assert r.value == pytest.approx(1.0)
        assert r.degenerate

    def test_near_tie_returns_the_exact_argmin_and_its_value(self):
        # the second value is 4e-11 lower, within SWITCH_TOL of the first
        values = [(1.0,), (1.0 - 4e-11,)]
        sys = ControlSystem(2, ControlSet.finite(values),
                            drift=("x2", "0"), columns=(("0", "1"),))
        x, nu = (0.0, 0.0), (0.0, 1.0)
        r = minimize_hamiltonian(sys, x, nu)
        assert r.u == values[1]
        assert r.value == hamiltonian_value(sys, x, nu, r.u) == 1.0 - 4e-11
        assert r.degenerate


class TestBranchControl:
    def test_signs_away_from_the_surface(self):
        sys = di()
        u, side, sigma, degenerate = branch_control(sys, (1.0, 2.0), (0.5, -0.6))
        assert u == 1.0 and side == -1.0 and sigma == pytest.approx(-0.6)
        assert not degenerate
        u, side, sigma, _ = branch_control(sys, (1.0, 2.0), (0.5, 0.6))
        assert u == -1.0 and side == 1.0 and sigma == pytest.approx(0.6)

    def test_reversed_tie_break_uses_the_bracket_trend(self):
        sys = di()
        # sigma = 0, <nu, ad_f b> = -nu1: reversed trend = +nu1
        u, side, sigma, degenerate = branch_control(sys, (1.0, 2.0), (0.5, 0.0))
        assert sigma == 0.0 and not degenerate
        assert u == -1.0 and side == 1.0

    def test_forward_tie_break_flips_the_trend(self):
        sys = di()
        u, side, sigma, _ = branch_control(sys, (1.0, 2.0), (0.5, 0.0),
                                           direction="forward")
        assert sigma == 0.0
        assert u == 1.0 and side == -1.0

    def test_double_tie_is_degenerate(self):
        sys = di()
        # sigma = 0 and <nu, ad_f b> = 0 leave no preferred side
        _, _, _, degenerate = branch_control(sys, (1.0, 2.0), (0.0, 0.0))
        assert degenerate


def flow(sys, u, direction, x, nu):
    """(xdot, nudot) of the compiled characteristic flow at the frozen
    control u, a float."""
    y = np.concatenate([x, nu, [0.0]])
    rhs = _compiler(sys).flow((u, direction))[0](0.0, y)
    return rhs[:sys.n], rhs[sys.n:2 * sys.n]


def jacobian(sys, x, u):
    """d(xdot)/dx at the frozen control u, a float."""
    return sys.jacobian_drift(x) + u * sys.jacobian_column(0, x)


class TestRightSides:
    """The characteristic flows as the manifold compiles them."""

    def test_reversed_rhs_at_a_tie_point(self):
        sys = di()
        x, nu = (1.0, 0.0), (1.0, 0.0)
        u, _, _, _ = branch_control(sys, x, nu, "reversed")
        dx, dnu = flow(sys, u, "reversed", x, nu)
        assert dx == pytest.approx([0.0, 1.0])
        assert dnu == pytest.approx([0.0, 1.0])

    def test_forward_rhs_pushes_up_when_costate_points_down(self):
        sys = di()
        x, nu = (0.0, 0.0), (0.0, -1.0)
        u, _, _, _ = branch_control(sys, x, nu, "forward")
        dx, dnu = flow(sys, u, "forward", x, nu)
        assert dx == pytest.approx([0.0, 1.0])
        assert dnu == pytest.approx([0.0, 0.0])

    def test_forward_state_rate_negates_the_reversed_one(self):
        sys = di()
        rng = np.random.default_rng(8)
        for _ in range(30):
            x = rng.normal(size=2)
            nu = rng.normal(size=2)
            if abs(nu[1]) < 1e-6:
                continue
            u = 1.0 if nu[1] < 0 else -1.0
            dx_r, dnu_r = flow(sys, u, "reversed", x, nu)
            dx_f, dnu_f = flow(sys, u, "forward", x, nu)
            assert dx_f == [-v for v in dx_r]
            assert dnu_f == [-v for v in dnu_r]

    def test_costate_rate_is_minus_jacobian_transpose(self):
        # forward costate equation for the pendulum drift; the reversed
        # flow has +J^T nu
        sys = ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                            drift=("x2", "-sin(x1)"), columns=(("0", "1"),))
        x, nu, u = (0.7, -0.2), (0.3, 0.9), 0.5
        jt_nu = list(jacobian(sys, x, u).T @ np.asarray(nu))
        _, dnu = flow(sys, u, "forward", x, nu)
        assert dnu == pytest.approx([-v for v in jt_nu], abs=1e-14)
        _, dnu = flow(sys, u, "reversed", x, nu)
        assert dnu == pytest.approx(jt_nu, abs=1e-14)

    def test_hamiltonian_constant_along_either_flow(self):
        sys = ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                            drift=("x2", "-sin(x1)"), columns=(("0", "1"),))
        x, nu = np.array([1.3, -0.4]), np.array([0.8, 0.6])
        u = -1.0
        h = 1e-7
        before = hamiltonian_value(sys, x, nu, (u,))
        for direction in ("forward", "reversed"):
            dx, dnu = flow(sys, u, direction, x, nu)
            after = hamiltonian_value(sys, x + h * np.asarray(dx),
                                      nu + h * np.asarray(dnu), (u,))
            assert after - before == pytest.approx(0.0, abs=1e-12)
