"""Velocity observer: gain selection, error Lyapunov certificates and
output-feedback closed loops on the pendulum benchmark."""

import math

import numpy as np
import pytest

import pmpstab.observer as OB
from pmpstab.observer import (
    ObserverGains,
    error_lyapunov,
    error_lyapunov_matrix,
    estimator_step,
    gain_inequalities,
    gamma_margin,
    is_manipulator,
    manipulator_system,
    select_gains,
    simulate_output_feedback,
)
from pmpstab.systems import ControlSet, ControlSystem


class TestManipulatorForm:
    def test_factory_builds_the_chain_structure(self):
        sys = manipulator_system("-sin(x1)")
        assert sys.n == 2 and sys.m == 1
        assert sys.eval_dynamics((0.5, 0.2), (0.3,)) == pytest.approx(
            [0.2, -math.sin(0.5) + 0.3])
        assert is_manipulator(sys)

    def test_factory_rejects_multichannel_control(self):
        with pytest.raises(ValueError, match="single control"):
            manipulator_system("-sin(x1)",
                               omega=ControlSet.box((-1.0, -1.0), (1.0, 1.0)))

    def test_structure_predicate(self):
        assert is_manipulator(manipulator_system("0"))
        # velocity must pass through the first channel untouched
        bad_drift = ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                                  drift=("x2 + x1^3", "-x1"),
                                  columns=(("0", "1"),))
        assert not is_manipulator(bad_drift)
        bad_column = ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                                   drift=("x2", "-x1"),
                                   columns=(("0", "1 + x1^2"),))
        assert not is_manipulator(bad_column)


class TestGainSelection:
    def test_reference_gains_for_unit_lipschitz(self):
        g = select_gains(1.0)
        assert (g.delta, g.beta1, g.beta2) == (0.5, 4.0, 4.0)
        assert g.L == 1.0

    def test_reference_gains_for_zero_lipschitz(self):
        g = select_gains(0.0)
        assert (g.delta, g.beta1, g.beta2) == (0.5, 4.0, 1.0)

    def test_reference_gains_for_stiff_lipschitz(self):
        g = select_gains(100.0)
        assert g.delta ** 2 == pytest.approx(0.009)
        assert g.beta1 == 400.0
        assert g.beta2 == 131072.0

    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0, 10.0, 100.0])
    def test_selected_gains_meet_the_margin(self, L):
        g = select_gains(L)
        v1, v2 = gain_inequalities(g, L)
        assert v1 >= 0.1
        assert v2 >= 0.1

    def test_unit_case_inequality_values(self):
        v1, v2 = gain_inequalities(select_gains(1.0))
        assert v1 == pytest.approx(4.0)
        assert v2 == pytest.approx(0.25)

    def test_infeasible_lipschitz_rejected(self):
        with pytest.raises(ValueError, match="no feasible"):
            select_gains(1e9)

    def test_gain_dataclass_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ObserverGains(delta=0.5, beta1=0.0, beta2=1.0, L=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            ObserverGains(delta=0.5, beta1=1.0, beta2=1.0, L=-1.0)


class TestErrorLyapunov:
    def test_reference_values(self):
        g = ObserverGains(delta=0.5, beta1=4.0, beta2=100.0, L=1.0)
        assert error_lyapunov(g, (1.0, 0.0)) == pytest.approx(50.0)
        assert error_lyapunov(g, (0.0, 1.0)) == pytest.approx(0.54)

    def test_matrix_matches_the_quadratic_form(self):
        g = ObserverGains(delta=0.5, beta1=4.0, beta2=100.0, L=1.0)
        P = error_lyapunov_matrix(g)
        rng = np.random.default_rng(21)
        for _ in range(20):
            e = rng.normal(size=2)
            assert float(e @ P @ e) == pytest.approx(error_lyapunov(g, e),
                                                     rel=1e-12)

    def test_positive_definite_for_random_gains(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            b1, b2 = rng.uniform(0.1, 50.0, size=2)
            g = ObserverGains(delta=0.5, beta1=float(b1), beta2=float(b2),
                              L=1.0)
            eig = np.linalg.eigvalsh(error_lyapunov_matrix(g))
            assert float(eig[0]) > 0.0

    def test_decay_identity_along_the_error_dynamics(self):
        # d/dt V(e) = -2 b2 e1^2 - 2 e2^2 + (2c e2 - 2 e1) df
        # for e1dot = e2 - b1 e1, e2dot = df - b2 e1
        rng = np.random.default_rng(23)
        for _ in range(50):
            b1, b2 = rng.uniform(0.5, 20.0, size=2)
            g = ObserverGains(delta=0.5, beta1=float(b1), beta2=float(b2),
                              L=1.0)
            P = error_lyapunov_matrix(g)
            e = rng.normal(size=2)
            df = float(rng.normal())
            edot = np.array([e[1] - b1 * e[0], df - b2 * e[0]])
            lhs = float(2.0 * e @ P @ edot)
            c = 2.0 / b1 + b1 / b2
            rhs = (-2.0 * b2 * e[0] ** 2 - 2.0 * e[1] ** 2
                   + (2.0 * c * e[1] - 2.0 * e[0]) * df)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestEstimator:
    def test_reference_step(self):
        sys = manipulator_system("0")
        g = ObserverGains(delta=0.5, beta1=4.0, beta2=100.0, L=0.0)
        assert estimator_step(sys, g, (1.0, 1.0), 0.0, 0.0) == \
            pytest.approx([-3.0, -100.0])

    def test_innovation_vanishes_on_exact_estimates(self):
        sys = manipulator_system("-sin(x1)")
        g = select_gains(1.0)
        x = (0.7, -0.3)
        dz = estimator_step(sys, g, x, x[0], 0.25)
        assert dz == pytest.approx(sys.eval_dynamics(x, (0.25,)))

    def test_non_manipulator_system_rejected(self):
        sys = ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                            drift=("x2", "-sin(x1)"), columns=(("0", "2"),))
        g = select_gains(1.0)
        with pytest.raises(ValueError, match="manipulator form"):
            estimator_step(sys, g, (0.0, 0.0), 0.0, 0.0)


class TestManifoldConstants:
    def test_lipschitz_and_margin_are_positive(self, pend_manifold):
        M = pend_manifold.nu2_lipschitz
        assert M > 0.0
        gamma = gamma_margin(pend_manifold)
        assert gamma > 0.0
        # the margin is a distance scale and M a slope: gamma * M stays
        # comparable to the costate magnitude on the curve
        assert gamma < 1.0 < M


@pytest.fixture(scope="module")
def result(pend_system, pend_law, pend_gains):
    return simulate_output_feedback(pend_system, pend_law, pend_gains,
                                    (2.0, 0.0), (2.0, 1.0), 100.0)


class TestOutputFeedback:
    def test_both_loops_converge(self, result):
        assert result.converged
        assert result.t_converged <= 100.0
        e = np.linalg.norm(np.asarray(result.e), axis=1)
        assert float(e[-1]) <= 1e-3
        assert float(np.linalg.norm(result.x[-1])) <= 1e-2

    def test_error_lyapunov_never_increases(self, result):
        ve = np.asarray(result.v_e)
        assert float(np.max(np.diff(ve))) <= 1e-12

    def test_control_stays_admissible(self, result, pend_law):
        u = np.asarray(result.u)
        assert float(np.max(np.abs(u))) <= pend_law.k + 1e-12

    def test_switch_mismatch_bound_holds(self, result):
        assert len(result.mismatch_t) > 0
        for lhs, rhs in zip(result.mismatch_lhs, result.mismatch_rhs):
            assert lhs <= rhs + 1e-12

    def test_mismatch_bound_uses_the_manifold_slope(self, result, pend_manifold):
        assert result.M == pend_manifold.nu2_lipschitz

    def test_inner_segment_leaves_through_the_handover_boundary(
            self, pend_system, pend_law, pend_gains):
        # the surrogate state hands over at t = 1.544 and, with the estimate
        # still off, the inner arc leaves the handover set again at t = 1.770
        res = simulate_output_feedback(pend_system, pend_law, pend_gains,
                                       (-1.16, 1.812), (-1.431, 1.025), 100.0)
        crossings = [e.t for e in res.events if e.kind == "boundary-cross"]
        assert crossings[:2] == pytest.approx([1.544, 1.770], abs=1e-3)
        assert res.converged

    def test_error_log_export(self, result, tmp_path):
        path = tmp_path / "err.csv"
        OB.export_error_log(result, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,e1,e2,V_e,W"
        assert len(lines) == len(result.t) + 1
        first = lines[1].split(",")
        assert float(first[0]) == result.t[0]
        assert float(first[3]) == pytest.approx(result.v_e[0])
