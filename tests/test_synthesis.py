"""Composite feedback assembly: inner law validation, outer bang-bang
lookup, bound verification and the planar benchmark."""

import math

import numpy as np
import pytest

import pmpstab.synthesis as SY
from pmpstab.exprs import evaluate
from pmpstab.hamiltonian import SWITCH_TOL, switching_values
from pmpstab.manifold import illumination_grid
from pmpstab.synthesis import (
    DecreaseViolation,
    assemble_feedback,
    reference_switching_curve,
    verify_bound,
)
from pmpstab.systems import ControlSet, ControlSystem


class TestReferenceCurve:
    def test_spot_value(self):
        (pt,) = reference_switching_curve([3.0 * math.pi / 4.0])
        assert pt == pytest.approx((-0.5 - math.sqrt(2.0),
                                    1.0 + math.sqrt(2.0) / 2.0), abs=1e-12)

    def test_antipodal_symmetry(self):
        taus = np.linspace(math.pi / 2 + 0.1, math.pi - 0.1, 20)
        upper = reference_switching_curve(taus)
        lower = reference_switching_curve(taus + math.pi)
        for a, b in zip(upper, lower):
            assert b == pytest.approx((-a[0], -a[1]), abs=1e-12)

    @pytest.mark.parametrize("tau", [0.3, math.pi / 2, math.pi,
                                     1.2 * math.pi, 3 * math.pi / 2])
    def test_parameters_outside_the_two_arcs_rejected(self, tau):
        with pytest.raises(ValueError, match="outside"):
            reference_switching_curve([tau])

    def test_asymptote_guard(self):
        with pytest.raises(ValueError, match="asymptote"):
            reference_switching_curve([math.pi / 2 + 1e-14])


class TestAssembleValidation:
    def test_finite_control_set_rejected(self, di_lyap, di_manifold_small):
        sys = ControlSystem(2, ControlSet.finite([(-1.0,), (1.0,)]),
                            drift=("x2", "0"), columns=(("0", "1"),))
        with pytest.raises(ValueError, match="box"):
            assemble_feedback(sys, di_lyap, di_manifold_small, ["-x1 - x2"],
                              k=1.0, C=1.0)

    def test_asymmetric_box_rejected(self, di_lyap, di_manifold_small):
        sys = ControlSystem(2, ControlSet.box((-0.5,), (1.0,)),
                            drift=("x2", "0"), columns=(("0", "1"),))
        with pytest.raises(ValueError, match="symmetric"):
            assemble_feedback(sys, di_lyap, di_manifold_small, ["-x1 - x2"],
                              k=1.0, C=1.0)

    def test_two_input_system_rejected(self, di_lyap, di_manifold_small):
        # the inner laws pass every check a single-input law gets: |w| <= 1
        # and <grad V, f> = -x2^2/2 on {V <= 0.5}
        sys = ControlSystem(2, ControlSet.box((-1.0, -1.0), (1.0, 1.0)),
                            drift=("x2", "0"), columns=(("0", "1"), ("0", "1")))
        with pytest.raises(ValueError, match="single-input"):
            assemble_feedback(sys, di_lyap, di_manifold_small,
                              ["-x1", "-x2/2"], k=1.0, C=1.0)

    def test_inner_expression_count_must_match_inputs(self, di_system, di_lyap,
                                                      di_manifold_small):
        with pytest.raises(ValueError, match="inner control expressions"):
            assemble_feedback(di_system, di_lyap, di_manifold_small,
                              ["-x1", "-x2"], k=1.0, C=1.0)

    def test_nonpositive_bound_rejected(self, di_system, di_lyap,
                                        di_manifold_small):
        with pytest.raises(ValueError, match="C must be positive"):
            assemble_feedback(di_system, di_lyap, di_manifold_small,
                              ["-x1 - x2"], k=1.0, C=0.0)

    def test_inner_law_exceeding_the_bound_rejected(self, di_system, di_lyap,
                                                    di_manifold_small):
        # w = -x1 - x2 gives V-dot = -x2^2 <= 0 but |w| reaches sqrt(2) > 1
        with pytest.raises(ValueError, match=r"\|w\| <= C"):
            assemble_feedback(di_system, di_lyap, di_manifold_small,
                              ["-x1 - x2"], k=1.0, C=1.0)

    def test_inner_law_leaving_the_box_rejected(self, di_system, di_lyap,
                                                di_manifold_small):
        # sqrt(2) stays under C = 1.5 but leaves the box [-1, 1]
        with pytest.raises(ValueError, match="leaves the control set"):
            assemble_feedback(di_system, di_lyap, di_manifold_small,
                              ["-x1 - x2"], k=1.0, C=1.5)

    def test_time_dependent_inner_law_rejected(self, di_system, di_lyap,
                                               di_manifold_small):
        # the shell checks and control() read the law at t = 0, while the
        # closed loop would integrate it at the running time
        with pytest.raises(ValueError, match="stationary"):
            assemble_feedback(di_system, di_lyap, di_manifold_small,
                              ["-x1 - x2*(1 - x1^2)/2 + 0.5*t"], k=1.0, C=1.0)

    def test_increasing_inner_law_rejected(self, di_system, di_lyap,
                                           di_manifold_small):
        with pytest.raises(DecreaseViolation):
            assemble_feedback(di_system, di_lyap, di_manifold_small,
                              ["x2/2"], k=1.0, C=1.0)

    def test_saturating_law_passes_with_unit_bound(self, di_law_small):
        # max |w| = 1 is attained only at (+-1, 0); equality is allowed
        assert di_law_small.k == 1.0
        assert di_law_small.C == 1.0
        assert di_law_small.boundary_margin >= -1e-12


class TestLawEvaluation:
    def test_region_split(self, di_law_small):
        # boundary_value <= 0 is the inner region
        assert di_law_small.boundary_value((0.1, 0.1)) < 0.0
        assert di_law_small.boundary_value((3.0, 0.0)) > 0.0
        # handover circle belongs to the inner region
        assert di_law_small.boundary_value((1.0, 0.0)) <= 0.0

    def test_inner_value_matches_the_expression(self, di_law_small):
        x = (0.5, 0.5)
        w = evaluate(di_law_small.inner_exprs[0], x)
        assert w == pytest.approx(-0.6875)
        assert di_law_small.control(x) == [w]

    def test_boundary_point_uses_the_inner_law(self, di_law_small):
        assert di_law_small.control((1.0, 0.0)) == pytest.approx([-1.0])

    def test_outer_control_is_bang(self, di_law_small):
        k = di_law_small.k
        for x in [(3.0, 3.0), (-3.0, -3.0), (4.0, 0.5), (0.5, 4.0)]:
            u = di_law_small.control(x)
            assert abs(abs(u[0]) - k) <= 1e-12
            sigma = di_law_small.switching_value(x)
            if abs(sigma) > 1e-10:
                assert u[0] == pytest.approx(-math.copysign(k, sigma))

    def test_antipodal_points_get_opposite_controls(self, di_law_small):
        u = di_law_small.control((3.0, 3.0))
        v = di_law_small.control((-3.0, -3.0))
        assert v == pytest.approx([-u[0]])

    def test_switch_event_sample_reuses_the_stored_control(self, di_law_small):
        b = di_law_small.manifold.branches[24]
        ev = b.events[0]
        u = di_law_small.control(ev.x)
        assert u == pytest.approx(list(b.u[ev.sample_index]))

    def test_tie_with_opposite_signs_takes_the_smaller_w(self, di_law_small):
        # the midpoint of sample 507 of branches 17 and 18 is equidistant
        # from both; their switching values have opposite signs, and the
        # nearer one by rounding (branch 18) has the larger W
        man = di_law_small.manifold
        a, b = man.branches[17].x[507], man.branches[18].x[507]
        p = (a + b) / 2.0
        assert di_law_small.boundary_value(p) > 0.0
        i17 = sum(len(br.tau) for br in man.branches[:17]) + 507
        i18 = i17 + len(man.branches[17].tau)
        sig = [switching_values(di_law_small.system, p, man.flat_nu[i])[0]
               for i in (i17, i18)]
        assert sig[0] > SWITCH_TOL and sig[1] < -SWITCH_TOL
        assert man.flat_w[i17] < man.flat_w[i18]
        assert man.project(p) == i17
        assert man.query(p, bounded=False) == i18
        assert di_law_small.control(p) == [-di_law_small.k]

    @pytest.mark.parametrize("law_name", ["di_law_small", "pend_law"])
    def test_outer_rows_equal_the_pointwise_law(self, law_name, request):
        # random outer points and the switch events, where |sigma| is
        # within SWITCH_TOL and the stored post-switch control is read
        law = request.getfixturevalue(law_name)
        man = law.manifold
        rng = np.random.default_rng(17)
        pts = np.concatenate([rng.uniform(-4.0, 4.0, (400, 2)),
                              [e.x for b in man.branches for e in b.events]])
        pts = pts[[law.boundary_value(p) > 0.0 for p in pts]]
        idx = man.project(pts)
        sigma = man.sigma(pts, idx)
        assert sigma.tolist() == [man.sigma(p, i) for p, i in zip(pts, idx)]
        assert (np.abs(sigma) <= SWITCH_TOL).any()
        assert law.outer_controls(pts, idx).tolist() == \
            [law.control(p)[0] for p in pts]

    def test_law_is_total_far_outside_the_sampling(self, di_law_small):
        u = di_law_small.control((40.0, -25.0))
        assert abs(u[0]) == di_law_small.k

    def test_probe_scale_follows_the_query_radius(self, di_law_small):
        assert di_law_small.fd_scale == di_law_small.manifold.query_radius


class TestVerifyBound:
    def test_unit_bound_holds_on_the_grid(self, di_law_small):
        rep = verify_bound(di_law_small, (-5.0, -5.0), (5.0, 5.0), grid_res=11)
        assert rep.max_abs <= di_law_small.k + 1e-12
        assert rep.violations == ()
        cover = illumination_grid(di_law_small.manifold, (-5.0, -5.0),
                                  (5.0, 5.0), 11)
        dark = tuple(tuple(p) for p, status in zip(cover.points.tolist(),
                                                   cover.status)
                     if status == "dark")
        # N = 64 at tau_max = 10 leaves dark strips in [-5, 5]^2
        assert dark
        assert rep.not_covered == dark


class TestExportLaw:
    def test_header_records_the_law_parameters(self, di_law_small, tmp_path):
        path = tmp_path / "law.csv"
        SY.export_law_csv(di_law_small, str(path))
        lines = path.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("inner1: -x1 - x2*(1 - x1^2)/2" in l for l in meta)
        assert any("epsilon: 0.5" in l for l in meta)
        assert any("k: 1" in l for l in meta)
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "psi,tau,x1,x2,nu1,nu2,u,W,S,event_flag"
        assert len(body) == di_law_small.manifold.n_samples + 1
