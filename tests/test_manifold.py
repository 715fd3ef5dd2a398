"""Bicharacteristic integration and the sampled Lagrangian manifold.

The double integrator admits closed forms for everything: with seed angle
psi on the unit circle and reversed time tau,

    nu(tau) = (cos psi, sin psi + tau cos psi)
    S(psi)  = sin psi cos psi - |sin psi|          (conserved)
    W(tau)  = eps - tau S(psi)

and the pre-switch state under u = -1 (upper half, sin psi > 0) is

    x1(tau) = cos psi - tau sin psi - tau^2/2,  x2(tau) = sin psi + tau.

The costate second component vanishes at tau* = -tan psi, so a branch
switches at most once and only when tan psi < 0.
"""

import csv
import ctypes
import gc
import io
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import pmpstab.exprs as ex
import pmpstab.manifold as M
from pmpstab import _dop853
from pmpstab.hamiltonian import (SWITCH_TOL, branch_control,
                                 hamiltonian_value, hamiltonian_values,
                                 switching_values)
from pmpstab.manifold import NotCoveredError, flow_forward, seed_manifold
from pmpstab.observer import manipulator_system
from pmpstab.synthesis import double_integrator_system
from pmpstab.systems import ControlSet, ControlSystem, LyapunovSpec


def flat_index(man, branch, sample):
    return sum(len(b.tau) for b in man.branches[:branch]) + sample


def closed_nu(psi, tau):
    return np.array([math.cos(psi), math.sin(psi) + tau * math.cos(psi)])


def closed_s(psi):
    return math.sin(psi) * math.cos(psi) - abs(math.sin(psi))


class TestSeeding:
    def test_planar_seeds_sit_on_the_level_circle(self, di_lyap):
        seeds = seed_manifold(di_lyap, 16)
        assert len(seeds) == 16
        for k, seed in enumerate(seeds):
            assert seed.index == k
            assert seed.psi == pytest.approx(2.0 * math.pi * k / 16)
            x0 = np.asarray(seed.x0)
            assert np.linalg.norm(x0) == pytest.approx(1.0, abs=1e-9)
            assert seed.nu0 == pytest.approx(di_lyap.gradient(x0), abs=1e-12)

    def test_scalar_state_gets_two_seeds(self):
        lyap = LyapunovSpec("x1^2/2", 1, epsilon=0.5)
        seeds = seed_manifold(lyap, 2)
        assert len(seeds) == 2
        assert seeds[0].x0 == pytest.approx((1.0,), abs=1e-9)
        assert seeds[1].x0 == pytest.approx((-1.0,), abs=1e-9)

    def test_too_few_seeds_rejected(self, di_lyap):
        with pytest.raises(Exception, match="at least 8"):
            seed_manifold(di_lyap, 4)

    def test_unsupported_dimension_rejected(self):
        lyap = LyapunovSpec("(x1^2 + x2^2 + x3^2)/2", 3, epsilon=0.5)
        with pytest.raises(Exception, match="n = 1 and n = 2"):
            seed_manifold(lyap, 16)


class TestBranchClosedForms:
    # seed index 24 of 64 is psi = 3 pi / 4, the worked spot check
    PSI = 3.0 * math.pi / 4.0

    def branch(self, man):
        return man.branches[24]

    def test_costate_matches_closed_form_everywhere(self, di_manifold_small):
        b = self.branch(di_manifold_small)
        for j in range(0, len(b.tau), 37):
            assert b.nu[j] == pytest.approx(closed_nu(self.PSI, b.tau[j]),
                                            abs=1e-9)

    def test_pre_switch_state_matches_closed_form(self, di_manifold_small):
        b = self.branch(di_manifold_small)
        for j in range(0, len(b.tau), 11):
            tau = b.tau[j]
            if tau > 0.9:
                break
            want = (math.cos(self.PSI) - tau * math.sin(self.PSI) - tau ** 2 / 2,
                    math.sin(self.PSI) + tau)
            assert b.x[j] == pytest.approx(want, abs=1e-9)

    def test_single_switch_event_at_minus_tan_psi(self, di_manifold_small):
        b = self.branch(di_manifold_small)
        assert len(b.events) == 1
        ev = b.events[0]
        assert ev.kind == "switch"
        assert ev.tau == pytest.approx(-math.tan(self.PSI), abs=1e-9)
        assert ev.x == pytest.approx((-0.5 - math.sqrt(2.0),
                                      1.0 + math.sqrt(2.0) / 2.0), abs=1e-9)
        assert ev.nu[1] == pytest.approx(0.0, abs=1e-9)
        assert ev.transversality == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-9)

    def test_control_flips_from_minus_to_plus_at_the_switch(self, di_manifold_small):
        b = self.branch(di_manifold_small)
        assert b.control_at(0.5) == [-1.0]
        assert b.control_at(1.5) == [1.0]

    def test_hamiltonian_value_conserved_on_every_branch(self, di_manifold_small):
        for b in di_manifold_small.branches:
            s = np.asarray(b.s)
            assert float(np.max(np.abs(s - s[0]))) <= 1e-7
            psi = b.seed.psi
            assert s[0] == pytest.approx(closed_s(psi), abs=1e-9)

    def test_generating_value_is_eps_minus_tau_s(self, di_manifold_small):
        eps = di_manifold_small.epsilon
        for b in di_manifold_small.branches[::7]:
            w = np.asarray(b.w)
            want = eps - np.asarray(b.tau) * b.s[0]
            assert float(np.max(np.abs(w - want))) <= 1e-7

    def test_interpolators_agree_with_stored_samples(self, di_manifold_small):
        b = self.branch(di_manifold_small)
        j = len(b.tau) // 3
        x, nu = b.interp_state(b.tau[j])
        assert x == pytest.approx(b.x[j], abs=1e-12)
        assert nu == pytest.approx(b.nu[j], abs=1e-12)
        assert b.interp_w(b.tau[j]) == pytest.approx(b.w[j], abs=1e-12)

    def test_forced_sampling_grid_is_dense(self, di_manifold_small):
        for b in di_manifold_small.branches[::13]:
            tau = np.asarray(b.tau)
            assert float(np.max(np.diff(tau))) <= 0.01 + 1e-9
            assert tau[0] <= 1e-9
            assert tau[-1] == pytest.approx(di_manifold_small.tau_max)

    def test_tangency_seeds_are_flagged_and_eventless(self, di_manifold_small):
        # psi = 0 and psi = pi: costate component along b vanishes identically
        for idx in (0, 32):
            b = di_manifold_small.branches[idx]
            assert b.degenerate_seed
            assert b.events == []
            assert max(abs(v) for v in b.s) <= 1e-9

    def test_non_transversal_degenerate_seed_is_one_sample(self):
        # xdot = u: ad_f b = 0, so the tangency seeds psi = 0 and pi are
        # not transversal either, and their branches stop at the seed
        sys = ControlSystem(2, ControlSet.box((-1.0,), (1.0,)),
                            drift=("0", "0"), columns=(("0", "1"),))
        lyap = LyapunovSpec("(x1^2 + x2^2)/2", 2, epsilon=0.5)
        man = M.build_manifold(sys, lyap, 16, 2.0)
        for idx, b in enumerate(man.branches):
            if idx in (0, 8):
                assert b.degenerate_seed
                assert len(b.tau) == 1
                assert [(e.kind, e.tau, e.sample_index) for e in b.events] \
                    == [("transversality-failure", 0.0, 0)]
            else:
                assert len(b.tau) > 1 and b.events == []

    def test_branches_switch_exactly_when_tan_psi_is_negative(self, di_manifold_small):
        for b in di_manifold_small.branches:
            psi = b.seed.psi
            switches = [e for e in b.events if e.kind == "switch"]
            assert len(switches) <= 1
            expect = (math.pi / 2 < psi < math.pi
                      or 3 * math.pi / 2 < psi < 2 * math.pi)
            tau_star = -math.tan(psi) if expect else math.inf
            if expect and tau_star < di_manifold_small.tau_max:
                assert len(switches) == 1
            else:
                assert switches == []


class TestQuery:
    def test_stored_sample_is_its_own_nearest_neighbor(self, di_manifold_small):
        man = di_manifold_small
        b = man.branches[24]
        i = man.query(tuple(b.x[50]))
        assert i == flat_index(man, 24, 50)
        assert np.array_equal(man.flat_x[i], b.x[50])
        assert man.flat_tau[i] == b.tau[50]
        assert np.array_equal(man.flat_u[i], b.u[50])
        assert man.flat_w[i] == b.w[50]
        assert man.flat_s[i] == b.s[50]

    def test_uncovered_point_raises_with_diagnostics(self, di_manifold_small):
        with pytest.raises(NotCoveredError) as info:
            di_manifold_small.query((50.0, 50.0))
        err = info.value
        assert err.distance > err.radius
        assert err.radius == pytest.approx(di_manifold_small.query_radius)

    def test_unbounded_query_reaches_any_point(self, di_manifold_small):
        man = di_manifold_small
        i = man.query((50.0, 50.0), bounded=False)
        assert np.linalg.norm(man.flat_x[i] - (50.0, 50.0)) > man.query_radius
        assert np.isfinite(man.flat_w[i])

    def test_ties_are_sorted_and_contain_the_nearest(self, di_manifold_small):
        # the midpoint of sample 507 of branches 17 and 18 is nearer to
        # these two than to any other sample; their switching values have
        # opposite signs, so within TIE_TOL the smaller W (branch 17) wins
        man = di_manifold_small
        a, b = man.branches[17].x[507], man.branches[18].x[507]
        mid = (a + b) / 2.0
        step = (b - a) / np.linalg.norm(b - a)
        i17, i18 = flat_index(man, 17, 507), flat_index(man, 18, 507)
        assert man.flat_w[i17] < man.flat_w[i18]
        for shift in (0.0, 0.45 * M.TIE_TOL):
            assert man.project(mid + shift * step) == i17
        # moving by more than TIE_TOL / 2 makes the gap exceed TIE_TOL
        assert man.project(mid + 0.55 * M.TIE_TOL * step) == i18

    def test_same_sign_tie_goes_to_the_earliest_index(self, di_manifold_small):
        # the midpoint of sample 300 of branches 18 and 19 is equidistant
        # from both, and their switching values share a sign
        man = di_manifold_small
        a, b = man.branches[18].x[300], man.branches[19].x[300]
        p = (a + b) / 2.0
        i18, i19 = flat_index(man, 18, 300), flat_index(man, 19, 300)
        assert np.linalg.norm(man.flat_x[i18] - p) == \
            np.linalg.norm(man.flat_x[i19] - p)
        sig = [switching_values(man.system, p, man.flat_nu[i])[0]
               for i in (i18, i19)]
        assert min(abs(v) for v in sig) > SWITCH_TOL
        assert (sig[0] > 0.0) == (sig[1] > 0.0)
        assert man.project(p) == i18
        assert man.query(p, bounded=False) == i19


def ball_project(man, tree, x):
    """The tie rule of `project` as one nearest query and one ball query
    per point, with a KD-tree of its own: the samples within TIE_TOL of
    the nearest distance are tied; opposite switching values at x give the
    smallest W, else the nearest, the earliest flat index first."""
    p = np.asarray(x, dtype=float)
    dmin, _ = tree.query(p)
    ties = sorted(tree.query_ball_point(p, float(dmin) + M.TIE_TOL))
    if len(ties) == 1:
        return ties[0]
    signs = set()
    for i in ties:
        s = man.sigma(x, i)
        if abs(s) > SWITCH_TOL:
            signs.add(s > 0)
    if len(signs) > 1:
        return min(ties, key=lambda i: man.flat_w[i])
    return min(ties, key=lambda i: np.linalg.norm(man.flat_x[i] - p))


def near_tie_points(man, count, rng, reach=8):
    """Points whose runner-up sample lies within a few ulps of the nearest
    distance plus TIE_TOL.  From each of `count` random points, Newton
    steps move it to where d2 - d1 = TIE_TOL for its two nearest samples;
    of the lattice of whole-ulp moves of its coordinates around there, the
    points with |d2 - (d1 + TIE_TOL)| <= 4 ulp(d1 + TIE_TOL) are kept."""
    out = []
    half = float(np.max(np.abs(man.flat_x))) / 4.0
    k = np.arange(-reach, reach + 1)
    steps = np.stack([a.ravel() for a in np.meshgrid(k, k, indexing="ij")],
                     axis=1)
    for q in rng.uniform(-half, half, (count, 2)):
        for _ in range(4):
            (da, db), (a, b) = man.nearest(q, k=2)
            g = (q - man.flat_x[b]) / db - (q - man.flat_x[a]) / da
            q = q - (db - da - M.TIE_TOL) * g / (g @ g)
        lattice = q + steps * np.spacing(q)
        d, _ = man.nearest(lattice, k=2)
        edge = d[:, 0] + M.TIE_TOL
        out.append(lattice[np.abs(d[:, 1] - edge) <= 4 * np.spacing(edge)])
    return np.concatenate(out)


class TestArrayProject:
    """`project` over arrays against the tie rule read point by point."""

    @pytest.fixture(params=["di_law", "pend_law"])
    def man(self, request):
        return request.getfixturevalue(request.param).manifold

    @staticmethod
    def compare(man, pts):
        tree = cKDTree(man.flat_x)
        want = np.array([ball_project(man, tree, p) for p in pts])
        got = man.project(pts)
        assert got.shape == (len(pts),)
        assert np.array_equal(got, want)
        return want

    def test_random_points(self, man):
        rng = np.random.default_rng(20261019)
        half = float(np.max(np.abs(man.flat_x))) / 4.0
        self.compare(man, rng.uniform(-half, half, (600, 2)))

    def test_exact_midpoints(self, man):
        # midpoints of consecutive samples on a branch and of the same
        # sample index on neighbouring branches: exact ties up to rounding
        rng = np.random.default_rng(7)
        pts = []
        for _ in range(300):
            bi = int(rng.integers(len(man.branches) - 1))
            a, b = man.branches[bi].x, man.branches[bi + 1].x
            k = int(rng.integers(min(len(a), len(b)) - 1))
            pts += [(a[k] + b[k]) / 2.0, (a[k] + a[k + 1]) / 2.0]
        pts = np.array(pts)
        want = self.compare(man, pts)
        # the tie rule decides: the nearest sample by the tree is not the
        # one read at some of these points
        assert (want != man.nearest(pts)[1]).any()

    def test_runner_up_within_ulps_of_the_tie_radius(self, man):
        pts = near_tie_points(man, 12, np.random.default_rng(11))
        assert len(pts) >= 1000
        self.compare(man, pts)

    def test_array_call_equals_the_pointwise_call(self, man):
        rng = np.random.default_rng(5)
        half = float(np.max(np.abs(man.flat_x))) / 4.0
        pts = np.concatenate([rng.uniform(-half, half, (100, 2)),
                              near_tie_points(man, 3, rng)])
        got = man.project(pts)
        assert got.tolist() == [man.project(p) for p in pts]
        one = man.project(pts[0])
        assert type(one) is int and one == got[0]
        assert type(man.project(tuple(pts[1]))) is int
        assert man.project(pts[:0]).shape == (0,)


class TestSwitchingCurve:
    def test_two_families_with_correct_angle_ranges(self, di_manifold_small):
        pts = M.switching_curve(di_manifold_small)
        fams = {p.family for p in pts}
        assert fams == {0, 1}
        for p in pts:
            if p.family == 0:
                assert math.pi / 2 < p.psi < math.pi
            else:
                assert 3 * math.pi / 2 < p.psi < 2 * math.pi
            assert p.tau == pytest.approx(-math.tan(p.psi), abs=1e-9)

    def test_point_symmetry_between_families(self, di_manifold_small):
        pts = M.switching_curve(di_manifold_small)
        fam0 = [p for p in pts if p.family == 0]
        fam1 = [p for p in pts if p.family == 1]
        assert len(fam0) == len(fam1) > 0
        # psi and psi + pi give antipodal switch points
        for p0 in fam0:
            partner = min(fam1, key=lambda p: abs(p.psi - (p0.psi + math.pi)))
            assert partner.psi == pytest.approx(p0.psi + math.pi, abs=1e-9)
            assert partner.x == pytest.approx([-v for v in p0.x], abs=1e-9)

    def test_polylines_enumerate_the_same_points(self, di_manifold_small):
        pts = M.switching_curve(di_manifold_small)
        polys = M.switching_polylines(di_manifold_small)
        assert len(polys) == 2
        stacked = np.vstack([np.asarray(p) for p in polys])
        assert stacked.shape == (len(pts), 2)
        want = np.array([p.x for p in pts])
        assert np.allclose(np.sort(stacked, axis=0), np.sort(want, axis=0))


class TestJacobian:
    def test_regular_branch_has_invertible_flow_map(self, di_manifold_small):
        info = M.jacobian_info(di_manifold_small, 24, 0.5)
        assert not info.degenerate
        assert abs(info.det) > 1e-3
        # tau column is the reversed velocity (-x2, -u) = (-x2, 1) pre switch
        x2 = math.sin(3 * math.pi / 4) + 0.5
        assert info.dx_dtau == pytest.approx((-x2, 1.0), abs=1e-6)

    def test_determinant_never_vanishes_on_regular_branches(self, di_manifold_small):
        # Liouville: the bicharacteristic flow cannot fold regular branches
        for idx in (5, 24, 40, 60):
            for tau in (0.3, 1.7, 4.0, 8.0):
                info = M.jacobian_info(di_manifold_small, idx, tau)
                assert abs(info.det) > 1e-6


class TestSectionGeometry:
    def test_seed_circle_is_isotropic(self, di_manifold_small):
        integral, integrand = M.cross_path_integral(di_manifold_small, 0.0)
        assert abs(integral) <= 1e-12
        assert float(np.max(np.abs(integrand))) <= 1e-8

    def test_sections_stay_isotropic_on_smooth_arcs(self, di_manifold_small):
        # indices 4..22 (psi in (0.39, 2.16)) keep u = -1 up to tau = 0.7
        _, integrand = M.cross_path_integral(di_manifold_small, 0.7)
        assert float(np.max(np.abs(integrand[4:23]))) <= 1e-8

    def test_same_branch_transport_is_exact(self, di_manifold_small):
        wb, wa, mis = M.two_path_generating_values(di_manifold_small, 30, 30, 3.0)
        assert wb == wa
        assert mis == 0.0

    def test_two_path_defect_equals_tau_times_s_difference(self, di_manifold_small):
        man = di_manifold_small
        # pairs inside one smooth family: transported W differs exactly by
        # tau (S_a - S_b), the conserved-value gap between the two branches
        for a, b, tau in ((4, 22, 0.7), (6, 14, 2.0), (2, 20, 0.4)):
            _, _, mis = M.two_path_generating_values(man, a, b, tau)
            gap = tau * (man.branches[a].s[0] - man.branches[b].s[0])
            assert mis == pytest.approx(gap, abs=1e-9)

    def test_branch_order_is_validated(self, di_manifold_small):
        with pytest.raises(ValueError):
            M.two_path_generating_values(di_manifold_small, 9, 3, 1.0)


class TestReversal:
    def test_forward_flow_returns_to_the_seed_level_set(self, di_system, di_lyap,
                                                        di_manifold_small):
        man = di_manifold_small
        eps = di_lyap.epsilon
        for idx, j in ((24, 300), (10, 555), (50, 700)):
            b = man.branches[idx]
            x, nu, _ = flow_forward(di_system, tuple(b.x[j]), tuple(b.nu[j]),
                                    float(b.tau[j]))
            assert di_lyap.value(x) == pytest.approx(eps, abs=1e-6)
            assert np.linalg.norm(np.asarray(nu) - di_lyap.gradient(x)) <= 1e-6

    def test_forward_flow_crosses_the_switch_once(self, di_system, di_manifold_small):
        b = di_manifold_small.branches[24]
        j_after = int(np.searchsorted(b.tau, 2.0))
        _, _, n = flow_forward(di_system, tuple(b.x[j_after]), tuple(b.nu[j_after]),
                               float(b.tau[j_after]))
        assert n == 1
        j_before = int(np.searchsorted(b.tau, 0.5))
        _, _, n = flow_forward(di_system, tuple(b.x[j_before]), tuple(b.nu[j_before]),
                               float(b.tau[j_before]))
        assert n == 0

    def test_non_transversal_start_is_rejected(self, di_system):
        # sigma = 0 with a vanishing bracket pairing leaves no branch choice
        with pytest.raises(Exception, match="non-transversal"):
            flow_forward(di_system, (1.0, 1.0), (0.0, 0.0), 1.0)

    def test_one_compiler_per_system(self, monkeypatch):
        built = []

        class Counting(M._FlowCompiler):
            def __init__(self, sys):
                built.append(sys)
                super().__init__(sys)

        monkeypatch.setattr(M, "_FlowCompiler", Counting)
        sys = double_integrator_system()
        first = flow_forward(sys, (1.2, 0.3), (0.8, 0.6), 0.5)
        second = flow_forward(sys, (1.2, 0.3), (0.8, 0.6), 0.5)
        assert built == [sys]
        assert bits(first[:2]) == bits(second[:2]) and first[2] == second[2]

    def test_switch_just_before_the_end_runs_no_segment_backwards(
            self, di_system, di_lyap, monkeypatch):
        # sample 365 of the DI N=256, tau_max=14 manifold: the forward flow
        # switches at t = 3.6099999999999977, 2.2e-15 before its end, where
        # a full 1e-12 step off the switching surface would pass the end
        starts = []
        start = _dop853._Lockstep.start

        def recording_start(self, row, seg):
            starts.append((seg.t0, seg.t_bound))
            return start(self, row, seg)

        monkeypatch.setattr(_dop853._Lockstep, "start", recording_start)
        x, nu, switches = flow_forward(
            di_system, (-5.5160500000004475, 3.6099999999999994),
            (0.9999999999995453, 3.6099999999983536), 3.61)
        assert starts == [(0.0, 3.61)]
        assert switches == 1
        assert di_lyap.value(x) == pytest.approx(di_lyap.epsilon, abs=1e-12)
        assert np.linalg.norm(nu - di_lyap.gradient(x)) <= 1e-12

    def test_compiler_cache_does_not_keep_the_system_alive(self):
        sys = double_integrator_system()
        flow_forward(sys, (1.2, 0.3), (0.8, 0.6), 0.5)
        ref = weakref.ref(sys)
        del sys
        gc.collect()
        assert ref() is None


class TestSupportedSystems:
    @pytest.mark.parametrize("sys", [
        ControlSystem(2, ControlSet.finite([(-1.0,), (1.0,)]),
                      drift=("x2", "0"), columns=(("0", "1"),)),
        ControlSystem(2, ControlSet.box((-1.0, -1.0), (1.0, 1.0)),
                      drift=("x2", "0"), columns=(("0", "1"), ("1", "0"))),
    ], ids=["finite", "two-inputs"])
    def test_rejected_before_seeding(self, sys, di_lyap, monkeypatch):
        def no_seeding(*args, **kwargs):
            raise AssertionError("seed_manifold was called")

        monkeypatch.setattr(M, "seed_manifold", no_seeding)
        with pytest.raises(M.SystemError, match="control-affine system with "
                           "a single input and a box control set"):
            M.build_manifold(sys, di_lyap, 8, 1.0)

    @pytest.mark.parametrize("tau_max", [0.0, -1.0, math.nan])
    def test_nonpositive_tau_max_rejected_before_seeding(self, tau_max, di_lyap,
                                                         monkeypatch):
        def no_seeding(*args, **kwargs):
            raise AssertionError("seed_manifold was called")

        monkeypatch.setattr(M, "seed_manifold", no_seeding)
        with pytest.raises(M.SystemError, match="tau_max must be positive"):
            M.build_manifold(double_integrator_system(), di_lyap, 8, tau_max)


class TestSwitchRule:
    """branch_control is the one switch rule: every stored switch sample
    carries the control it resolves after the switch."""

    @staticmethod
    def assert_post_switch_controls(man):
        checked = 0
        for b in man.branches:
            for e in b.events:
                if e.kind != "switch":
                    continue
                want = branch_control(man.system, e.x, e.nu, "reversed")[0]
                assert b.u[e.sample_index, 0] == want
                checked += 1
        assert checked > 0

    def test_double_integrator(self, di_manifold_small):
        self.assert_post_switch_controls(di_manifold_small)

    def test_pendulum(self, pend_system, pend_lyap):
        self.assert_post_switch_controls(
            M.build_manifold(pend_system, pend_lyap, 16, 12.0))


# tracemalloc domain of the arrays `_dop853.empty` puts in their own maps
_MAP_DOMAIN = 0x6d6170


@pytest.fixture
def traced_maps(monkeypatch):
    """tracemalloc sees numpy's heap arrays but not the anonymous maps of
    `_dop853.empty`: count each mapped array as a traced allocation of its
    size, reserved rows included, for as long as it lives."""
    track = ctypes.pythonapi.PyTraceMalloc_Track
    track.argtypes = (ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t)
    track.restype = ctypes.c_int
    untrack = ctypes.pythonapi.PyTraceMalloc_Untrack
    untrack.argtypes = (ctypes.c_uint, ctypes.c_size_t)
    untrack.restype = ctypes.c_int
    real = _dop853.empty

    def empty(shape):
        a = real(shape)
        if a.base is not None:      # a view of its map
            address = a.ctypes.data
            track(_MAP_DOMAIN, address, a.nbytes)
            weakref.finalize(a.base, untrack, _MAP_DOMAIN, address)
        return a

    monkeypatch.setattr(_dop853, "empty", empty)


class TestBuildControls:
    def test_budget_stops_branches_early(self, di_system, di_lyap):
        man = M.build_manifold(di_system, di_lyap, 8, 10.0, budget=2.0)
        b = man.branches[3]
        assert b.stopped
        assert b.tau[-1] < 10.0
        assert [e.kind for e in b.events][-1] == "budget"
        assert np.linalg.norm(b.x[-1]) == pytest.approx(2.0, abs=1e-6)

    def test_assembly_is_deterministic_across_runs(self, di_system, di_lyap):
        m1 = M.build_manifold(di_system, di_lyap, 32, 6.0)
        m2 = M.build_manifold(di_system, di_lyap, 32, 6.0)
        assert np.array_equal(m1.flat_x, m2.flat_x)
        assert np.array_equal(m1.flat_w, m2.flat_w)
        assert [len(b.tau) for b in m1.branches] == \
            [len(b.tau) for b in m2.branches]

    def test_failed_branches_are_counted(self, di_lyap):
        # sqrt(2 - x1) leaves its domain on the branches that reach x1 > 2
        sys = ControlSystem(2, ControlSet.box([-1.0], [1.0]),
                            drift=("x2", "sqrt(2 - x1) - sqrt(2)"),
                            columns=[("0", "1")])
        with pytest.warns(UserWarning) as record:
            man = M.build_manifold(sys, di_lyap, 16, 2.0)
        assert [str(w.message) for w in record] == [
            "dropped 4 failed branches (first: branch 10: math domain error)"]
        assert man.dropped == 4
        assert [b.seed.index for b in man.branches] == [*range(10), 14, 15]
        # a failing row leaves the lockstep run without touching the others
        for b in man.branches:
            alone = M.integrate_bicharacteristic(sys, b.seed, 2.0, 1e6,
                                                 di_lyap.epsilon)
            for name in ("tau", "x", "nu", "u", "w", "s"):
                assert bits(getattr(b, name)) == bits(getattr(alone, name))
            assert b.events == alone.events
            assert (b.degenerate_seed, b.stopped) == (alone.degenerate_seed,
                                                      alone.stopped)

    def test_most_branches_failing_is_an_error(self, di_lyap):
        sys = ControlSystem(2, ControlSet.box([-1.0], [1.0]),
                            drift=("x2", "log(1.3 - x1^2) - log(1.3)"),
                            columns=[("0", "1")])
        failed = ("reversed flow failed: Required step size is less than "
                  "spacing between numbers.")
        detail = "; ".join(f"branch {i}: {failed}" for i in range(5))
        with pytest.raises(RuntimeError) as info:
            M.build_manifold(sys, di_lyap, 16, 3.0)
        assert str(info.value) == f"16 of 16 branches failed: {detail}"

    @pytest.mark.parametrize("system, epsilon, count, tau_max", [
        ("pend_system", 0.32, 64, 12.0), ("di_system", 0.5, 256, 14.0)],
        ids=["pendulum", "di"])
    def test_build_holds_no_per_step_data(self, system, epsilon, count,
                                          tau_max, request, monkeypatch,
                                          traced_maps):
        # the integration phase peaks near the finished branch arrays: the
        # samples go to one growable store per row, not to per-step
        # objects or per-branch copies, and the long steps of the double
        # integrator are sampled a bounded group of rows at a time; the
        # stores' maps count at their whole size
        sys = request.getfixturevalue(system)
        lyap = LyapunovSpec("(x1^2 + x2^2)/2", 2, epsilon=epsilon)
        M.build_manifold(sys, lyap, 8, 1.0)   # compile first
        built = []
        monkeypatch.setattr(M, "LagrangianManifold",
                            lambda sys, lyap, eps, branches, *rest, **kw:
                            built.append(branches))
        tracemalloc.start()
        try:
            M.build_manifold(sys, lyap, count, tau_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nbytes = sum(a.nbytes for b in built[0]
                     for a in (b.tau, b.x, b.nu, b.u, b.w, b.s))
        assert peak <= 1.5 * nbytes

    @pytest.mark.parametrize("group", [1, 10**9])
    @pytest.mark.parametrize("system, epsilon, count, tau_max", [
        ("di_system", 0.5, 32, 14.0), ("pend_system", 0.32, 16, 12.0)],
        ids=["di", "pendulum"])
    def test_grid_groups_keep_the_bits(self, system, epsilon, count, tau_max,
                                       group, request, monkeypatch):
        # one sampling pass per grid row, or one for all rows, gives the
        # samples of the default groups
        sys = request.getfixturevalue(system)
        lyap = LyapunovSpec("(x1^2 + x2^2)/2", 2, epsilon=epsilon)
        _, expected = M.manifold_table(
            M.build_manifold(sys, lyap, count, tau_max))
        monkeypatch.setattr(_dop853, "_GRID_GROUP", group)
        _, columns = M.manifold_table(
            M.build_manifold(sys, lyap, count, tau_max))
        assert len(columns) == len(expected)
        for c, e in zip(columns, expected):
            assert c.dtype == e.dtype and c.tobytes() == e.tobytes()

    def test_nothing_dropped_is_counted_as_zero(self, di_manifold_small):
        assert di_manifold_small.dropped == 0
        assert len(di_manifold_small.branches) == 64

    def test_flat_index_covers_every_sample(self, di_manifold_small):
        man = di_manifold_small
        assert man.n_samples == sum(len(b.tau) for b in man.branches)
        assert man.flat_x.shape == (man.n_samples, 2)
        assert len(man.psi) == len(man.branches)


_FIELDS = ("tau", "x", "nu", "u", "w", "s")


class TestSingleCopy:
    """The flat arrays are the only copy of the samples."""

    @pytest.mark.parametrize("law", ["di_law", "pend_law"])
    def test_branches_are_views_of_the_flat_arrays(self, law, request):
        man = request.getfixturevalue(law).manifold
        start = 0
        for b in man.branches:
            end = start + len(b.tau)
            for name in _FIELDS:
                flat = getattr(man, f"flat_{name}")
                assert np.shares_memory(getattr(b, name), flat)
                assert np.array_equal(getattr(b, name), flat[start:end])
            start = end
        assert start == man.n_samples

    def test_branches_view_their_engine_store(self, di_system, di_lyap,
                                              monkeypatch):
        # before a manifold takes them over, x, nu and w of a branch are
        # interleaved columns of its row's one store, not copies
        built = []
        monkeypatch.setattr(M, "LagrangianManifold",
                            lambda sys, lyap, eps, branches, *rest, **kw:
                            built.append(branches))
        M.build_manifold(di_system, di_lyap, 16, 6.0)
        for b in built[0]:
            assert np.may_share_memory(b.x, b.nu)
            assert np.may_share_memory(b.x, b.w)
            assert np.may_share_memory(b.nu, b.w)

    def test_built_manifold_holds_about_one_copy(self, di_lyap, traced_maps):
        sys = double_integrator_system()
        M.build_manifold(sys, di_lyap, 32, 14.0)   # compile first
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            man = M.build_manifold(sys, di_lyap, 32, 14.0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        flat = sum(getattr(man, f"flat_{name}").nbytes for name in _FIELDS)
        assert held <= 1.25 * flat

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads VmHWM from /proc/self/status")
    def test_build_raises_rss_by_less_than_two_copies(self):
        # a fresh interpreter, so that no earlier test's freed memory is
        # reused: the pendulum config's build raises the peak RSS over the
        # import by at most 1.8 times the flat arrays (about 1.6; 2.2 when
        # the engine stores, the branches' u and s and the radius's gaps
        # came from the heap).  VmHWM is the peak of this process alone;
        # ru_maxrss would start from the peak of the process that spawned
        # it.
        code = """if True:
            import json
            import pmpstab as ps
            with open(%r) as fh:
                cfg = json.load(fh)
            def peak():
                with open("/proc/self/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            return 1024 * int(line.split()[1])
            before = peak()
            sys_ = ps.ControlSystem(2, ps.ControlSet.box([-1.0], [1.0]),
                                    drift=cfg["system"]["drift"],
                                    columns=cfg["system"]["columns"])
            lyap = ps.LyapunovSpec(cfg["lyapunov"]["V"], 2,
                                   epsilon=cfg["lyapunov"]["epsilon"])
            man = ps.build_manifold(sys_, lyap, cfg["manifold"]["N"],
                                    cfg["manifold"]["tau_max"])
            flat = sum(getattr(man, "flat_" + name).nbytes for name in
                       ("tau", "x", "nu", "u", "w", "s"))
            print(peak() - before, flat)
        """ % os.path.join(os.path.dirname(__file__), "..", "configs",
                           "pendulum.json")
        src = os.path.dirname(os.path.dirname(M.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        rise, flat = map(int, proc.stdout.split())
        assert flat > 20 * 2**20
        assert rise <= 1.8 * flat

    def test_reusing_branches_leaves_the_first_manifold_unchanged(
            self, di_system, di_lyap):
        first = M.build_manifold(di_system, di_lyap, 32, 10.0)
        _, columns = M.manifold_table(first)
        columns = [c.copy() for c in columns]
        points = np.random.default_rng(7).uniform(-4.0, 4.0, (500, 2))
        queries = [first.query(p, bounded=False) for p in points]
        projected = first.project(points).copy()

        branches = list(first.branches)
        b = branches[3]
        s = b.s.copy()
        s[len(s) // 2] += 1e-3
        branches[3] = M.Bicharacteristic(b.seed, b.tau, b.x, b.nu, b.u, b.w,
                                         s, b.events, b.degenerate_seed,
                                         b.stopped)
        second = M.LagrangianManifold(first.system, first.lyapunov,
                                      first.epsilon, branches,
                                      first.tau_max, first.budget)
        assert not np.array_equal(second.flat_s, first.flat_s)
        # the reused branches now view the second manifold's flat arrays,
        # and only the replaced one still views the first manifold's
        for i, b in enumerate(first.branches):
            own, other = (first, second) if i == 3 else (second, first)
            for name in _FIELDS:
                assert np.shares_memory(getattr(b, name),
                                        getattr(own, f"flat_{name}"))
                assert not np.shares_memory(getattr(b, name),
                                            getattr(other, f"flat_{name}"))

        _, after = M.manifold_table(first)
        assert all(np.array_equal(a, c) for a, c in zip(after, columns))
        assert [first.query(p, bounded=False) for p in points] == queries
        assert np.array_equal(first.project(points), projected)


class TestIllumination:
    def test_point_classification(self, di_manifold_small):
        man = di_manifold_small
        on_curve = tuple(man.branches[24].x[400])
        got = M.illumination_check(man, [(0.1, 0.0), on_curve, (50.0, 50.0)])
        assert got == ["inner", "illuminated", "dark"]

    def test_grid_report_counts_are_consistent(self, di_manifold_small):
        rep = M.illumination_grid(di_manifold_small, (-3.0, -3.0), (3.0, 3.0),
                                  grid_res=13)
        assert len(rep.points) == 169
        assert len(rep.status) == 169
        assert rep.inner + rep.illuminated + rep.dark == 169
        assert rep.inner > 0 and rep.illuminated > 0
        center = rep.points.index((0.0, 0.0)) if isinstance(rep.points, list) else None
        # the origin cell is always inner
        statuses = dict(zip([tuple(p) for p in rep.points], rep.status))
        assert statuses[(0.0, 0.0)] == "inner"

    def test_batched_check_matches_pointwise_queries(self, di_manifold_small):
        man = di_manifold_small
        pts = M.box_grid((-8.0, -8.0), (8.0, 8.0), 41)
        want = []
        for p in pts:
            if man.lyapunov.value(p) <= man.epsilon:
                want.append("inner")
                continue
            try:
                man.query(p)
                want.append("illuminated")
            except NotCoveredError:
                want.append("dark")
        assert set(want) == {"inner", "illuminated", "dark"}
        assert M.illumination_check(man, pts) == want
        assert M.illumination_check(man, []) == []


class TestExport:
    def test_rows_match_samples_and_flags(self, di_manifold_small, tmp_path):
        man = di_manifold_small
        path = tmp_path / "man.csv"
        M.export_manifold_csv(man, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "psi,tau,x1,x2,nu1,nu2,u,W,S,event_flag"
        assert len(lines) == man.n_samples + 1
        flags = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
        n_switch_rows = sum(1 for f in flags if f == 1)
        n_switch_events = sum(len([e for e in b.events if e.kind == "switch"])
                              for b in man.branches)
        assert n_switch_rows == n_switch_events
        assert set(flags) <= {0, 1, 2, 3}

    def test_write_table_matches_csv_writer(self):
        floats = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                  0.1, -1.5e300, 2.0]
        ints = [0, -1, 7, 2 ** 40, 3, 4, 5, 6]
        texts = ["", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "plain",
                 '"', ","]
        header = ["f", "i,j", "s"]
        columns = [np.array(floats), np.array(ints), np.array(texts)]
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(header)
        writer.writerows(zip(map(repr, floats), map(str, ints), texts))
        got = io.StringIO(newline="")
        M.write_table(got, header, columns)
        assert got.getvalue() == want.getvalue()
        # a lone empty field is quoted, as csv.writer does
        want, got = io.StringIO(newline=""), io.StringIO(newline="")
        csv.writer(want).writerows([["s"], [""], ["x"]])
        M.write_table(got, ["s"], [np.array(["", "x"])])
        assert got.getvalue() == want.getvalue()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_write_table_matches_csv_writer_on_any_columns(self, data):
        # columns drawn from a small pool repeat their values and take the
        # format-once path; the others hold mostly distinct values
        chunk = M._WRITE_CHUNK
        rows = data.draw(st.sampled_from(
            [0, 1, 2, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1])
            | st.integers(0, 3 * chunk))
        columns = [data.draw(_table_columns(rows))
                   for _ in range(data.draw(st.integers(1, 4)))]
        header = [f"c{j}" for j in range(len(columns))]
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(header)
        writer.writerows(zip(*(c.tolist() for c in columns)))
        got = io.StringIO(newline="")
        M.write_table(got, header, columns)
        assert got.getvalue() == want.getvalue()

    def test_export_is_reproducible(self, di_manifold_small, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        M.export_manifold_csv(di_manifold_small, str(a))
        M.export_manifold_csv(di_manifold_small, str(b))
        assert a.read_bytes() == b.read_bytes()


# -0.0 next to 0.0, nan, infinities, subnormals and plain values
_SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                   -5e-324, 1e-310, 0.1, -1.5e300, 1.0, -1.0]


@st.composite
def _table_columns(draw, rows):
    """A float, int or bool column of `rows` values: from a pool of at most
    six (repeating) or mostly distinct, contiguous or strided."""
    kind = draw(st.sampled_from(["float", "int", "bool"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stride = draw(st.sampled_from([1, 2]))
    size = rows * stride
    if kind == "bool":
        values = rng.random(size) < 0.5
    elif draw(st.booleans()):
        pool = draw(st.lists(st.sampled_from(_SPECIAL_FLOATS) | st.floats()
                             if kind == "float" else
                             st.integers(-2 ** 63, 2 ** 63 - 1),
                             min_size=1, max_size=4))
        if kind == "float" and draw(st.booleans()):
            pool += [0.0, -0.0]
        values = np.array(pool)[rng.integers(len(pool), size=size)]
    elif kind == "float":
        values = np.ldexp(rng.standard_normal(size),
                          rng.integers(-1070, 1020, size))
        special = rng.random(size) < 0.1
        values[special] = rng.choice(_SPECIAL_FLOATS, np.count_nonzero(special))
    else:
        values = rng.integers(-2 ** 63, 2 ** 63 - 1, size)
    return values[::stride]


def bits(values):
    """The bytes of float64 values, so that == compares bit for bit."""
    return np.asarray(values, dtype=float).tobytes()


def scalar_s(sys, x, nu, u):
    return [hamiltonian_value(sys, xi, ni, ui) for xi, ni, ui in zip(x, nu, u)]


def reference_rhs(sys, u):
    """The reversed-flow RHS at the float control u in three layers, the
    reference for the weighted compile_scalar: a closure calling
    compile_scalar's function of the body, then dW accumulated in a
    loop."""
    n = sys.n
    xdot = sys.closed_loop_exprs([ex._num(u)])
    body = [ex._neg(e) for e in xdot]
    for k in range(n):
        acc = ex.Num(0.0)
        for i in range(n):
            dik = ex.diff(xdot[i], f"x{k + 1}")
            acc = ex._add(acc, ex._mul(dik, ex.Var(n + 1 + i)))
        body.append(acc)
    core = ex.compile_scalar(body)

    def fn(t, y):
        vals = core(t, y)
        dw = 0.0
        for k in range(n):
            dw += y[n + k] * vals[k]
        vals.append(dw)
        return vals

    return fn


def rich_system():
    """Powers, exp, tanh, a division and a state-dependent column."""
    return ControlSystem(2, ControlSet.box([-2.0], [2.0]),
                         drift=("x2", "-x1^3/3 - tanh(x2) + exp(-x1^2) - 1"),
                         columns=[("0", "1 + x1/(2 + cos(x2))")])


class TestBitIdentity:
    """The batched Hamiltonian post-pass and the one-call reversed-flow RHS
    reproduce the scalar evaluation bit for bit."""

    def test_batched_s_matches_scalar_on_the_di_manifold(self, di_system,
                                                         di_manifold_small):
        man = di_manifold_small
        assert bits(man.flat_s) == bits(
            scalar_s(di_system, man.flat_x, man.flat_nu, man.flat_u))

    def test_batched_s_matches_scalar_on_a_pendulum_manifold(self, pend_system,
                                                             pend_lyap):
        man = M.build_manifold(pend_system, pend_lyap, 16, 12.0)
        assert bits(man.flat_s) == bits(
            scalar_s(pend_system, man.flat_x, man.flat_nu, man.flat_u))

    def test_batched_s_matches_scalar_on_random_rows(self):
        sys = rich_system()
        rng = np.random.default_rng(21)
        x, nu = 2.0 * rng.normal(size=(400, 2)), rng.normal(size=(400, 2))
        u = rng.choice([-2.0, 2.0], size=(400, 1))
        assert bits(hamiltonian_values(sys, x, nu, u)) == bits(scalar_s(sys, x, nu, u))

    @pytest.mark.parametrize("f", ["sqrt(1 + x1) - 1", "log(1 + x1)"])
    def test_batched_s_raises_where_scalar_raises(self, f):
        sys = ControlSystem(2, ControlSet.box([-1.0], [1.0]),
                            drift=("x2", f), columns=[("0", "1")])
        x = np.array([[0.5, 0.1], [-2.0, 0.3], [1.0, -1.0]])
        nu, u = np.ones((3, 2)), np.ones((3, 1))
        with pytest.raises(ex.ExprDomainError):
            hamiltonian_value(sys, x[1], nu[1], u[1])
        with pytest.raises(ex.ExprDomainError):
            hamiltonian_values(sys, x, nu, u)
        assert bits(hamiltonian_values(sys, x[::2], nu[::2], u[::2])) == bits(
            scalar_s(sys, x[::2], nu[::2], u[::2]))

    @pytest.mark.parametrize("make", [double_integrator_system,
                                      lambda: manipulator_system("-sin(x1)"),
                                      rich_system], ids=["di", "pendulum", "rich"])
    def test_rhs_matches_the_three_layer_reference(self, make):
        sys = make()
        compiler = M._FlowCompiler(sys)
        rng = np.random.default_rng(22)
        for u in (sys.omega.lower[0], sys.omega.upper[0]):
            rhs, ref = compiler.flow((u, "reversed"))[0], reference_rhs(sys, u)
            fwd = compiler.flow((u, "forward"))[0]
            ys = 3.0 * rng.normal(size=(200, 5))
            for y in ys:
                want = ref(0.0, y)
                assert bits(rhs(0.0, y)) == bits(want)
                # by value: the negated forward body may flip signed zeros
                assert fwd(0.0, y) == [-v for v in want]
            # the batched right-hand sides give the same bits row by row
            for direction, scalar in (("reversed", rhs), ("forward", fwd)):
                batch = compiler.flow((u, direction))[1]
                assert bits(batch(0.0, ys)) == bits([scalar(0.0, y) for y in ys])

    def test_rhs_raises_domain_errors(self):
        sys = ControlSystem(2, ControlSet.box([-1.0], [1.0]),
                            drift=("x2", "sqrt(1 + x1) - 1"), columns=[("0", "1")])
        compiler = M._FlowCompiler(sys)
        y = np.array([[0.5, 0.0, 1.0, 1.0, 0.0], [-2.0, 0.0, 1.0, 1.0, 0.0]])
        with pytest.raises(ex.ExprDomainError):
            compiler.flow((1.0, "reversed"))[0](0.0, y[1])
        with pytest.raises(ex.ExprDomainError):
            compiler.flow((1.0, "reversed"))[1](0.0, y)
