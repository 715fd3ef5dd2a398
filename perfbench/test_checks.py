"""Each correctness check of the benchmark passes on the program's output
and fails on a deliberately wrong copy of it.

    python3 -m pytest perfbench/test_checks.py

Small manifolds keep this under a minute; the benchmark itself runs the
checks on the shipped configs.
"""

import dataclasses
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pmpstab as ps  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

PEND_INNER = "sin(x1) - x1 - x2"
DI_INNER = "-x1 - x2*(1 - x1^2)/2"


@pytest.fixture(scope="module")
def pend_law():
    sys_ = ps.manipulator_system("-sin(x1)")
    lyap = ps.LyapunovSpec("(x1^2 + x2^2)/2", 2, epsilon=0.32)
    man = ps.build_manifold(sys_, lyap, 16, 3.0)
    return ps.assemble_feedback(sys_, lyap, man, [PEND_INNER], k=1.0, C=1.0)


@pytest.fixture(scope="module")
def di_law():
    sys_ = ps.double_integrator_system(1.0)
    lyap = ps.LyapunovSpec("(x1^2 + x2^2)/2", 2, epsilon=0.5)
    man = ps.build_manifold(sys_, lyap, 32, 14.0)
    return ps.assemble_feedback(sys_, lyap, man, [DI_INNER], k=1.0, C=1.0)


def _replace_branch(man, i, **arrays):
    """A manifold whose branch i has the given arrays swapped in."""
    branches = list(man.branches)
    branches[i] = dataclasses.replace(branches[i], **arrays)
    return ps.LagrangianManifold(man.system, man.lyapunov, man.epsilon,
                                 branches, man.tau_max, man.budget)


def _change_digit(path, line_no):
    """Change the last digit of the first float on line `line_no`."""
    with open(path) as fh:
        lines = fh.readlines()
    field = lines[line_no].split(",")
    digits = field[1]
    field[1] = digits[:-1] + ("1" if digits[-1] != "1" else "2")
    lines[line_no] = ",".join(field)
    with open(path, "w") as fh:
        fh.writelines(lines)


# ---------------------------------------------------------- synth-pendulum

def test_manifold_identities(pend_law):
    man = pend_law.manifold
    assert checks.check_branches(man, 16) == []
    assert checks.check_hamiltonian_constant(man) == []
    assert checks.check_generating_value(man) == []
    assert checks.check_branches(man, 17) != []

    b = man.branches[3]
    s = b.s.copy()
    s[len(s) // 2] += 1e-5
    assert checks.check_hamiltonian_constant(_replace_branch(man, 3, s=s)) != []
    w = b.w.copy()
    w[-1] += 1e-5
    assert checks.check_generating_value(_replace_branch(man, 3, w=w)) != []


def test_forward_return(pend_law):
    man = pend_law.manifold
    idx = np.nonzero((man.flat_tau >= 0.5) & (np.abs(man.flat_nu[:, 1]) > 1e-6))[0]
    idx = idx[:: max(len(idx) // 6, 1)][:6]
    x, nu, tau = man.flat_x[idx], man.flat_nu[idx], man.flat_tau[idx]
    assert checks.check_forward_return(x, nu, tau, man.epsilon, 1.0) == []
    assert checks.check_forward_return(x, -nu, tau, man.epsilon, 1.0) != []
    assert checks.check_forward_return(x, nu, tau, man.epsilon, -1.0) != []
    assert checks.check_forward_return(x * (1.0 + 1e-4), nu, tau,
                                       man.epsilon, 1.0) != []


def test_law_csv(pend_law, tmp_path):
    path = str(tmp_path / "law.csv")
    ps.export_law_csv(pend_law, path)
    header = {"inner1": PEND_INNER, "epsilon": "0.32", "k": "1.0", "C": "1.0"}
    assert checks.check_law_csv(path, pend_law.manifold, header) == []
    assert checks.check_law_csv(path, pend_law.manifold,
                                dict(header, k="2.0")) != []

    copy = str(tmp_path / "copy.csv")
    shutil.copy(path, copy)
    assert checks.file_digest(path) == checks.file_digest(copy)
    _change_digit(copy, 100)
    assert checks.file_digest(path) != checks.file_digest(copy)
    assert checks.check_law_csv(copy, pend_law.manifold, header) != []


# ----------------------------------------------------------------- grid-di

def test_switch_events(di_law):
    man = di_law.manifold
    assert checks.check_switch_events(man, 1.0) == []
    # a flipped bang sign moves every closed-form switch point
    assert checks.check_switch_events(man, -1.0) != []
    i = next(i for i, b in enumerate(man.branches)
             if any(e.kind == "switch" for e in b.events))
    b = man.branches[i]
    events = [dataclasses.replace(e, x=(e.x[0] + 1e-6, e.x[1]))
              if e.kind == "switch" else e for e in b.events]
    assert checks.check_switch_events(_replace_branch(man, i, events=events),
                                      1.0) != []


def test_tiling():
    blocks = workloads.grid_blocks()
    assert checks.check_tiling(blocks, (-5.0, -5.0), (5.0, 5.0), 21) == []
    assert checks.check_tiling(blocks[1:], (-5.0, -5.0), (5.0, 5.0), 21) != []
    assert checks.check_tiling(blocks, (-5.0, -5.0), (5.0, 5.0), 11) != []


class _FlippedLaw:
    """The law with the sign of its outer bang control flipped."""

    def __init__(self, law):
        self._law = law

    def __getattr__(self, name):
        return getattr(self._law, name)

    def control(self, x):
        u = self._law.control(x)
        return u if self._law.boundary_value(x) <= 0.0 else [-v for v in u]


def test_closed_loop(di_law):
    traj = ps.simulate_closed_loop(di_law, (3.0, 3.0), 100.0)
    assert checks.check_trajectory(traj, 100.0, 1.0, 0.5, 1e-2) == []
    verdict = ps.stabilization_verdict(di_law, traj)
    assert checks.check_verdicts([verdict], 100.0, 1.0, 1e-2) == []
    assert checks.check_verdicts(
        [dataclasses.replace(verdict, max_abs_u=1.5)], 100.0, 1.0, 1e-2) != []

    flipped = ps.simulate_closed_loop(_FlippedLaw(di_law), (3.0, 3.0), 20.0)
    assert checks.check_trajectory(flipped, 20.0, 1.0, 0.5, 1e-2) != []
    assert checks.check_verdicts(
        [ps.stabilization_verdict(di_law, flipped)], 20.0, 1.0, 1e-2) != []

    # V rising inside the handover set
    x = traj.x.copy()
    i = np.nonzero(0.5 * np.sum(x * x, axis=1) <= 0.4)[0][5]
    x[i] = 1.01 * x[i - 1]
    assert checks.check_trajectory(dataclasses.replace(traj, x=x),
                                   100.0, 1.0, 0.5, 1e-2) != []


# ------------------------------------------------------- observer-pendulum

def test_observer(pend_law, tmp_path):
    gains = ps.select_gains(1.0)
    assert checks.check_gains(gains, 1.0, 0.1) == []
    assert checks.check_gains(ps.ObserverGains(gains.delta, gains.beta1, 1.0,
                                               1.0), 1.0, 0.1) != []

    res = ps.simulate_output_feedback(pend_law.system, pend_law, gains,
                                      (0.5, 0.0), (0.5, 0.3), 100.0)
    assert checks.check_observer_run(res, gains, 100.0, 1e-2) == []
    assert checks.check_mismatch(res) == []
    e = res.e.copy()
    e[len(e) // 2] *= 1.5
    assert checks.check_observer_run(dataclasses.replace(res, e=e),
                                     gains, 100.0, 1e-2) != []
    assert checks.check_observer_run(dataclasses.replace(res, converged=False),
                                     gains, 100.0, 1e-2) != []

    path = str(tmp_path / "errlog.csv")
    ps.export_error_log(res, path)
    assert checks.check_error_log(path, res) == []
    _change_digit(path, 10)
    assert checks.check_error_log(path, res) != []


def test_mismatch_bound(pend_law):
    gains = ps.select_gains(1.0)
    res = ps.simulate_output_feedback(pend_law.system, pend_law, gains,
                                      (2.0, 0.0), (2.0, 1.0), 100.0)
    assert len(res.mismatch_t) and checks.check_mismatch(res) == []
    lhs = res.mismatch_lhs.copy()
    lhs[0] = res.mismatch_rhs[0] + 1e-6
    assert checks.check_mismatch(dataclasses.replace(res, mismatch_lhs=lhs)) != []
    rhs = res.mismatch_rhs * 2.0
    assert checks.check_mismatch(dataclasses.replace(res, mismatch_rhs=rhs)) != []
