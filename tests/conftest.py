"""Shared fixtures: systems, manifolds and feedback laws reused across
modules.  Manifold construction dominates suite runtime, so everything
heavy is session-scoped and built once."""

import importlib
import pkgutil
import time

import numpy as np
import pytest

import pmpstab as ps

# Hypothesis also draws the literals of every loaded non-test module, so a
# derandomized property test would draw other examples when other test
# files (say, test_cli with pmpstab.cli) are selected.  Loading the whole
# package here gives every selection the same pool.
for _module in pkgutil.iter_modules(ps.__path__):
    importlib.import_module(f"pmpstab.{_module.name}")

# saturating inner law for the double integrator: max |w| = 1 on the unit
# disk (attained only at (+-1, 0)), V-dot = -x2^2 (1 - x1^2)/2 <= 0
DI_INNER = "-x1 - x2*(1 - x1^2)/2"

# computed-torque + PD inner law for the pendulum on the radius-0.8 disk
PEND_INNER = "sin(x1) - x1 - x2"


@pytest.fixture(scope="session")
def di_system():
    return ps.double_integrator_system()


@pytest.fixture(scope="session")
def di_lyap():
    return ps.double_integrator_lyapunov(0.5)


@pytest.fixture(scope="session")
def di_manifold_small(di_system, di_lyap):
    """Coarse manifold for structural module tests."""
    return ps.build_manifold(di_system, di_lyap, 64, 10.0)


@pytest.fixture(scope="session")
def di_manifold_timed(di_system, di_lyap):
    """The N = 512, tau_max = 10 manifold used by the golden checks,
    together with its wall-clock construction time in seconds."""
    t0 = time.perf_counter()
    man = ps.build_manifold(di_system, di_lyap, 512, 10.0)
    return man, time.perf_counter() - t0


@pytest.fixture(scope="session")
def di_manifold(di_manifold_timed):
    return di_manifold_timed[0]


@pytest.fixture(scope="session")
def di_manifold_deep(di_system, di_lyap):
    """Same seeding, reversed time extended until the corner strips of
    [-5,5]^2 fall inside the query radius (single-switch branch geometry
    needs total reversed time ~ 14 to reach them)."""
    return ps.build_manifold(di_system, di_lyap, 512, 14.0)


@pytest.fixture(scope="session")
def di_law(di_system, di_lyap, di_manifold_deep):
    return ps.assemble_feedback(di_system, di_lyap, di_manifold_deep,
                                [DI_INNER], k=1.0, C=1.0)


@pytest.fixture(scope="session")
def di_law_small(di_system, di_lyap, di_manifold_small):
    return ps.assemble_feedback(di_system, di_lyap, di_manifold_small,
                                [DI_INNER], k=1.0, C=1.0)


@pytest.fixture(scope="session")
def pend_system():
    return ps.manipulator_system("-sin(x1)")


@pytest.fixture(scope="session")
def pend_lyap():
    return ps.LyapunovSpec("(x1^2 + x2^2)/2", 2, epsilon=0.32)


@pytest.fixture(scope="session")
def pend_manifold(pend_system, pend_lyap):
    return ps.build_manifold(pend_system, pend_lyap, 256, 12.0)


@pytest.fixture(scope="session")
def pend_law(pend_system, pend_lyap, pend_manifold):
    return ps.assemble_feedback(pend_system, pend_lyap, pend_manifold,
                                [PEND_INNER], k=1.0, C=1.0)


@pytest.fixture(scope="session")
def pend_gains():
    return ps.select_gains(1.0)
