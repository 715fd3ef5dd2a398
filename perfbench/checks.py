"""Correctness checks on the program's outputs.

Every check returns a list of problems; an empty list means it passed.
The checks rest on computations made here, apart from pmpstab, or on
properties the method must have:

- the pendulum characteristic system, integrated forward with scipy,
- the closed-form first switch of the double integrator,
- the observer's decay inequalities and error Lyapunov function,
- exact read-back of the CSV files the program writes.

Tolerances are those of the repository's acceptance checks (c03, c05a,
c06, c09, c11) where one exists.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.integrate import solve_ivp

LAW_COLUMNS = ["psi", "tau", "x1", "x2", "nu1", "nu2", "u", "W", "S",
               "event_flag"]
S_TOL = 1e-7          # |S(tau) - S(0)| along a branch (c03)
W_TOL = 1e-7          # |W - (eps - tau S)| along a branch (c05a)
RETURN_TOL = 1e-6     # forward flow back onto {V = eps}, nu = grad V (c11),
                      # per unit of |nu| at the sample where |nu| > 1
SWITCH_TOL = 1e-8     # switch event against the closed form (c02 is 1e-6)
U_TOL = 1e-12         # |u| <= C (c06)
V_STEP_TOL = 1e-9     # V step inside the handover set (c06)
VE_STEP_TOL = 1e-12   # V(e) step of the observer error (c09)
MISMATCH_TOL = 1e-12  # |sigma du| <= 2 M |e2| (c09)


def _first(problems: list[str], limit: int = 3) -> list[str]:
    return problems[:limit] + ([f"... {len(problems) - limit} more"]
                               if len(problems) > limit else [])


# ---------------------------------------------------------------- law CSV

def read_law_csv(path: str) -> tuple[dict[str, str], list[str], np.ndarray]:
    """The '#' header values, the column names and the sample table."""
    header: dict[str, str] = {}
    with open(path) as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
            line = fh.readline()
        columns = line.strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, columns, table


def check_law_csv(path: str, man, expect_header: dict[str, str]) -> list[str]:
    """The law CSV holds the '#' values and reads back to `man` exactly."""
    header, columns, table = read_law_csv(path)
    problems = [f"header {k}: {header.get(k)!r} != {v!r}"
                for k, v in expect_header.items() if header.get(k) != v]
    if columns != LAW_COLUMNS:
        return problems + [f"columns {columns} != {LAW_COLUMNS}"]
    if table.shape[0] != man.n_samples:
        return problems + [f"{table.shape[0]} rows for {man.n_samples} samples"]
    lengths = [len(b.tau) for b in man.branches]
    expect = {
        "psi": np.repeat(man.psi, lengths), "tau": man.flat_tau,
        "x1": man.flat_x[:, 0], "x2": man.flat_x[:, 1],
        "nu1": man.flat_nu[:, 0], "nu2": man.flat_nu[:, 1],
        "u": man.flat_u[:, 0], "W": man.flat_w, "S": man.flat_s,
    }
    for name, want in expect.items():
        got = table[:, LAW_COLUMNS.index(name)]
        bad = np.nonzero(got != want)[0]
        if bad.size:
            problems.append(f"column {name} differs from the samples in "
                            f"{bad.size} rows (first row {int(bad[0])})")
    flags = table[:, -1]
    switches = sum(e.kind == "switch" for b in man.branches for e in b.events)
    if not np.isin(flags, (0, 1, 2, 3)).all():
        problems.append("event_flag outside {0, 1, 2, 3}")
    if int(np.sum(flags == 1)) != switches:
        problems.append(f"{int(np.sum(flags == 1))} switch flags for "
                        f"{switches} switch events")
    return problems


def file_digest(path: str) -> str:
    """SHA-256 of a file, so that ops' outputs compare byte for byte."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------- manifold identities

def check_branches(man, seeds: int) -> list[str]:
    kept = len(man.branches)
    return [] if kept == seeds else [f"{seeds - kept} of {seeds} branches dropped"]


def check_hamiltonian_constant(man) -> list[str]:
    """S is conserved along every branch, across switches too."""
    problems = []
    for i, b in enumerate(man.branches):
        dev = float(np.max(np.abs(b.s - b.s[0])))
        if not dev <= S_TOL:
            problems.append(f"branch {i}: |S - S(0)| = {dev:.3e}")
    return _first(problems)


def check_generating_value(man) -> list[str]:
    """dW/dtau = <nu, xdot> = -S, so W = eps - tau S on every branch."""
    problems = []
    for i, b in enumerate(man.branches):
        dev = float(np.max(np.abs(b.w - (man.epsilon - b.tau * b.s[0]))))
        if not dev <= W_TOL:
            problems.append(f"branch {i}: |W - (eps - tau S)| = {dev:.3e}")
    return _first(problems)


def pendulum_forward(x, nu, tau: float, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward extremal of x1' = x2, x2' = -sin x1 + u, |u| <= k, for `tau`.

    H = nu1 x2 + nu2 (-sin x1 + u) is minimized by u = -k sign(nu2), so
    x' = dH/dnu = (x2, -sin x1 + u) and nu' = -dH/dx = (nu2 cos x1, -nu1).
    The control flips whenever nu2 crosses zero.
    """
    y = np.array([x[0], x[1], nu[0], nu[1]], dtype=float)
    t = 0.0
    side = 1.0 if y[3] > 0.0 else -1.0
    while True:
        u = -k * side

        def rhs(_t, z, u=u):
            return [z[1], -math.sin(z[0]) + u, z[3] * math.cos(z[0]), -z[2]]

        def crossing(_t, z):
            return z[3]
        crossing.terminal = True
        crossing.direction = -side
        sol = solve_ivp(rhs, (t, tau), y, method="DOP853", rtol=1e-12,
                        atol=1e-14, events=[crossing])
        if not sol.success:
            raise RuntimeError(f"forward flow failed: {sol.message}")
        y = sol.y[:, -1]
        if not sol.t_events[0].size:
            return y[:2], y[2:]
        t = float(sol.t_events[0][0])
        y = sol.y_events[0][0]
        side = -side


def check_forward_return(xs, nus, taus, epsilon: float, k: float) -> list[str]:
    """Samples flowed forward for their tau land on V = eps with nu = grad V.

    V = (x1^2 + x2^2)/2, so grad V = x.  The costate equation is linear in
    nu and the program integrates to a relative tolerance, so the error a
    sample carries grows with |nu| there: on the pendulum |nu| reaches
    about 96 near tau_max against 0.8 on the level set.  The tolerance is
    RETURN_TOL per unit of |nu| at the sample, and RETURN_TOL where
    |nu| <= 1, as on the double integrator of c11.
    """
    problems = []
    for x, nu, tau in zip(xs, nus, taus):
        xe, nue = pendulum_forward(x, nu, float(tau), k)
        dv = abs(0.5 * float(xe @ xe) - epsilon)
        dnu = float(np.linalg.norm(nue - xe))
        tol = RETURN_TOL * max(1.0, float(np.linalg.norm(nu)))
        if not (dv <= tol and dnu <= tol):
            problems.append(f"sample at tau={float(tau):.4f}: |V - eps| = "
                            f"{dv:.3e}, |nu - grad V| = {dnu:.3e}")
    return _first(problems)


# ------------------------------------------------------ double integrator

def di_first_switch(psi: float, r: float, k: float) -> tuple[float, float, float]:
    """(tau, x1, x2) of the first switch on the double-integrator branch.

    The seed is x0 = r (cos psi, sin psi), nu0 = grad V = x0.  On the
    reversed flow nu1 stays r cos psi and nu2 = r (sin psi + tau cos psi)
    vanishes at tau = -tan psi; until then x2' = k sign(sin psi) and
    x1' = -x2.
    """
    c, s = math.cos(psi), math.sin(psi)
    tau = -s / c
    sgn = math.copysign(1.0, s)
    return (tau, r * c - r * s * tau - 0.5 * k * sgn * tau * tau,
            r * s + k * sgn * tau)


def check_switch_events(man, k: float) -> list[str]:
    """First switch of every branch against the closed form, and no switch
    missing on a branch whose closed-form switch lies inside tau_max."""
    r = math.sqrt(2.0 * man.epsilon)
    problems = []
    for i, b in enumerate(man.branches):
        psi = float(man.psi[i])
        c, s = math.cos(psi), math.sin(psi)
        switch = next((e for e in b.events if e.kind == "switch"), None)
        if abs(s) < 1e-12 or abs(c) < 1e-12:
            due = False   # seed on the switching surface, or nu1 = 0
        else:
            due = 0.0 < -s / c < man.tau_max
        if switch is None:
            if due:
                problems.append(f"branch {i} (psi={psi:.6f}): switch missing")
            continue
        if not due:
            problems.append(f"branch {i} (psi={psi:.6f}): unexpected switch "
                            f"at tau={switch.tau:.6f}")
            continue
        tau, x1, x2 = di_first_switch(psi, r, k)
        dev = max(abs(switch.tau - tau), math.dist(switch.x, (x1, x2)))
        if not dev <= SWITCH_TOL:
            problems.append(f"branch {i} (psi={psi:.6f}): switch {dev:.3e} "
                            f"from the closed form")
    return _first(problems)


def check_tiling(blocks, lower, upper, res: int) -> list[str]:
    """The blocks' starts are exactly the configured grid, once each."""
    axes = [np.linspace(lower[i], upper[i], res) for i in range(2)]
    want = sorted((float(a), float(b)) for a in axes[0] for b in axes[1])
    got = sorted((float(a), float(b))
                 for lo, hi, n in blocks
                 for a in np.linspace(lo[0], hi[0], n)
                 for b in np.linspace(lo[1], hi[1], n))
    return [] if got == want else ["blocks do not tile the configured grid"]


def check_verdicts(verdicts, t_max: float, C: float, radius: float) -> list[str]:
    problems = []
    for v in verdicts:
        if not (v.converged and v.t_converged is not None
                and v.t_converged <= t_max and v.final_norm <= radius):
            problems.append(f"start did not converge (final |x| = "
                            f"{v.final_norm:.3e})")
        elif not v.max_abs_u <= C + U_TOL:
            problems.append(f"|u| = {v.max_abs_u!r} > C = {C!r}")
        elif not v.v_inner_increase_max <= V_STEP_TOL:
            problems.append(f"V increased by {v.v_inner_increase_max:.3e} "
                            f"inside the handover set")
    return _first(problems)


def check_trajectory(traj, t_max: float, C: float, epsilon: float,
                     radius: float) -> list[str]:
    """Convergence, |u| <= C and V non-increasing inside {V <= eps},
    with V = (x1^2 + x2^2)/2 evaluated here."""
    problems = []
    final = float(np.linalg.norm(traj.x[-1]))
    if not (traj.converged and traj.t_converged is not None
            and traj.t_converged <= t_max and final <= radius):
        problems.append(f"no convergence within t_max (final |x| = {final:.3e})")
    u_max = float(np.max(np.abs(traj.u)))
    if not u_max <= C + U_TOL:
        problems.append(f"|u| = {u_max!r} > C = {C!r}")
    v = 0.5 * np.sum(traj.x * traj.x, axis=1)
    inside = v <= epsilon
    both = inside[:-1] & inside[1:]
    if both.any():
        step = float(np.max(np.diff(v)[both]))
        if not step <= V_STEP_TOL:
            problems.append(f"V increased by {step:.3e} inside the handover set")
    return problems


# --------------------------------------------------------------- observer

def decay_margins(delta: float, beta1: float, beta2: float,
                  L: float) -> tuple[float, float]:
    """Coefficients of -e1^2 and -e2^2 in the bound on dV(e)/dt:
    2 beta2 - L/delta^2 and 2 - delta^2 L - (2/beta1 + beta1/beta2) L."""
    c = 2.0 / beta1 + beta1 / beta2
    return 2.0 * beta2 - L / delta ** 2, 2.0 - delta ** 2 * L - c * L


def check_gains(gains, L: float, margin: float) -> list[str]:
    v1, v2 = decay_margins(gains.delta, gains.beta1, gains.beta2, L)
    if v1 >= margin and v2 >= margin:
        return []
    return [f"decay margins {v1:.4g}, {v2:.4g} below {margin:g}"]


def error_lyapunov(gains, e: np.ndarray) -> np.ndarray:
    """V(e) = 2 (beta2/beta1) e1^2 - 2 e1 e2 + (2/beta1 + beta1/beta2) e2^2."""
    b1, b2 = gains.beta1, gains.beta2
    e1, e2 = e[:, 0], e[:, 1]
    return 2.0 * b2 / b1 * e1 * e1 - 2.0 * e1 * e2 + (2.0 / b1 + b1 / b2) * e2 * e2


def check_observer_run(result, gains, t_max: float, radius: float) -> list[str]:
    """Convergence and V(e) never increasing.  The first recorded step is
    left out, as in c09: the loop starts at the seed sample."""
    problems = []
    final = float(np.linalg.norm(result.x[-1]))
    if not (result.converged and result.t_converged is not None
            and result.t_converged <= t_max and final <= radius):
        problems.append(f"no convergence within t_max (final |x| = {final:.3e})")
    ve = error_lyapunov(gains, result.e)
    if len(ve) > 2:
        step = float(np.max(np.diff(ve[1:])))
        if not step <= VE_STEP_TOL:
            problems.append(f"V(e) increased by {step:.3e}")
    return problems


def check_mismatch(result) -> list[str]:
    """|sigma du| <= 2 M |e2| on the samples the program records; the right
    side is recomputed here from the logged error."""
    problems = []
    if not result.M > 0.0:
        problems.append(f"mismatch constant M = {result.M!r}")
    idx = np.minimum(np.searchsorted(result.t, result.mismatch_t),
                     len(result.t) - 1)
    rhs = 2.0 * result.M * np.abs(result.e[idx, 1])
    if not (np.array_equal(result.t[idx], result.mismatch_t)
            and np.allclose(rhs, result.mismatch_rhs, rtol=1e-12, atol=0.0)):
        problems.append("recorded bound differs from 2 M |e2|")
    excess = result.mismatch_lhs - rhs
    bad = int(np.sum(excess > MISMATCH_TOL))
    if bad:
        problems.append(f"mismatch bound fails on {bad} samples "
                        f"(worst excess {float(np.max(excess)):.3g})")
    return problems


def check_error_log(path: str, result) -> list[str]:
    """The error log reads back to the result exactly, one row per sample."""
    with open(path) as fh:
        columns = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if columns != ["t", "e1", "e2", "V_e", "W"]:
        return [f"error log columns {columns}"]
    if table.shape[0] != len(result.t):
        return [f"error log has {table.shape[0]} rows for {len(result.t)} samples"]
    want = np.column_stack([result.t, result.e, result.v_e, result.w])
    same = (table == want) | (np.isnan(table) & np.isnan(want))
    if not same.all():
        row = int(np.nonzero(~same.all(axis=1))[0][0])
        return [f"error log differs from the result in row {row}"]
    return []
