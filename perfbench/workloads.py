"""The three workloads.

Each runs closed-loop, one operation at a time, in this one process:

- synth-pendulum: `pmpstab synthesize` on configs/pendulum.json through
  `cli.main`; a round is two ops, whose law CSVs must be byte-identical.
- grid-di: `simulate_grid` on the 49 3x3 blocks that tile the 21x21 grid
  of configs/double_integrator.json; a round is all 49 blocks.
- observer-pendulum: `simulate_output_feedback` plus `export_error_log`
  from one (x0, z0) pair; a round is the config's pair, one pair that
  breaks the mismatch bound, and OBSERVER_DRAWS seeded pool pairs.

A run repeats whole rounds until `seconds` have been measured, so the
share of failed ops is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import time

import numpy as np

import pmpstab
from pmpstab import cli, observer as pm_observer, simulate as pm_simulate

import checks
from tracing import LawProbe, Tracer, patched

GRID_SETUPS = 2
OBSERVER_SETUPS = 1
RETURN_SAMPLES = 64      # synth-pendulum samples flowed forward per run
RESIM_STARTS = 4         # grid-di starts re-simulated apart from the grid
MICRO_POINTS = 500       # inner and as many outer points per micro timing

# Observer starts: x0 uniform in [-2.5, 2.5]^2, z0 = x0 + uniform [-1, 1]^2,
# both rounded to 3 decimals, drawn from a generator with a fixed seed.
# Run perfbench/screen_pool.py to redo the screen after a program change.
POOL_SEED = 20261017
POOL_SIZE = 400
# pool pairs on which simulate_output_feedback does not return (chatter on
# the handover boundary)
POOL_HANGS = (2, 32, 51, 67, 78, 104, 150, 184, 212, 232, 251, 270, 289, 309,
              331, 334, 353)
# pool pairs that break |sigma du| <= 2 M |e2|
POOL_MISMATCH = (21, 28, 30, 46, 49, 55, 64, 107, 113, 119, 137, 141, 161,
                 175, 176, 181, 217, 269, 283, 288, 321, 322, 326, 374, 387)
OBSERVER_DRAWS = 150
# kept in every round and counted as failed while the mismatch bound fails
MISMATCH_PAIR = ((2.478, 1.463), (2.722, 2.441))


class BenchError(RuntimeError):
    """The benchmark cannot run: missing sources or an unexpected config."""


class Run:
    """What one run measured and found."""

    def __init__(self, root: str, seed: int, seconds: float, tracer: Tracer,
                 tmp: str):
        self.root = root
        self.seconds = seconds
        self.tracer = tracer
        self.tmp = tmp
        self.rng = np.random.default_rng(seed)
        self.setup_s: list[float] = []
        self.op_s: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.seeds = 0          # manifold seeds the config asks for
        self.export_mb = 0.0    # size of the law CSV synth-pendulum writes
        self.rss_mb = 0.0

    def config(self, name: str) -> str:
        return os.path.join(self.root, "configs", name)

    def problem(self, where: str, problems: list[str]) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)

    def rounds(self, items, op, check) -> None:
        """Run whole rounds of `op(item)` until `seconds` are measured.

        `check(item, out)` returns (problems, known): problems found on the
        op's output, and those among them that a known program fault
        causes.  An op with any problem counts as failed; one with a
        problem outside `known` also makes the run incorrect.
        """
        start = time.perf_counter()
        while True:
            for item in items:
                with self.tracer.span("op"):
                    t0 = time.perf_counter()
                    try:
                        out, error = op(item), None
                    except Exception as exc:  # counted as a failed op
                        out, error = None, f"{type(exc).__name__}: {exc}"
                    dt = time.perf_counter() - t0
                self.op_s.append(dt)
                if error is not None:
                    problems, known = [error], []
                else:
                    problems, known = check(item, out)
                if problems:
                    self.failed += 1
                    unexpected = [p for p in problems if p not in known]
                    self.problem(f"op {len(self.op_s) - 1}", unexpected)
            if time.perf_counter() - start >= self.seconds:
                break
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ set-up

def expect_config(cfg: dict, drift: list[str], V: str) -> None:
    """The hand-written checks assume these dynamics and this V."""
    system = cfg["system"]
    got = (system.get("drift"), system.get("columns"), cfg["lyapunov"]["V"],
           cfg["control"]["lower"], cfg["control"]["upper"])
    want = (drift, [["0", "1"]], V, [-cfg["control"]["k"]],
            [cfg["control"]["k"]])
    if got != want:
        raise BenchError(f"config differs from what the checks assume: {got}")


def build_law(path: str, tracer: Tracer):
    """load_config, ControlSystem/LyapunovSpec, build_manifold and
    assemble_feedback, as the CLI chains them."""
    with tracer.span("cli.load_config"):
        cfg = cli.load_config(path)
    system, control = cfg["system"], cfg["control"]
    with tracer.span("systems.compile"):
        sys_ = pmpstab.ControlSystem(
            n=system["n"], name=system["name"], drift=system["drift"],
            columns=system["columns"],
            omega=pmpstab.ControlSet.box(control["lower"], control["upper"]))
        lyap = pmpstab.LyapunovSpec(cfg["lyapunov"]["V"], system["n"],
                                    epsilon=cfg["lyapunov"]["epsilon"])
    block = cfg["manifold"]
    with tracer.span("manifold.build"):
        man = pmpstab.build_manifold(sys_, lyap, block["N"], block["tau_max"],
                                     budget=block["budget"],
                                     query_radius=block["query_radius"])
    with tracer.span("synthesis.assemble"):
        law = pmpstab.assemble_feedback(sys_, lyap, man, cfg["inner"]["w"],
                                        k=control["k"], C=control["C"])
    return cfg, sys_, law


def sim_options(cfg: dict) -> dict:
    sim = cfg["simulation"]
    return {key: sim[key] for key in ("record_dt", "convergence_radius",
                                      "dwell", "rel_tol", "abs_tol", "blowup")}


def count_events(tracer: Tracer):
    """`after` hook counting a trajectory's events by kind."""
    def after(traj):
        for evt in traj.events:
            tracer.count(evt.kind)
    return after


@contextlib.contextmanager
def recording(module, attr):
    """Keep the arguments of the latest call to module.attr."""
    calls: list[tuple] = []
    original = getattr(module, attr)

    def record(*args, **kwargs):
        calls[:] = [args]
        return original(*args, **kwargs)

    setattr(module, attr, record)
    try:
        yield calls
    finally:
        setattr(module, attr, original)


# ---------------------------------------------------------- synth-pendulum

def synth_pendulum(run: Run, import_s: float) -> object:
    """Set-up is the package import, measured once before this is called."""
    run.setup_s.append(import_s)
    path = run.config("pendulum.json")
    cfg = cli.load_config(path)
    expect_config(cfg, ["x2", "-sin(x1)"], "(x1^2 + x2^2)/2")
    header = {"inner1": cfg["inner"]["w"][0],
              "epsilon": repr(float(cfg["lyapunov"]["epsilon"])),
              "k": repr(float(cfg["control"]["k"])),
              "C": repr(float(cfg["control"]["C"]))}
    seeds = run.seeds = cfg["manifold"]["N"]
    first_digest: list[str] = []
    last_law = []

    def op(index):
        out = os.path.join(run.tmp, "law.csv")
        text = io.StringIO()
        with contextlib.redirect_stdout(text), run.tracer.span("cli.main"):
            code = cli.main(["synthesize", "--config", path, "--out", out])
        return code, text.getvalue(), out

    def check(index, result):
        code, text, out = result
        law = calls[0][0] if calls else None
        calls.clear()
        if code != 0 or law is None:
            return [f"synthesize exited {code}"], []
        problems = ([] if f"\nmanifold: branches={seeds} " in text
                    else ["no 'manifold: branches=N' line for every seed"])
        digest = checks.file_digest(out)
        if first_digest:
            # the same bytes as the first op's file, which was read back
            if digest != first_digest[0]:
                problems.append("law CSV differs from the first op's")
        else:
            first_digest.append(digest)
            run.export_mb = os.path.getsize(out) / 1e6
            problems += checks.check_law_csv(out, law.manifold, header)
            problems += manifold_checks(run, law, seeds, cfg["control"]["k"])
        os.remove(out)
        if run.tracer.enabled:
            last_law[:] = [law]
        return problems, []

    targets = [(cli, "load_config", "cli.load_config", None),
               (cli, "ControlSystem", "systems.compile", None),
               (cli, "LyapunovSpec", "systems.compile", None),
               (cli, "build_manifold", "manifold.build", None),
               (cli, "assemble_feedback", "synthesis.assemble", None),
               (cli, "export_law_csv", "synthesis.export", None)]
    with recording(cli, "export_law_csv") as calls, patched(run.tracer, targets):
        run.rounds([0, 1], op, check)
    return last_law[0] if last_law else None


def manifold_checks(run: Run, law, seeds: int, k: float) -> list[str]:
    man = law.manifold
    problems = (checks.check_branches(man, seeds)
                + checks.check_hamiltonian_constant(man)
                + checks.check_generating_value(man))
    usable = np.nonzero((man.flat_tau >= 0.01)
                        & (np.abs(man.flat_nu[:, 1]) > 1e-6))[0]
    pick = run.rng.choice(usable, size=RETURN_SAMPLES, replace=False)
    return problems + checks.check_forward_return(
        man.flat_x[pick], man.flat_nu[pick], man.flat_tau[pick],
        man.epsilon, k)


# ----------------------------------------------------------------- grid-di

def grid_blocks() -> list[tuple[tuple[float, float], tuple[float, float], int]]:
    """7 x 7 blocks of 3 x 3 starts tiling the configured [-5, 5]^2 grid."""
    out = []
    for i in range(7):
        for j in range(7):
            lo = (-5.0 + 1.5 * i, -5.0 + 1.5 * j)
            out.append((lo, (lo[0] + 1.0, lo[1] + 1.0), 3))
    return out


def grid_di(run: Run) -> object:
    path = run.config("double_integrator.json")
    for _ in range(GRID_SETUPS):
        t0 = time.perf_counter()
        cfg, sys_, law = build_law(path, run.tracer)
        run.setup_s.append(time.perf_counter() - t0)
    expect_config(cfg, ["x2", "0"], "(x1^2 + x2^2)/2")
    run.seeds = cfg["manifold"]["N"]
    control, sim = cfg["control"], cfg["simulation"]
    blocks = grid_blocks()
    grid = sim["grid"]
    run.problem("set-up", checks.check_branches(law.manifold, run.seeds)
                + checks.check_switch_events(law.manifold, control["k"])
                + checks.check_tiling(blocks, grid["lower"], grid["upper"],
                                      grid["res"]))
    order = [blocks[i] for i in run.rng.permutation(len(blocks))]
    opts = sim_options(cfg)
    t_max, C = sim["t_max"], control["C"]
    radius = sim["convergence_radius"]
    target = LawProbe(law, run.tracer) if run.tracer.enabled else law

    def op(block):
        lo, hi, n = block
        return pmpstab.simulate_grid(target, lo, hi, n, t_max, **opts)

    def check(block, report):
        return checks.check_verdicts(report.verdicts, t_max, C, radius), []

    targets = [(pm_simulate, "simulate_closed_loop", "simulate.start",
                count_events(run.tracer)),
               (pm_simulate, "stabilization_verdict", "simulate.verdict", None)]
    with patched(run.tracer, targets):
        run.rounds(order, op, check)

    # re-simulate a few starts and judge them apart from the program's verdict
    axes = [np.linspace(grid["lower"][i], grid["upper"][i], grid["res"])
            for i in range(2)]
    for _ in range(RESIM_STARTS):
        x0 = tuple(float(run.rng.choice(a)) for a in axes)
        traj = pmpstab.simulate_closed_loop(law, x0, t_max, **opts)
        run.problem(f"start {x0}", checks.check_trajectory(
            traj, t_max, C, law.epsilon, radius))
    return law


# ------------------------------------------------------- observer-pendulum

def observer_pool() -> list[tuple[tuple[float, float], tuple[float, float]]]:
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        x0 = rng.uniform(-2.5, 2.5, 2)
        z0 = x0 + rng.uniform(-1.0, 1.0, 2)
        pool.append((tuple(round(float(v), 3) for v in x0),
                     tuple(round(float(v), 3) for v in z0)))
    return pool


def observer_starts(rng: np.random.Generator, cfg: dict):
    """The config's pair, the mismatch pair, then seeded clean pool pairs."""
    pool = observer_pool()
    screened = set(POOL_HANGS) | set(POOL_MISMATCH)
    clean = [i for i in range(POOL_SIZE) if i not in screened]
    picks = rng.choice(clean, size=OBSERVER_DRAWS, replace=False)
    obs = cfg["observer"]
    return ([(tuple(obs["x0"]), tuple(obs["z0"])), MISMATCH_PAIR]
            + [pool[i] for i in picks])


def observer_pendulum(run: Run) -> object:
    path = run.config("pendulum.json")
    for _ in range(OBSERVER_SETUPS):
        t0 = time.perf_counter()
        cfg, sys_, law = build_law(path, run.tracer)
        obs = cfg["observer"]
        with run.tracer.span("observer.select_gains"):
            gains = pmpstab.select_gains(obs["L"], obs["margin"])
        run.setup_s.append(time.perf_counter() - t0)
    expect_config(cfg, ["x2", "-sin(x1)"], "(x1^2 + x2^2)/2")
    run.seeds = cfg["manifold"]["N"]
    run.problem("set-up", checks.check_gains(gains, obs["L"], obs["margin"])
                + checks.check_branches(law.manifold, run.seeds))
    t_max, record_dt = obs["t_max"], obs["record_dt"]
    radius = cfg["simulation"]["convergence_radius"]
    log = os.path.join(run.tmp, "errlog.csv")
    target = LawProbe(law, run.tracer) if run.tracer.enabled else law

    def op(pair):
        x0, z0 = pair
        with run.tracer.span("observer.simulate"):
            result = pmpstab.simulate_output_feedback(
                sys_, target, gains, x0, z0, t_max, record_dt=record_dt)
        with run.tracer.span("observer.error_log"):
            pmpstab.export_error_log(result, log)
        return result

    def check(pair, result):
        run.tracer.count("observer.samples", len(result.t))
        run.tracer.count("observer.boundary-cross",
                         sum(e.kind == "boundary-cross" for e in result.events))
        mismatch = checks.check_mismatch(result)
        problems = (checks.check_observer_run(result, gains, t_max, radius)
                    + mismatch + checks.check_error_log(log, result))
        return problems, (mismatch if pair == MISMATCH_PAIR else [])

    targets = [(pm_observer, "simulate_closed_loop", "simulate.start",
                count_events(run.tracer))]
    with patched(run.tracer, targets):
        run.rounds(observer_starts(run.rng, cfg), op, check)
    if os.path.exists(log):
        os.remove(log)
    return law


# --------------------------------------------------------- per-layer metrics

def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def _per_call_us(fn, points, passes: int = 3) -> float:
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        for p in points:
            fn(p)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(points) * 1e6


def micro_points(rng: np.random.Generator, epsilon: float) -> list[tuple]:
    """MICRO_POINTS inside {V <= eps} and as many outside, in [-5, 5]^2."""
    r = math.sqrt(2.0 * epsilon)
    ang = rng.uniform(0.0, 2.0 * math.pi, MICRO_POINTS)
    rad = r * np.sqrt(rng.uniform(0.0, 1.0, MICRO_POINTS))
    inner = [(float(a), float(b)) for a, b in
             zip(rad * np.cos(ang), rad * np.sin(ang))]
    outer = []
    while len(outer) < MICRO_POINTS:
        p = rng.uniform(-5.0, 5.0, 2)
        if 0.5 * float(p @ p) > epsilon:
            outer.append((float(p[0]), float(p[1])))
    return inner + outer


def layer_metrics(run: Run, law) -> dict[str, float]:
    """Per-layer metrics from the traced run's spans, counts and law."""
    tr = run.tracer
    ops = max(len(run.op_s), 1)

    def dur(name: str) -> list[float]:
        return [s.duration for s in tr.named(name)]

    builds = dur("manifold.build")
    starts = tr.named("simulate.start")
    observed = tr.named("observer.simulate")
    man = law.manifold
    t0 = time.perf_counter()
    # query_radius=None: the constructor derives it, as for both configs
    type(man)(man.system, man.lyapunov, man.epsilon, man.branches,
              man.tau_max, man.budget, None)
    index_s = time.perf_counter() - t0
    pts = micro_points(run.rng, law.epsilon)
    export_s = _median(dur("synthesis.export"))
    build_s = _median(builds)
    start_total = sum(s.duration for s in starts)
    obs_total = sum(s.duration for s in observed)
    return {
        "systems.compile_s": sum(dur("systems.compile")) / max(len(builds), 1),
        "manifold.build_s": build_s,
        "manifold.samples_per_s": man.n_samples / build_s,
        "manifold.index_s": index_s,
        "manifold.dropped_branches": run.seeds - len(man.branches),
        "manifold.query_us": _per_call_us(
            lambda p: man.query(p, bounded=False), pts),
        "synthesis.assemble_s": _median(dur("synthesis.assemble")),
        "synthesis.control_us": _per_call_us(law.control, pts),
        "synthesis.switching_value_us": _per_call_us(law.switching_value, pts),
        "synthesis.feedback_calls_per_op":
            sum(s.law_calls for s in tr.named("op")) / ops,
        "synthesis.feedback_share":
            sum(s.law_s for s in starts) / start_total if starts else 0.0,
        "synthesis.export_s": export_s,
        "synthesis.export_mb_per_s":
            run.export_mb / export_s if export_s else 0.0,
        "simulate.start_s.p50": _median([s.duration for s in starts]),
        "simulate.self_s": sum(s.duration - s.law_s for s in starts) / ops,
        "simulate.verdict_s": sum(dur("simulate.verdict")) / ops,
        "simulate.switch_events_per_op":
            tr.counts.get("control-switch", 0) / ops,
        "simulate.sliding_entries_per_op":
            tr.counts.get("sliding-enter", 0) / ops,
        "observer.samples_per_op": tr.counts.get("observer.samples", 0) / ops,
        "observer.boundary_crossings_per_op":
            tr.counts.get("observer.boundary-cross", 0) / ops,
        "observer.feedback_share":
            sum(s.law_s for s in observed) / obs_total if observed else 0.0,
        "observer.error_log_s": _median(dur("observer.error_log")),
    }
