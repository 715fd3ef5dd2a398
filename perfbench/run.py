"""Benchmark of pmpstab: synthesis, grid verification and observer runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pmpstab checkout; the package is imported from its
`src/` directory.  `--trace 0` times the workload and prints the
end-to-end metrics; `--trace 1` runs it again with spans and counters
around the calls into each module and prints the per-layer metrics.
Either way the last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads, metrics and checks.
"""

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synth-pendulum", "grid-di", "observer-pendulum")
RUN_LIMIT_S = 170
TAIL_MIN_OPS = 40


class RunTimeout(Exception):
    pass


def _timeout(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


def op_tail(op_s: list[float]) -> float:
    """The highest percentile with at least ten ops beyond it; with fewer
    than TAIL_MIN_OPS ops that is no tail, and the slowest op stands in."""
    ordered = sorted(op_s)
    if len(ordered) < TAIL_MIN_OPS:
        return ordered[-1]
    return ordered[len(ordered) - 11]


def end_to_end(run) -> dict[str, float]:
    return {"setup_s": statistics.median(run.setup_s),
            "op_s.p50": statistics.median(run.op_s),
            "op_s.tail": op_tail(run.op_s),
            "ops_per_s": len(run.op_s) / sum(run.op_s),
            "peak_rss_mb": run.rss_mb}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pmpstab", "__init__.py")):
        print(f"error: no pmpstab sources in {src}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import pmpstab.cli  # noqa: F401  (numpy and scipy come with it)
    import_s = time.perf_counter() - t0
    if not os.path.abspath(pmpstab.__file__).startswith(src + os.sep):
        print(f"error: pmpstab imported from {pmpstab.__file__}", file=sys.stderr)
        return 2

    import workloads
    from tracing import Tracer

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    tracer = Tracer(enabled=bool(args.trace))
    tmp = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    try:
        run = workloads.Run(ROOT, args.seed, args.seconds, tracer, tmp)
        if args.workload == "synth-pendulum":
            law = workloads.synth_pendulum(run, import_s)
        elif args.workload == "grid-di":
            law = workloads.grid_di(run)
        else:
            law = workloads.observer_pendulum(run)
        e2e = end_to_end(run)
        if args.trace:
            metrics = workloads.layer_metrics(run, law)
            print("traced end-to-end: " + json.dumps(e2e))
            for line in tracer.summary():
                print(line)
        else:
            metrics = e2e
    except (RunTimeout, workloads.BenchError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    n = len(run.op_s)
    print(f"{args.workload}: ops={n} failed={run.failed} "
          f"tail=p{100.0 * (n - 10) / n if n >= TAIL_MIN_OPS else 100.0:.0f}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": n,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
