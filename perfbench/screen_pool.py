"""Screen the observer-pendulum start pool.

    python3 perfbench/screen_pool.py

Runs simulate_output_feedback once from every pool pair of workloads.py
and prints the indices to list in POOL_HANGS and POOL_MISMATCH.  A pair
counts as hanging when its run makes more than CALL_LIMIT feedback-law
calls; the longest screened run that returns makes about 10,000.  Takes
a few minutes, most of it in the hanging pairs.
"""

import os
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pmpstab  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import LawProbe, Tracer  # noqa: E402

CALL_LIMIT = 100_000


class Hang(Exception):
    pass


class Guard(LawProbe):
    """LawProbe that gives up after CALL_LIMIT calls."""

    def _timed(self, fn, *args):
        if self._tracer.law_calls >= CALL_LIMIT:
            raise Hang
        return super()._timed(fn, *args)


def main() -> None:
    cfg, sys_, law = workloads.build_law(
        os.path.join(ROOT, "configs", "pendulum.json"), Tracer(False))
    obs = cfg["observer"]
    gains = pmpstab.select_gains(obs["L"], obs["margin"])
    hangs, mismatch = [], []
    for i, (x0, z0) in enumerate(workloads.observer_pool()):
        tracer = Tracer(False)
        try:
            result = pmpstab.simulate_output_feedback(
                sys_, Guard(law, tracer), gains, x0, z0, obs["t_max"],
                record_dt=obs["record_dt"])
        except Hang:
            hangs.append(i)
            print(f"{i}: x0={x0} z0={z0} hangs", flush=True)
            continue
        problems = checks.check_mismatch(result)
        if problems:
            mismatch.append(i)
        other = checks.check_observer_run(result, gains, obs["t_max"],
                                          cfg["simulation"]["convergence_radius"])
        print(f"{i}: x0={x0} z0={z0} calls={tracer.law_calls} "
              f"{'; '.join(problems + other) or 'ok'}", flush=True)
    print(f"POOL_HANGS = {tuple(hangs)}")
    print(f"POOL_MISMATCH = {tuple(mismatch)}")


if __name__ == "__main__":
    main()
