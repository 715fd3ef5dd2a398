"""Parent-against-change pairs of perfbench runs.

    python3 tools/pairs.py PARENT_REF --workload NAME --seeds 1-10 [--seconds 5]

Exports PARENT_REF with `git archive` to a temporary directory and runs
`perfbench/run.py --trace 0` once per seed on each side, alternating which
side runs first.  The change is the current checkout.  Prints, for every
end-to-end metric of BENCHMARK.json, each side's median and quartiles, the
median of the change/parent ratios of the pairs, the number of pairs in
which the change is better (ties count for neither side) and a verdict,
the first of these that holds:

    gain             the change is better in at least nine tenths of the
                     pairs, and its median is better than the parent's by
                     more than the parent's interquartile distance
    worse than bound the change's median is worse than the parent's by
                     more than the metric's `bound` (a fraction of the
                     parent's median) in BENCHMARK.json
    unresolved       the parent's spread (Q3 - Q1) / median exceeds the
                     bound, and not every change run beats every parent run
    within bound     none of these

After the metric lines it prints each side's failed and attempted ops,
summed over its runs, and its number of runs that report `correct: false`.
A gain does not count when the change failed a larger share of its ops
than the parent, or when any change run was incorrect: its verdict then
reads `not counted` in place of `gain`.

Uses the standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(root: str, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{root}: seed {seed}: exit {out.returncode}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    res["metrics"] = {k: v["value"] for k, v in res["metrics"].items()}
    return res


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3)."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 \
        else tuple(values * 3)


def show(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(par: list[float], chg: list[float], sign: int,
            bound: float) -> tuple[str, int]:
    """The verdict (see the module docstring) and the change's win count;
    sign is 1 where lower is better and -1 where higher is."""
    wins = sum(sign * (c - q) < 0 for q, c in zip(par, chg))
    q1, med, q3 = quartiles(par)
    better_by = sign * (med - quartiles(chg)[1])
    if wins >= 0.9 * len(par) and better_by > q3 - q1:
        return "gain", wins
    if -better_by > bound * abs(med):
        return "worse than bound", wins
    beats_all = all(sign * (c - q) < 0 for c in chg for q in par)
    if q3 - q1 > bound * abs(med) and not beats_all:
        return "unresolved", wins
    return "within bound", wins


def counted(text: str, parent: tuple[int, int, int],
            change: tuple[int, int, int]) -> str:
    """The verdict `text`, or "not counted" for a gain of a change that
    failed a larger share of its ops than the parent or had an incorrect
    run; each side is (failed, attempted, incorrect runs)."""
    (pf, pa, _), (cf, ca, cbad) = parent, change
    if text == "gain" and (cf * pa > pf * ca or cbad):
        return "not counted"
    return text


def ops(runs: list[dict]) -> tuple[int, int, int]:
    """(failed, attempted, incorrect runs) summed over runs."""
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs),
            sum(not r["correct"] for r in runs))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, required=True)
    p.add_argument("--seconds", type=float, default=5.0)
    args = p.parse_args()
    change = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                            capture_output=True, text=True,
                            check=True).stdout.strip()
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    archive = subprocess.run(["git", "archive", args.parent], cwd=change,
                             check=True, capture_output=True).stdout
    results = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as parent:
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
        sides = {"parent": parent, "change": change}
        for k, seed in enumerate(args.seeds):
            for side in (("parent", "change") if k % 2 == 0
                         else ("change", "parent")):
                res = run(sides[side], args.workload, seed, args.seconds)
                results[side].append(res)
                values = " ".join(f"{name}={v:.4g}"
                                  for name, v in res["metrics"].items())
                print(f"seed {seed} {side}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {values}",
                      flush=True)
    totals = {side: ops(runs) for side, runs in results.items()}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        par = [r["metrics"][name] for r in results["parent"]]
        chg = [r["metrics"][name] for r in results["change"]]
        text, wins = verdict(par, chg, sign, m["bound"])
        text = counted(text, totals["parent"], totals["change"])
        ratio = statistics.median(c / q for q, c in zip(par, chg))
        print(f"{name}: parent {show(par)}  change {show(chg)}  "
              f"pair ratio {ratio:.3f}  change better in {wins} of "
              f"{len(par)}: {text}")
    for side, (failed, attempted, bad) in totals.items():
        print(f"{side}: failed {failed}/{attempted} ops, {bad} of "
              f"{len(results[side])} runs correct: false")
    return 0


if __name__ == "__main__":
    sys.exit(main())
