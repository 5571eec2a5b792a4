"""Compare the end-to-end benchmark metrics of two checkouts in alternating pairs.

    python3 tools/bench_pairs.py BASE_CHECKOUT WORKLOAD PAIRS

Runs `perfbench/run.py --workload WORKLOAD --seed 1 --seconds 25 --trace 0`
PAIRS times in BASE_CHECKOUT (the parent) and PAIRS times in this checkout
(the change), each run from the root of its own tree. The side that runs
first alternates from pair to pair. Both sides run without bytecode caches:
the `__pycache__` directories under each tree's `src` and `perfbench` are
removed before every run, and none are written.

Prints each run's metrics on stderr as it ends. Then, for every end-to-end
metric in this checkout's BENCHMARK.json, prints the parent's median, the
change's median, the parent's interquartile range, the number of pairs the
change won (ties count for neither side), the change's median relative to
the parent's, and a verdict (see `verdict`). Exits 1 as soon as a run is
not `correct` or has a failed call.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "1", "--seconds", "25", "--trace", "0"]


def run_once(tree: Path, workload: str) -> dict:
    """One benchmark run in tree: its metric values by name."""
    for part in ("src", "perfbench"):
        for cache in (tree / part).rglob("__pycache__"):
            shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *RUN, "--workload", workload],
                          capture_output=True, text=True, env=env, cwd=tree)
    if proc.returncode != 0:
        sys.exit(f"error: run in {tree} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["correct"] is not True or result["failed"] > 0:
        sys.exit(f"error: run in {tree} is not clean: correct={result['correct']} "
                 f"failed={result['failed']}\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[float, str]:
    """The change's median relative to the parent's, and a verdict.

    `unresolved`: the parent's interquartile range is wider than `bound`, a
    fraction of the parent's median, and not every change run beats every
    parent run; within that spread no difference of medians, past the bound
    or not, can be told from noise. `worse`: otherwise, the change's median
    is worse than the parent's by more than the bound. `ok`: neither.
    """
    base = statistics.median(parent)
    relative = (statistics.median(change) - base) / base
    sign = 1 if better == "lower" else -1
    beats_all = all(sign * (p - c) > 0 for p in parent for c in change)
    if iqr(parent) > bound * base and not beats_all:
        return relative, "unresolved"
    if sign * relative > bound:
        return relative, "worse"
    return relative, "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the parent commit")
    parser.add_argument("workload", help="portfolio, rl-srs or relterm")
    parser.add_argument("pairs", type=int, help="number of parent/change pairs (at least 2)")
    args = parser.parse_args(argv)
    if not (args.base / "perfbench" / "run.py").is_file():
        parser.error(f"{args.base} has no perfbench/run.py")
    if args.pairs < 2:
        parser.error("at least 2 pairs are needed for quartiles")
    base = args.base.resolve()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = [("parent", base), ("change", ROOT)]
        for side, tree in order if i % 2 == 0 else order[::-1]:
            values = run_once(tree, args.workload)
            runs[side].append(values)
            shown = "  ".join(f"{m['name']} {values[m['name']]:.4g}" for m in metrics)
            print(f"pair {i + 1} {side}: {shown}", file=sys.stderr, flush=True)

    print(f"{args.workload}, {args.pairs} pairs, seed 1, 25 s runs")
    print(f"{'metric':<16}{'parent median':>15}{'change median':>15}"
          f"{'parent IQR':>12}{'change won':>12}{'change':>9}  verdict (bound)")
    for m in metrics:
        name = m["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        sign = 1 if m["better"] == "lower" else -1
        won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        relative, judged = verdict(parent, change, m["better"], m["bound"])
        print(f"{name:<16}{statistics.median(parent):>15.4g}{statistics.median(change):>15.4g}"
              f"{iqr(parent):>12.4g}{won:>9}/{args.pairs}{relative:>+9.1%}"
              f"  {judged} ({m['bound']:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
