"""Compare the per-problem prover times of two checkouts, in alternating fresh processes.

    python3 tools/inprocess_ab.py BASE_CHECKOUT WORKLOAD ROUNDS

Writes the seed-1 corpus of WORKLOAD (`portfolio`, `rl-srs` or `relterm`)
with `perfbench/corpus.py` of this checkout. Each round runs BASE_CHECKOUT
(the parent) and this checkout (the change), and the side that runs first
alternates from round to round. Every process runs from its tree's `src`
with the argv the benchmark gives each problem, under PYTHONHASHSEED=0 and
without bytecode caches: the `__pycache__` directories under each tree's
`src` are removed before the first round, and none are written.

- `rl-srs` and `relterm`: each side starts one fresh process that imports
  `ddrt.cli` and makes 3 passes over the corpus, timing every
  `ddrt.cli.run` call.
- `portfolio`: each side makes one pass, as the benchmark runs this
  workload: every problem is one fresh `python -m ddrt.cli` process, timed
  from its start to its exit.

Each problem keeps its least time over all passes and rounds of its tree.

Each round also times the benchmark's set-up once per tree, in the round's
order: `perfbench/corpus.py --workload WORKLOAD --seed 1` of this checkout,
run in a fresh process with the tree's `src`, reports its `setup_s`. With
no bytecode caches, that includes compiling the `ddrt` modules it imports.

Prints, per tree, the p50, the p90 and the sum of those per-problem minima,
the least and the median `setup_s` over the rounds, and the change's
figures relative to the parent's. A per-problem minimum drops most of the
noise a shared host adds, so this reads a difference of a few per cent
where whole benchmark runs spread too widely to tell.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import shutil
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus import build  # noqa: E402
from worker import cli_argv  # noqa: E402

WORKLOADS = ("portfolio", "rl-srs", "relterm")
PASSES = 3  # in one process per round; `portfolio` makes one pass per round

# reads {"passes": n, "jobs": [argv, ...]} on stdin, writes one list of
# seconds per pass; a call that raises or exits nonzero stops the process
RUNNER = """
import contextlib, io, json, sys, time
import ddrt.cli
spec = json.load(sys.stdin)
passes = []
for _ in range(spec["passes"]):
    seconds = []
    for argv in spec["jobs"]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = ddrt.cli.run(argv)
        seconds.append(time.perf_counter() - t0)
        if code != 0:
            sys.exit(f"exit code {code} for {argv}")
    passes.append(seconds)
json.dump(passes, sys.stdout)
"""


def child_env(tree: Path) -> dict[str, str]:
    """The environment of a process in tree: its `src`, hash seed 0, no
    bytecode written and the default Config (no external prover)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("DDRT_EXTERNAL_PROVER", None)
    return env


def clear_bytecode(tree: Path) -> None:
    """Remove the `__pycache__` directories under tree's `src`."""
    for cache in list((tree / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def run_tree(tree: Path, jobs: list[list[str]], passes: int) -> list[list[float]]:
    """The seconds of every call of each pass, in one fresh process in tree."""
    proc = subprocess.run([sys.executable, "-c", RUNNER],
                          input=json.dumps({"passes": passes, "jobs": jobs}),
                          capture_output=True, text=True, env=child_env(tree), cwd=tree)
    if proc.returncode != 0:
        sys.exit(f"error: run in {tree} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_fresh(tree: Path, jobs: list[list[str]]) -> list[list[float]]:
    """One pass: the seconds of each job as `python -m ddrt.cli` in its own
    fresh process in tree, from its start to its exit."""
    env, seconds = child_env(tree), []
    for argv in jobs:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ddrt.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=tree)
        seconds.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: {argv} in {tree} exited {proc.returncode}\n{proc.stderr}")
    return [seconds]


def run_setup(tree: Path, workload: str) -> float:
    """The `setup_s` of one `perfbench/corpus.py` run, in a fresh process
    that imports `ddrt` from tree."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "corpus.py"),
                               "--workload", workload, "--seed", "1", "--out", out],
                              capture_output=True, text=True, env=child_env(tree), cwd=tree)
    if proc.returncode != 0:
        sys.exit(f"error: set-up in {tree} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def sides(round_index: int) -> list[str]:
    """The order of the two trees in a round: the parent first in even rounds."""
    return ["parent", "change"] if round_index % 2 == 0 else ["change", "parent"]


def minima(passes: list[list[float]]) -> list[float]:
    """Each problem's least time over the passes."""
    return [min(times) for times in zip(*passes, strict=True)]


def summary(seconds: list[float]) -> dict[str, float]:
    """p50, p90 and sum, with the p90 of `perfbench/run.py`."""
    return {"p50": statistics.median(seconds),
            "p90": statistics.quantiles(seconds, n=10)[8],
            "sum": sum(seconds)}


def setup_summary(seconds: list[float]) -> dict[str, float]:
    """The least and the median `setup_s` of the rounds."""
    return {"setup_s.min": min(seconds), "setup_s.p50": statistics.median(seconds)}


def report(parent: dict[str, float], change: dict[str, float]) -> list[str]:
    """The table the tool prints, in milliseconds."""
    lines = [f"{'':<12}{'parent ms':>12}{'change ms':>12}{'change':>9}"]
    for name in parent:
        relative = (change[name] - parent[name]) / parent[name]
        lines.append(f"{name:<12}{parent[name] * 1e3:>12.3f}{change[name] * 1e3:>12.3f}"
                     f"{relative:>+9.1%}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the parent commit")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("rounds", type=int, help="rounds per tree (at least 1)")
    args = parser.parse_args(argv)
    if not (args.base / "src" / "ddrt").is_dir():
        parser.error(f"{args.base} has no src/ddrt")
    if args.rounds < 1:
        parser.error("at least 1 round is needed")
    trees = {"parent": args.base.resolve(), "change": ROOT}
    runs: dict[str, list[list[float]]] = {"parent": [], "change": []}
    setups: dict[str, list[float]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / args.workload
        jobs = [cli_argv(item, str(corpus / item["file"]))
                for item in build(args.workload, 1, corpus)]
        fresh = args.workload == "portfolio"
        for tree in trees.values():
            clear_bytecode(tree)
        for i in range(args.rounds):
            for side in sides(i):
                setups[side].append(run_setup(trees[side], args.workload))
                runs[side] += (run_fresh(trees[side], jobs) if fresh
                               else run_tree(trees[side], jobs, PASSES))
                print(f"round {i + 1} {side} done", file=sys.stderr, flush=True)
    passes = len(runs["parent"]) // args.rounds
    print(f"{args.workload}, seed 1, {len(jobs)} problems, least of "
          f"{args.rounds * passes} passes per problem ({args.rounds} rounds of {passes}"
          f"{', one process per problem' if fresh else ''}), set-up once per round")
    parent, change = ({**summary(minima(runs[side])), **setup_summary(setups[side])}
                      for side in ("parent", "change"))
    for line in report(parent, change):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
