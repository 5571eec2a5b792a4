"""Benchmark of the ddrt confluence prover.

    python3 perfbench/run.py --workload portfolio|rl-srs|relterm \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the prover is imported from its `src`.
Set-up writes the workload's corpus for the seed (see corpus.py), five
times over in fresh processes, and reports the median time. Then whole
passes over the corpus run, each in fresh processes and with no warm-up,
until S seconds have gone by. Every verdict is checked by checker.py
outside the timed region. The last line of standard output is one JSON
object: correct, attempted, failed and metrics, which are the end-to-end
metrics with --trace 0 and the per-layer metrics with --trace 1. A traced
run alternates untraced and traced passes, so that it can also report the
tracing overhead. Work files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import tracing  # noqa: E402
from corpus import WORKLOADS  # noqa: E402
from worker import cli_argv  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
PROBLEM_CAP_S = 60.0
PASS_CAP_S = 150.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # the interpretation search depends on string hashing (see README)
    env["PYTHONHASHSEED"] = "0"
    # the default Config: no external termination prover
    env.pop("DDRT_EXTERNAL_PROVER", None)
    return env


ENV = _env()


def spawn(cmd: list[str], cap: float, stderr_path: Path) -> tuple[str, int, float, float]:
    """Run cmd to its end: (stdout, exit code, seconds, peak RSS in MB).

    The child is reaped with wait4 so that its own peak RSS is known; it is
    killed if it runs past `cap` seconds.
    """
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=ENV, cwd=ROOT)
        timer = threading.Timer(cap, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out.decode(), proc.returncode, seconds, usage.ru_maxrss / 1024


def _stderr_tail(path: Path) -> str:
    lines = path.read_text().strip().splitlines()
    return lines[-1] if lines else ""


def set_up(workload: str, seed: int, work: Path) -> tuple[Path, float]:
    times = []
    for i in range(SETUP_REPEATS):
        corpus = work / f"corpus{i}"
        out, code, _, _ = spawn(
            [sys.executable, str(HERE / "corpus.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(corpus)],
            PASS_CAP_S, work / "setup.err")
        if code != 0:
            raise RuntimeError(f"set-up failed: {_stderr_tail(work / 'setup.err')}")
        times.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        if i:
            shutil.rmtree(work / f"corpus{i - 1}")
    return corpus, statistics.median(times)


def portfolio_pass(corpus: Path, manifest: list, traced: bool, work: Path) -> dict:
    """Each problem as `ddrt --proof FILE` in its own process, one at a time."""
    problems, peak, layers, imports = [], 0.0, Counter(), []
    spans_dir = work / "spans"
    spans_dir.mkdir(exist_ok=True)
    start = time.perf_counter()
    for item in manifest:
        path = str(corpus / item["file"])
        if traced:
            summary = spans_dir / f"{item['id']}.json"
            cmd = [sys.executable, str(HERE / "worker.py"), "--single", path,
                   "--spans", str(summary)]
        else:
            cmd = [sys.executable, "-m", "ddrt.cli", *cli_argv(item, path)]
        out, code, seconds, rss = spawn(cmd, PROBLEM_CAP_S, work / "child.err")
        error = None if code == 0 else f"exit code {code}: {_stderr_tail(work / 'child.err')}"
        problems.append({"id": item["id"], "seconds": seconds, "stdout": out, "error": error})
        peak = max(peak, rss)
        if traced and summary.exists():
            data = json.loads(summary.read_text())
            imports.append(data.pop("cli.import_s"))
            layers.update(data)
    result = {"wall_s": time.perf_counter() - start, "rss_mb": peak, "problems": problems}
    if traced:
        layers["cli.import_s"] = statistics.median(imports) if imports else 0.0
        result["layers"] = dict(layers)
    return result


def worker_pass(corpus: Path, traced: bool, work: Path) -> dict:
    """One pass over the corpus through ddrt.cli.run in one fresh process."""
    result_path = work / "pass.json"
    _, code, _, rss = spawn(
        [sys.executable, str(HERE / "worker.py"), "--pass", str(corpus),
         "--trace", str(int(traced)), "--result", str(result_path)],
        PASS_CAP_S, work / "worker.err")
    if code != 0:
        raise RuntimeError(f"worker failed: {_stderr_tail(work / 'worker.err')}")
    result = json.loads(result_path.read_text())
    result["rss_mb"] = rss
    if traced:
        result["layers"]["cli.import_s"] = result["import_s"]
        result["layers"]["problems"] = len(result["problems"])
    return result


def check_passes(passes: list, corpus: Path, manifest: list) -> tuple[bool, int, int, list]:
    """(correct, attempted, failed, failures) over every pass of the run.

    A problem fails when its call raised or exited nonzero, printed no
    verdict, or printed a proof the checker rejects. The run is incorrect
    when a problem's verdict differs between passes or contradicts the
    YES/NO that was certified when the pool was drawn.
    """
    items = {item["id"]: item for item in manifest}
    verdicts: dict[str, str] = {}
    checked: dict[tuple, tuple] = {}
    correct, attempted, failed, failures = True, 0, 0, []
    for result in passes:
        for p in result["problems"]:
            attempted += 1
            item = items[p["id"]]
            if p["error"] is None:
                key = (p["id"], p["stdout"])
                if key not in checked:
                    checked[key] = checker.check((corpus / item["file"]).read_text(), p["stdout"])
                ok, why = checked[key]
            else:
                ok, why = False, p["error"]
            if not ok:
                failed += 1
                failures.append({"id": p["id"], "family": item["family"], "reason": why})
                continue
            verdict = p["stdout"].split("\n", 1)[0]
            if verdicts.setdefault(p["id"], verdict) != verdict:
                correct = False
                failures.append({"id": p["id"], "reason": "verdict changed between passes"})
            expect = item.get("expect")
            if expect and verdict in ("YES", "NO") and verdict != expect:
                correct = False
                failures.append({"id": p["id"], "reason": f"{verdict} contradicts {expect}"})
    return correct, attempted, failed, failures


def count_decided(result: dict) -> int:
    return sum(
        1 for p in result["problems"]
        if p["error"] is None and p["stdout"].split("\n", 1)[0] in ("YES", "NO")
    )


def end_to_end(plain: list, setup_s: float) -> dict:
    """Medians over the run's passes of each pass's figures."""
    seconds = [[p["seconds"] for p in r["problems"]] for r in plain]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "verdict_s.p50": (statistics.median(statistics.median(s) for s in seconds), "s"),
        "verdict_s.p90": (
            statistics.median(statistics.quantiles(s, n=10)[8] for s in seconds), "s"),
        "rss_mb.peak": (statistics.median(r["rss_mb"] for r in plain), "MB"),
        "decided": (statistics.median_low(count_decided(r) for r in plain), "count"),
    }


def per_layer(plain: list, traced: list) -> dict:
    first = traced[0]["layers"]
    out = {name: (first.get(name, 0), "count") for name in tracing.COUNT_METRICS}
    out["critical_pairs.overlaps.per_problem"] = (
        first.get("critical_pairs.overlaps.calls", 0) / first["problems"], "count")
    for name in tracing.TIME_METRICS + ["cli.import_s"]:
        out[name] = (statistics.median(r["layers"].get(name, 0.0) for r in traced), "s")
    out["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ddrt" / "__init__.py").is_file():
        print(f"error: no prover sources at {SRC / 'ddrt'}; run from the repository root",
              file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus, setup_s = set_up(args.workload, args.seed, work)
    manifest = json.loads((corpus / "manifest.json").read_text())

    def one_pass(traced: bool) -> dict:
        if args.workload == "portfolio":
            return portfolio_pass(corpus, manifest, traced, work)
        return worker_pass(corpus, traced, work)

    cycle = (False, True) if args.trace else (False,)
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        for t in cycle:
            (traced if t else plain).append(one_pass(t))
        if time.perf_counter() >= deadline:
            break

    correct, attempted, failed, failures = check_passes(plain + traced, corpus, manifest)
    (work / "failures.json").write_text(json.dumps(failures, indent=1))
    for f in failures[:10]:
        print(f"failure: {f}", file=sys.stderr)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setup_s)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
