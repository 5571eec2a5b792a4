"""Draw the checked-in problem pool (`pool.json`) from the corpus families.

    python3 perfbench/draw_pool.py

Run it from the root of the repository. It re-starts itself under the
environment every prover process of the benchmark gets (`run.ENV`:
`PYTHONHASHSEED=0`, no external prover), so the screening times and
verdicts are those the benchmark measures. Every candidate is screened
afresh on each draw.

Each candidate runs once through its workload's command: `ddrt --proof` in
a fresh process for `portfolio`, `ddrt.cli.run` in one long-lived process
for `rl-srs` and `relterm`. A candidate is dropped when the call raises,
prints no verdict, runs past the cap, or its proof fails the checker; the
drops are counted by reason in `pool_screen.json`. A `relterm` candidate is
also dropped when its join search takes longer than its interpretation
search, because that workload is meant to measure the latter. Survivors
fill fixed quotas per family. The prover's verdict at draw time is kept as
`expect` when it is YES or NO, so a later run that answers the opposite is
caught.

This takes several minutes; the benchmark itself never runs it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402
from run import ENV  # noqa: E402

MASTER_SEED = 2009
PORTFOLIO_CAP_S = 10.0
IN_PROCESS_CAP_S = 1.0


class _Cap(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Cap()


def screen_subprocess(text: str, tmp: Path) -> tuple[str, float, str]:
    """(first line or failure reason, seconds, stdout) of `ddrt --proof`."""
    tmp.write_text(text)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ddrt.cli", "--proof", str(tmp)],
            capture_output=True, text=True, timeout=PORTFOLIO_CAP_S, env=ENV,
        )
    except subprocess.TimeoutExpired:
        return "past-cap", PORTFOLIO_CAP_S, ""
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["exit"])[-1]
        return f"raised:{last.split(':')[0]}", dt, ""
    return proc.stdout.split("\n", 1)[0], dt, proc.stdout


_TRACER = None


def screen_in_process(text: str, criterion: str, tmp: Path) -> tuple:
    """(first line or failure reason, seconds, stdout, layer split) of one
    `ddrt.cli.run` call; the split is (join search s, interpretation s)."""
    global _TRACER
    import ddrt.cli

    if _TRACER is None:
        _TRACER = tracing.Tracer()
        _TRACER.install()
    _TRACER.spans, _TRACER.stack = [], []
    tmp.write_text(text)
    buf = io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, IN_PROCESS_CAP_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            ddrt.cli.run(["--criterion", criterion, "--proof", str(tmp)])
    except _Cap:
        return "past-cap", IN_PROCESS_CAP_S, ""
    except Exception as e:  # a raising system is dropped and counted
        return f"raised:{type(e).__name__}", time.perf_counter() - t0, ""
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    dt = time.perf_counter() - t0
    layers = _TRACER.summarize()
    split = (layers.get("joinability.join_instances.s", 0.0),
             layers.get("interpretations.self_s", 0.0))
    return buf.getvalue().split("\n", 1)[0], dt, buf.getvalue(), split


def _reason(stdout: str) -> str:
    try:
        details = json.loads(stdout.split("\n", 1)[1])["details"]
    except (IndexError, ValueError, KeyError):
        return ""
    per = details.get("per_criterion")
    if per is not None:
        return ";".join(f"{k}:{v.get('reason', '')}" for k, v in per.items())
    return details.get("reason", "")


# (workload, family, drawer, criterion, outcomes kept, quota, max seconds)
PLAN = [
    ("portfolio", "orthogonal", corpus.draw_orthogonal, "auto", {"YES"}, 29, 1.0),
    ("portfolio", "distinct-normal-forms",
     lambda r: corpus.draw_terminating(r, r.random() < 0.6), "auto", {"NO"}, 30, 1.0),
    ("portfolio", "terminating-confluent",
     lambda r: corpus.draw_terminating(r, r.random() < 0.5), "auto", {"YES"}, 16, 1.0),
    ("portfolio", "left-linear-nonterminating",
     lambda r: (corpus.draw_stream if r.random() < 0.6 else corpus.draw_nested)(r),
     "auto", {"YES", "MAYBE"}, 5, 1.2),
    ("portfolio", "budget-exhausting",
     lambda r: corpus.draw_terminating(r, False) if r.random() < 0.5
     else corpus.draw_left_linear(r, max_rules=3), "auto", {"MAYBE"}, 12, 1.0),
    ("rl-srs", "rl-decreasing", corpus.draw_srs, "rl", {"YES"}, 50, 0.3),
    ("rl-srs", "rl-unsatisfiable", corpus.draw_srs, "rl", {"MAYBE"}, 52, 0.3),
    ("relterm", "kb-terminating", corpus.draw_shortcut, "kb", {"YES", "MAYBE"}, 58, 0.5),
    ("relterm", "dd2-relative", corpus.draw_left_linear, "dd2", {"YES", "MAYBE"}, 40, 0.5),
    ("relterm", "dd1-duplicating",
     lambda r: corpus.draw_nested(r) if r.random() < 0.3 else corpus.draw_left_linear(r),
     "dd1", {"YES", "MAYBE"}, 2, 0.5),
]

MAX_DRAWS = 2000
MIN_SECONDS = {"rl-srs": 0.005, "relterm": 0.005}


def _keep(workload, family, first, stdout, rules) -> bool:
    if family == "dd1-duplicating" and not any(checker.duplicating(r) for r in rules):
        return False
    if workload == "relterm" and first == "MAYBE":
        # the joins were found and the interpretation search ran out
        return "termination not shown" in _reason(stdout)
    if family == "rl-unsatisfiable":
        return "unsatisfiable" in _reason(stdout)
    return True


def draw(out: Path, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    pool = {w: [] for w in corpus.WORKLOADS}
    pool["portfolio"].extend(corpus.fixture_entries())
    screen: dict = {}
    seen = {entry["text"] for entry in pool["portfolio"]}  # no fixture twice
    for workload, family, drawer, criterion, outcomes, quota, max_s in PLAN:
        rng = random.Random(f"{MASTER_SEED}:{family}")
        counts: Counter = Counter()
        kept = []
        draws = 0
        while len(kept) < quota and draws < MAX_DRAWS:
            draws += 1
            try:
                rules = drawer(rng)
            except (IndexError, ValueError):
                counts["generator-dead-end"] += 1
                continue
            text = corpus.trs_text(rules)
            if len(rules) < 2 or text in seen:
                counts["duplicate-or-tiny"] += 1
                continue
            seen.add(text)
            tmp = work / "candidate.trs"
            if workload == "portfolio":
                screened = screen_subprocess(text, tmp)
            else:
                screened = screen_in_process(text, criterion, tmp)
            first, dt, stdout = screened[:3]
            if first not in ("YES", "NO", "MAYBE"):
                counts[first] += 1
                continue
            ok, why = checker.check(text, stdout)
            if not ok:
                counts[f"checker-rejected:{why}"] += 1
                continue
            if first not in outcomes or not _keep(workload, family, first, stdout, rules):
                counts[f"other-outcome:{first}"] += 1
                continue
            if workload == "relterm" and screened[3][0] > screened[3][1]:
                # relterm measures interpretation search, not join search
                counts["join-search-dominates"] += 1
                continue
            if dt > max_s or dt < MIN_SECONDS.get(workload, 0.0):
                counts["outside-time-band"] += 1
                continue
            counts[f"kept:{first}"] += 1
            entry = {"family": family, "criterion": criterion, "text": text,
                     "drawn_s": round(dt, 4)}
            if first in ("YES", "NO"):
                entry["expect"] = first
            if workload == "rl-srs":
                entry["mirror_ok"] = True
            kept.append(entry)
        screen[f"{workload}/{family}"] = {"draws": draws, **dict(sorted(counts.items()))}
        print(workload, family, len(kept), dict(counts), flush=True)
        pool[workload].extend(kept)
    out.write_text(json.dumps(pool, indent=1) + "\n")
    (out.parent / "pool_screen.json").write_text(json.dumps(screen, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=corpus.POOL)
    parser.add_argument("--work", type=Path, default=HERE / "out" / "draw")
    args = parser.parse_args()
    if any(os.environ.get(k) != ENV.get(k) for k in ("PYTHONHASHSEED", "DDRT_EXTERNAL_PROVER")):
        # screen under the hash seed the benchmark runs with (see README)
        os.execve(sys.executable, [sys.executable, *sys.argv], ENV)
    draw(args.out, args.work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
