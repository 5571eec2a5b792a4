"""`--timeout` bounds wall time inside every criterion, however fast terms grow."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ddrt import TRS, Config, prove, trs
from ddrt.prover import DEFAULT_CRITERIA
from ddrt.terms import Var, variables
from helpers import make_random_term

SRC = str(Path(__file__).resolve().parent.parent / "src")
SIGNATURE = [("a", 0), ("b", 0), ("f", 1), ("g", 1), ("h", 2)]
TIMEOUT_S = 0.3
SLACK_S = 0.5


def random_system(seed: int) -> TRS:
    """1 to 4 rules over SIGNATURE: a left side of depth at most 1 that is
    not a variable, and a right side of depth at most 4 over its variables."""
    rng = random.Random(seed)
    rules = []
    for _ in range(rng.randint(1, 4)):
        lhs = Var("x")
        while isinstance(lhs, Var):
            lhs = make_random_term(rng, SIGNATURE, ["x", "y"], rng.randint(0, 1))
        rhs = make_random_term(rng, SIGNATURE, sorted(variables(lhs)), rng.randint(0, 4))
        rules.append((lhs, rhs))
    return trs(rules)


class _Overrun(Exception):
    """A call ran past its timeout and the slack."""


def _overrun(signum, frame):
    raise _Overrun


def test_every_criterion_returns_by_its_timeout_on_random_systems():
    # an alarm at the timeout plus the slack stops a runaway call at once,
    # so that a search which never reads the clock fails here instead of hanging
    previous = signal.signal(signal.SIGALRM, _overrun)
    try:
        for seed in range(200):
            R = random_system(seed)
            for name in DEFAULT_CRITERIA:
                cfg = Config(timeout=TIMEOUT_S, k=3, dim_max=2, criteria=(name,))
                signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S + SLACK_S)
                try:
                    prove(R, cfg)
                except _Overrun:
                    pytest.fail(f"{name} ran past {TIMEOUT_S + SLACK_S} s on seed {seed}: "
                                + "; ".join(f"{r.lhs} -> {r.rhs}" for r in R.rules))
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


# left-linear systems whose `nc` closures grow terms fast: they spend few
# units of work, each on a larger term than the last
GROWING = {
    "doubling": "(VAR y x)\n(RULES\n  g(y) -> g(h(y,y))\n  h(x,a) -> x\n"
                "  h(g(y),b) -> b\n  b -> a\n)\n",
    "deepening": "(VAR x)\n(RULES\n  h(x,a) -> f(h(a,x))\n  f(x) -> x\n  f(a) -> h(a,a)\n)\n",
}
CAP_S = 5.0


@pytest.mark.parametrize("criterion", [["--criterion", "nc"], []], ids=["nc", "auto"])
@pytest.mark.parametrize("name", sorted(GROWING))
def test_growing_closure_stops_at_the_timeout(tmp_path, name, criterion):
    path = tmp_path / f"{name}.trs"
    path.write_text(GROWING[name])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ddrt.cli", *criterion, "--timeout", "0.5", str(path)],
            capture_output=True, text=True, env=env, timeout=CAP_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"still running after {CAP_S} s")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and proc.stdout.splitlines()[0] == "MAYBE"
    assert elapsed < 1.0
