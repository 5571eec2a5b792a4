"""Tests for the verdicts of `tools/bench_pairs.py`, on fixed numbers."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize(
    "parent, change, better, bound, expected",
    [
        # a tight spread: the medians decide
        ([1.0, 1.0, 1.01, 0.99], [1.3, 1.3, 1.31, 1.29], "lower", 0.25, (0.3, "worse")),
        ([1.0, 1.0, 1.01, 0.99], [1.2, 1.2, 1.21, 1.19], "lower", 0.25, (0.2, "ok")),
        ([100, 100, 100, 100], [98, 98, 98, 98], "higher", 0.01, (-0.02, "worse")),
        ([100, 100, 100, 100], [101, 101, 101, 101], "higher", 0.01, (0.01, "ok")),
        # an IQR of 0.5 against a bound of 0.25 at a median of 1.25
        ([0.5, 1.0, 1.5, 2.0], [0.6, 1.1, 1.6, 2.1], "lower", 0.25, (0.08, "unresolved")),
        ([0.5, 1.0, 1.5, 2.0], [1.5, 2.0, 2.5, 3.0], "lower", 0.25, (0.8, "unresolved")),
        # ... unless every change run beats every parent run
        ([0.5, 1.0, 1.5, 2.0], [0.1, 0.2, 0.3, 0.4], "lower", 0.25, (-0.8, "ok")),
    ],
)
def test_verdict(parent, change, better, bound, expected):
    relative, judged = bench_pairs.verdict(parent, change, better, bound)
    assert (relative, judged) == (pytest.approx(expected[0]), expected[1])
