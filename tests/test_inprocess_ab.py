"""Tests for the pure parts of `tools/inprocess_ab.py`, on fixed numbers."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "inprocess_ab", Path(__file__).resolve().parent.parent / "tools" / "inprocess_ab.py")
inprocess_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inprocess_ab)


def test_minima_keep_each_problems_least_time():
    passes = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 0.5, 5.5]]
    assert inprocess_ab.minima(passes) == [2.0, 0.5, 5.0]


def test_minima_of_passes_of_different_lengths_raise():
    with pytest.raises(ValueError):
        inprocess_ab.minima([[1.0, 2.0], [1.0]])


def test_summary():
    seconds = [float(i) for i in range(1, 11)]
    got = inprocess_ab.summary(seconds)
    # the p90 of perfbench/run.py: the ninth of ten quantiles, "exclusive"
    assert got == {"p50": 5.5, "p90": pytest.approx(9.9), "sum": 55.0}


def test_report_in_milliseconds_with_the_change_relative_to_the_parent():
    lines = inprocess_ab.report({"p50": 0.002, "sum": 0.5}, {"p50": 0.0015, "sum": 0.55})
    assert lines[0].split() == ["parent", "ms", "change", "ms", "change"]
    assert lines[1].split() == ["p50", "2.000", "1.500", "-25.0%"]
    assert lines[2].split() == ["sum", "500.000", "550.000", "+10.0%"]
