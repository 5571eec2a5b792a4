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


def test_setup_summary_keeps_the_least_and_the_median():
    assert inprocess_ab.setup_summary([0.035, 0.028, 0.030, 0.041]) == {
        "setup_s.min": 0.028, "setup_s.p50": pytest.approx(0.0325)}


def test_report_rows_of_the_setup_seconds():
    lines = inprocess_ab.report({"setup_s.min": 0.028, "setup_s.p50": 0.030},
                                {"setup_s.min": 0.035, "setup_s.p50": 0.030})
    assert lines[1].split() == ["setup_s.min", "28.000", "35.000", "+25.0%"]
    assert lines[2].split() == ["setup_s.p50", "30.000", "30.000", "+0.0%"]


def test_report_in_milliseconds_with_the_change_relative_to_the_parent():
    lines = inprocess_ab.report({"p50": 0.002, "sum": 0.5}, {"p50": 0.0015, "sum": 0.55})
    assert lines[0].split() == ["parent", "ms", "change", "ms", "change"]
    assert lines[1].split() == ["p50", "2.000", "1.500", "-25.0%"]
    assert lines[2].split() == ["sum", "500.000", "550.000", "+10.0%"]


def test_sides_alternate_by_round():
    assert [inprocess_ab.sides(i) for i in range(3)] == [
        ["parent", "change"], ["change", "parent"], ["parent", "change"]]


def test_child_env_runs_the_trees_src_under_hash_seed_0(monkeypatch):
    monkeypatch.setenv("DDRT_EXTERNAL_PROVER", "prover.sh")
    env = inprocess_ab.child_env(Path("/tree"))
    assert env["PYTHONPATH"] == str(Path("/tree") / "src")
    assert env["PYTHONHASHSEED"] == "0" and env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert "DDRT_EXTERNAL_PROVER" not in env


def test_run_fresh_times_one_process_per_problem():
    ortho = str(inprocess_ab.ROOT / "tests" / "data" / "ortho.trs")
    passes = inprocess_ab.run_fresh(inprocess_ab.ROOT, [["--proof", ortho], [ortho]])
    assert len(passes) == 1 and len(passes[0]) == 2
    assert all(0 < s < 60 for s in passes[0])


def test_run_setup_reads_the_setup_seconds_of_one_corpus_build():
    assert 0 < inprocess_ab.run_setup(inprocess_ab.ROOT, "relterm") < 60


def test_run_fresh_stops_at_a_failing_problem():
    with pytest.raises(SystemExit, match="exited 2"):
        inprocess_ab.run_fresh(inprocess_ab.ROOT, [["no-such-file.trs"]])


def test_clear_bytecode_removes_every_cache_under_src(tmp_path):
    for cache in ("src/pkg/__pycache__", "src/pkg/sub/__pycache__", "tools/__pycache__"):
        (tmp_path / cache).mkdir(parents=True)
        (tmp_path / cache / "m.pyc").write_bytes(b"")
    inprocess_ab.clear_bytecode(tmp_path)
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("__pycache__")] == [
        "tools/__pycache__"]
