"""Tests for the individual criteria and the portfolio orchestrator."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ddrt import Config, prove, prover, rule_labeling
from ddrt.critical_pairs import cps, critical_pairs
from ddrt.prover import (
    Analysis,
    check_dd_l1,
    check_dd_l2,
    check_knuth_bendix,
    check_nonconfluence,
    check_orthogonal,
    check_rule_labeling,
)
from conftest import data_path, system, term
from helpers import (
    check_normal_form,
    contradictory_chain,
    dd1_problem,
    replay_join,
    replay_relative,
)


@pytest.fixture(scope="module")
def cfg():
    return Config()


class TestOrthogonal:
    def test_orthogonal_yes(self, ortho):
        assert check_orthogonal(Analysis(ortho)).is_yes

    def test_overlapping_maybe(self, stream):
        v = check_orthogonal(Analysis(stream))
        assert v.kind == "MAYBE" and v.details["reason"] == "has overlaps"

    def test_nonleftlinear_maybe(self):
        v = check_orthogonal(Analysis(system("f(x,x) -> a")))
        assert v.kind == "MAYBE" and v.details["reason"] == "not left-linear"


class TestKnuthBendix:
    def test_diamond_yes(self, diamond, cfg):
        v = check_knuth_bendix(Analysis(diamond, cfg))
        assert v.is_yes
        for entry in v.details["normalizations"]:
            assert check_normal_form(diamond, entry["meet"])

    def test_fork_no_with_witness(self, fork, cfg):
        v = check_knuth_bendix(Analysis(fork, cfg))
        assert v.kind == "NO"
        nf_left, nf_right = v.details["witness"]["normal_forms"]
        assert {nf_left, nf_right} == {term("b"), term("c")}

    def test_nonterminating_maybe(self, nested_g, cfg):
        v = check_knuth_bendix(Analysis(nested_g, cfg))
        assert v.kind == "MAYBE"
        assert v.details["reason"] == "termination not shown"


class TestDdDuplicationSplit:
    def test_nested_g_yes(self, nested_g, cfg):
        v = check_dd_l1(Analysis(nested_g, cfg))
        assert v.is_yes
        replay_relative(*dd1_problem(nested_g), v.details["relative"])
        for entry in v.details["joins"]:
            replay_join(nested_g, entry["pair"].left, entry["pair"].right, entry["instance"])

    def test_extended_stream_maybe(self, stream_d, cfg):
        # the duplicating d rule cannot terminate relative to the rest
        v = check_dd_l1(Analysis(stream_d, cfg))
        assert v.kind == "MAYBE"

    def test_nonleftlinear_maybe(self, nonleftlinear, cfg):
        v = check_dd_l1(Analysis(nonleftlinear, cfg))
        assert v.kind == "MAYBE" and v.details["reason"] == "not left-linear"


class TestDdRelative:
    def test_extended_stream_yes_both_variants(self, stream_d, cfg):
        for exclude in (False, True):
            v = check_dd_l2(Analysis(stream_d, cfg), exclude_trivial=exclude)
            assert v.is_yes
            steps = cps(critical_pairs(stream_d), exclude)
            replay_relative(steps, stream_d, v.details["relative"])

    def test_toggle_maybe(self, toggle, cfg):
        assert check_dd_l2(Analysis(toggle, cfg)).kind == "MAYBE"

    def test_orthogonal_yes(self, ortho, cfg):
        assert check_dd_l2(Analysis(ortho, cfg)).is_yes


def test_dd_past_the_deadline_reports_timeout(stream_d, cfg):
    # dd1 fails and dd2 succeeds on stream_d, so only the deadline explains the reason
    for check in (check_dd_l1, check_dd_l2):
        a = Analysis(stream_d, cfg)
        a.deadline = time.monotonic()
        v = check(a)
        assert v.kind == "MAYBE" and v.details["reason"] == "timeout"
        assert v.details["relative"]["diagnostics"] == ["interpretation search passed the deadline"]


def test_join_search_past_the_deadline_reports_timeout():
    # a search of 623 states, over the 256 between two readings of the clock;
    # in time, rl answers YES and dd1 and dd2 fail on relative termination
    R = system("h(x) -> p(a,a,a,a)", "h(x) -> p(b,b,b,b)",
               "a -> b", "b -> a", "a -> c", "c -> b")
    assert check_rule_labeling(Analysis(R)).is_yes
    for check in (check_rule_labeling, check_dd_l1, check_dd_l2):
        a = Analysis(R)
        a.deadline = time.monotonic()
        v = check(a)
        assert v.kind == "MAYBE" and v.details["reason"] == "timeout"


def test_precedence_search_past_the_deadline_reports_timeout(monkeypatch):
    # the constraint would take about 80 s to refute
    monkeypatch.setattr(rule_labeling, "build_rl", lambda pairs, instances: contradictory_chain(9))
    start = time.monotonic()
    v = check_rule_labeling(Analysis(system("a -> b"), Config(timeout=0.5)))
    assert time.monotonic() - start < 2
    assert v.kind == "MAYBE" and v.details["reason"] == "timeout"
    assert v.details["detail"] == "precedence search passed the deadline"


def test_normalization_past_the_deadline_reports_timeout():
    # the peak f(p) normalizes in 301 steps, over the 256 between two readings of the clock
    R = system("p -> " + "s(" * 300 + "0" + ")" * 300, "f(s(x)) -> f(x)", "f(p) -> f(0)")
    assert check_knuth_bendix(Analysis(R)).is_yes
    a = Analysis(R)
    a.deadline = time.monotonic()
    v = check_knuth_bendix(a)
    assert v.kind == "MAYBE" and v.details["reason"] == "timeout"
    assert v.details["detail"] == "normalization passed the deadline"


class TestNonconfluence:
    def test_fork_no(self, fork, cfg):
        v = check_nonconfluence(Analysis(fork, cfg))
        assert v.kind == "NO"
        witness = v.details["witness"]
        assert {witness["normal_forms"][0], witness["normal_forms"][1]} == {
            term("b"),
            term("c"),
        }
        for nf in witness["normal_forms"]:
            assert check_normal_form(fork, nf)

    def test_toggle_maybe(self, toggle, cfg):
        # its critical pairs are joinable; refutation needs conversions
        assert check_nonconfluence(Analysis(toggle, cfg)).kind == "MAYBE"

    def test_orthogonal_maybe(self, ortho, cfg):
        assert check_nonconfluence(Analysis(ortho, cfg)).kind == "MAYBE"

    def test_pumping_closure_is_skipped_at_once(self):
        # a -> g(a) pumps, so nc cuts every closure from a term with an `a`
        # before it builds terms deep enough to overflow the recursion limit
        R = system("a -> g(a)", "f(f(a)) -> g(f(a))")
        start = time.perf_counter()
        v = prove(R, Config(criteria=("nc",)))
        assert time.perf_counter() - start < 1
        assert v.kind == "MAYBE"
        assert v.details["per_criterion"]["nc"]["reason"] == (
            "no critical pair with disjoint closed reducts"
        )


    def test_stops_at_the_deadline(self):
        # the closure of q1 holds 302 terms, over the 256 between two readings
        # of the clock; the pair of r, next in line, refutes confluence at once
        R = system("p -> q1", "p -> q2", "q1 -> f(" + "s(" * 300 + "0" + ")" * 301,
                   "f(s(x)) -> f(x)", "r -> a", "r -> b")
        assert check_nonconfluence(Analysis(R)).kind == "NO"
        a = Analysis(R)
        a.deadline = time.monotonic()
        v = check_nonconfluence(a)
        assert v.kind == "MAYBE" and v.details["reason"] == "timeout"


class TestProve:
    def test_stream_via_rule_labeling(self, stream):
        v = prove(stream)
        assert v.is_yes and v.criterion == "rule-labeling"

    def test_extended_stream_via_relative_termination(self, stream_d):
        v = prove(stream_d)
        assert v.is_yes and v.criterion.startswith("dd-relative")

    def test_nonlinear_f_maybe(self, nonlinear_f):
        v = prove(nonlinear_f)
        assert v.kind == "MAYBE"
        assert "rl" in v.details["per_criterion"]

    def test_fork_no(self, fork):
        assert prove(fork).kind == "NO"

    def test_unknown_criterion_rejected(self, fork):
        with pytest.raises(ValueError):
            prove(fork, Config(criteria=("bogus",)))

    def test_config_rejects_unknown_criterion(self):
        with pytest.raises(ValueError, match="bogus"):
            Config(criteria=("ortho", "bogus"))

    def test_external_prover_gets_only_the_time_left(self, toggle, tmp_path):
        # kb's call answers MAYBE after a second; dd1's call would sleep for
        # 30 s and has to stop at the deadline, 2 s after the start
        tool = tmp_path / "prover.sh"
        mark = tmp_path / "called"
        tool.write_text(
            f"#!/bin/sh\nif [ -e '{mark}' ]; then exec sleep 30; fi\n"
            f"touch '{mark}'\nsleep 1\necho MAYBE\n"
        )
        tool.chmod(0o755)
        start = time.perf_counter()
        v = prove(toggle, Config(timeout=2, external_prover=str(tool)))
        elapsed = time.perf_counter() - start
        assert v.kind == "MAYBE" and "timeout" in v.details["per_criterion"]
        assert elapsed < 2.5, f"took {elapsed:.2f}s"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Config(k=-1)
        with pytest.raises(ValueError):
            Config(timeout=0)
        with pytest.raises(ValueError, match="timeout"):
            Config(timeout=float("nan"))

    @pytest.mark.parametrize(
        "flag",
        ["dim_max", "coef_max", "node_budget", "search_budget", "nc_budget",
         "instance_cap"],
    )
    def test_config_rejects_values_below_one(self, flag):
        with pytest.raises(ValueError, match=flag):
            Config(**{flag: 0})
        with pytest.raises(ValueError, match=flag):
            Config(**{flag: -1})
        assert getattr(Config(**{flag: 1}), flag) == 1

    def test_recursion_error_becomes_maybe(self):
        # no rule pumps, so the nc closure builds ever deeper terms
        # a, g(b), g(g(a)), ... until recursion overflows
        R = system("a -> g(b)", "b -> g(a)", "f(a) -> c")
        v = prove(R, Config(criteria=("nc",)))
        assert v.kind == "MAYBE"
        assert v.details["per_criterion"]["nc"]["reason"] == "recursion limit"

    def test_memory_error_becomes_maybe(self, toggle, monkeypatch):
        def exhausted(a):
            raise MemoryError

        monkeypatch.setattr(prover, "check_nonconfluence", exhausted)
        v = prove(toggle, Config(criteria=("nc", "ortho")))
        assert v.kind == "MAYBE"
        assert v.details["per_criterion"]["nc"] == {"reason": "out of memory"}
        assert v.details["per_criterion"]["ortho"]["reason"] == "has overlaps"

    def test_pumping_system_answers_yes_within_five_seconds(self):
        # f(x) -> f(f(a)) pumps; without the cut, nc runs for about a minute
        # into the recursion limit before rule labeling answers
        R = system("f(f(y)) -> f(f(b))", "f(x) -> f(f(a))")
        start = time.perf_counter()
        assert prove(R).is_yes
        assert time.perf_counter() - start < 5

    def test_criterion_independence(self, stream, diamond):
        # restricting to a single criterion yields that criterion's verdict
        v = prove(stream, Config(criteria=("kb",)))
        assert v.kind == "MAYBE" and "kb" in v.details["per_criterion"]
        v = prove(diamond, Config(criteria=("kb",)))
        assert v.is_yes and v.criterion == "knuth-bendix"
        v = prove(diamond, Config(criteria=("ortho",)))
        assert v.kind == "MAYBE"

    def test_budget_monotonicity_on_yes_fixtures(self, stream, stream_d, nested_g):
        small = Config()
        big = Config(
            k=5,
            node_budget=small.node_budget * 2,
            search_budget=small.search_budget * 2,
            nc_budget=small.nc_budget * 2,
            timeout=small.timeout * 2,
        )
        for R in (stream, stream_d, nested_g):
            assert prove(R, small).is_yes
            assert prove(R, big).is_yes


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestSharedAnalysis:
    def test_one_analysis_per_prove(self, toggle):
        """Auto mode on toggle runs all seven criteria. Under the benchmark's
        tracer, each runs once, overlaps are computed once, and rl and the dd
        criteria search the joins of each critical pair once between them:
        every join search goes through `_join_candidates`."""
        code = (
            "import contextlib, io, json, sys\n"
            f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
            "from tracing import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "import ddrt.cli, ddrt.joinability as j\n"
            "searches, search = [], j._join_candidates\n"
            "j._join_candidates = lambda *a: searches.append(a) or search(*a)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    ddrt.cli.run([{data_path('toggle.trs')!r}])\n"
            "print(json.dumps({'layers': tracer.summarize(), 'searches': len(searches)}))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src),
        ).stdout
        result = json.loads(out.splitlines()[-1])
        layers = result["layers"]
        for c in ("nc", "ortho", "rl", "kb", "dd1", "dd2", "dd2x"):
            assert layers.get(f"prover.{c}.calls") == 1, c
        assert layers["critical_pairs.overlaps.calls"] == 1
        for name in ("rule_labeling.build_rl", "rule_labeling.solve_precedence",
                     "interpretations.prove_termination",
                     "interpretations.prove_relative_termination"):
            assert layers.get(f"{name}.calls", 0) > 0, name
        n_pairs = len(critical_pairs(toggle))
        assert layers["joinability.join_instances.calls"] == result["searches"] == n_pairs == 2

    def test_traced_functions_are_defined(self):
        """The tracer skips a target its defining module no longer has, and
        that target's metrics then read 0, so each one must resolve."""
        spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for _, _, paths, _ in tracing.TARGETS:
            module, _, attr = paths[0].rpartition(".")
            assert callable(getattr(importlib.import_module(module), attr, None)), paths[0]


def test_join_search_over_its_budget_past_the_deadline_reports_the_budget():
    # the budget stops the search at its 11th state, before the clock is read at the 256th
    R = system("h(x) -> p(a,a,a,a)", "h(x) -> p(b,b,b,b)",
               "a -> b", "b -> a", "a -> c", "c -> b")
    a = Analysis(R, Config(node_budget=10))
    a.deadline = time.monotonic()
    assert a.joins == "joinability search hit the node budget at k=4"
