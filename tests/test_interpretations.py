"""Tests for matrix interpretations and relative termination proofs."""

from __future__ import annotations

import json
import os
import random
import stat
import tempfile
import time
from itertools import product
from math import comb

import pytest

from ddrt import TRS, trs
from ddrt.critical_pairs import cps, critical_pairs
from ddrt.cli import run
from ddrt.interpretations import (
    DEFAULT_SEARCH_BUDGET,
    MatrixInterpretation,
    _candidates,
    _row0_choices,
    external_termination_check,
    has_looping_rule,
    prove_relative_termination,
    prove_termination,
    search_interpretation,
)
from ddrt.errors import Timeout
from ddrt.rewriting import Rule
from ddrt.terms import Fun, apply_subst, iter_positions, match, replace_at, variables
from ddrt.tpdb import parse_trs
from conftest import DATA_DIR, system, term
from helpers import (
    candidates_by_filter,
    candidates_by_prefixes,
    compare_forms,
    interpret_term,
    make_random_term,
    replay_relative,
    replay_rounds,
)


class TestInterpretTerm:
    def test_ground_evaluation(self, stream_d_model):
        form = interpret_term(stream_d_model, term("inc(tl(nat))"))
        assert form.coeffs == {}
        assert form.const == (1, 1)

    def test_both_reducts_collapse(self, stream_d_model):
        left = interpret_term(stream_d_model, term("tl(inc(nat))"))
        right = interpret_term(stream_d_model, term("inc(tl(:(0,inc(nat))))"))
        assert left.const == (0, 0) and left.coeffs == {}
        assert right.const == (0, 0) and right.coeffs == {}

    def test_variable(self, stream_d_model):
        form = interpret_term(stream_d_model, term("x"))
        assert form.coeffs == {"x": ((1, 0), (0, 1))}
        assert form.const == (0, 0)

    def test_missing_symbol(self, stream_d_model):
        with pytest.raises(KeyError):
            interpret_term(stream_d_model, term("mystery(x)"))

    def test_model_orients_the_whole_system(self, stream_d, stream_d_model):
        for rule in stream_d.rules:
            lhs = interpret_term(stream_d_model, rule.lhs)
            rhs = interpret_term(stream_d_model, rule.rhs)
            assert compare_forms(lhs, rhs) in ("weak", "strict")

    def test_model_orients_cp_steps_strictly(self, stream_d, stream_d_model):
        for rule in cps(critical_pairs(stream_d)).rules:
            lhs = interpret_term(stream_d_model, rule.lhs)
            rhs = interpret_term(stream_d_model, rule.rhs)
            assert compare_forms(lhs, rhs) == "strict"


class TestCompareForms:
    def test_strict_constants(self, stream_d_model):
        big = interpret_term(stream_d_model, term("inc(tl(nat))"))
        small = interpret_term(stream_d_model, term("tl(inc(nat))"))
        assert compare_forms(big, small) == "strict"

    def test_reflexive_weak(self, stream_d_model):
        form = interpret_term(stream_d_model, term("inc(x)"))
        assert compare_forms(form, form) == "weak"

    def test_incomparable_in_second_component(self, stream_d_model):
        lo = interpret_term(stream_d_model, term("0"))
        hi = interpret_term(stream_d_model, term("nat"))  # constant (0, 1)
        assert compare_forms(lo, hi) == "incomparable"

    def test_extra_rhs_variable_incomparable(self, stream_d_model):
        left = interpret_term(stream_d_model, term("inc(x)"))
        right = interpret_term(stream_d_model, term("inc(y)"))
        assert compare_forms(left, right) == "incomparable"

    def test_upper_left_entry_enforced(self):
        with pytest.raises(ValueError):
            MatrixInterpretation(dim=1, funcs={"f": ((((0,),),), (0,))})


def _search(strict: TRS, weak: TRS, dim: int):
    """One full-space search with coefficients up to 1 and constants up to 2."""
    return search_interpretation(
        list(strict.rules), list(weak.rules), dim, 1, 2, DEFAULT_SEARCH_BUDGET, None
    )


# every candidate shape the default schedules request, at coefficients 1 and 2:
# dim 1 and 2 over the full space, dim 3 capped at arity + 3
_SCHEDULE_SHAPES = (
    [(a, 1, 1, c, None) for a in range(3) for c in range(2, 9)]
    + [(a, 2, 1, c, None) for a in range(3) for c in (1, 2)]
    + [(a, 3, 1, 1, a + 3) for a in range(3)]
    + [(a, 1, 2, c, None) for a in range(3) for c in range(4, 9)]
    + [(a, 2, 2, c, None) for a in range(3) for c in (2, 4)]
)


class TestCandidates:
    @pytest.mark.parametrize("shape", _SCHEDULE_SHAPES, ids=str)
    def test_same_list_and_order_as_filtering_the_whole_space(self, shape):
        cands = _candidates(*shape)
        built = [(w, cands.function(i)) for i, w in enumerate(cands.weights)]
        assert built == candidates_by_filter(*shape)

    @pytest.mark.parametrize("shape", _SCHEDULE_SHAPES + [(3, 5, 1, 1, 6)], ids=str)
    def test_same_rows_as_extending_prefixes(self, shape):
        cands = _candidates.__wrapped__(*shape)
        n = len(cands.weights)
        rows = [tuple(row) for row in cands.mats.reshape(n, -1).tolist()]
        rows = [row + tuple(c) for row, c in zip(rows, cands.consts.tolist())]
        assert (list(cands.weights), rows) == candidates_by_prefixes(*shape)

    def test_arrays_are_read_only_and_functions_are_python_ints(self):
        cands = _candidates(2, 2, 1, 2, None)
        assert not cands.mats.flags.writeable and not cands.consts.flags.writeable
        mats, const = cands.function(len(cands.weights) - 1)
        entries = [x for m in mats for row in m for x in row] + list(const)
        assert all(type(x) is int for x in entries)

    def test_capped_ternary_space_is_built_quickly(self):
        # the whole space has 2**27 * 2**3 vectors; under the cap, the 3
        # upper-left entries are 1 and at most 3 of the other 27 entries are 1
        start = time.perf_counter()
        cands = _candidates.__wrapped__(3, 3, 1, 1, 6)
        assert time.perf_counter() - start < 2.0
        assert len(cands.weights) == sum(comb(27, k) for k in range(4))
        assert list(cands.weights) == sorted(cands.weights) and cands.weights[-1] == 6

    def test_build_stops_at_the_deadline_and_is_not_kept(self):
        # the whole build takes about 0.5 s; a stopped one raises on every call
        for wait in (0.05, 0.0):
            start = time.monotonic()
            with pytest.raises(Timeout, match="candidate build passed the deadline"):
                _candidates(3, 6, 1, 1, 6, deadline=start + wait)
            assert time.monotonic() - start < wait + 1.0


class TestRow0Choices:
    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 2, 1, 3), (2, 3, 1, 2), (1, 2, 2, 6)],
                             ids=str)
    def test_every_row_choice_under_the_cap_in_product_order(self, shape):
        arity, dim, coef_max, row_cap = shape
        rows = [(first, *rest) for first in range(1, coef_max + 1)
                for rest in product(range(coef_max + 1), repeat=dim - 1)]
        expected = [choice for choice in product(rows, repeat=arity)
                    if sum(map(sum, choice)) <= row_cap]
        got = [tuple(tuple(r.tolist()) for r in choice) for choice in _row0_choices(*shape)]
        assert got == expected

    def test_cached_by_shape_and_read_only(self):
        choices = _row0_choices(2, 2, 1, 3)
        assert _row0_choices(2, 2, 1, 3) is choices
        assert all(not r.flags.writeable for choice in choices for r in choice)


def test_each_round_interprets_the_symbols_of_the_rules_left_only(diamond):
    # a removed rule's symbols never reach a later round's interpretation
    v = prove_termination(diamond)
    assert len(v.details["chain"]) == 3
    for entry in v.details["chain"]:
        left = entry["strict_before"] + entry["weak_before"]
        symbols = {u.symbol for r in left for t in (r.lhs, r.rhs)
                   for _, u in iter_positions(t) if isinstance(u, Fun)}
        assert set(entry["interpretation"].funcs) == symbols


def test_ternary_duplicating_system_kb_answers_within_timeout(tmp_path, capsys):
    path = tmp_path / "ternary.trs"
    path.write_text("(VAR x)(RULES f(a,b,x) -> f(x,x,x) c -> a c -> b)")
    start = time.perf_counter()
    assert run(["--criterion", "kb", "--timeout", "5", str(path)]) == 0
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().out.splitlines()[0] == "MAYBE"


def test_kb_at_dimension_6_answers_at_the_timeout(tmp_path, capsys):
    # the full build of the ternary candidates of dimension 6 takes about 20 s
    path = tmp_path / "ternary.trs"
    path.write_text("(VAR x)(RULES f(a,b,x) -> f(x,x,x) c -> a c -> b)")
    start = time.perf_counter()
    assert run(["--criterion", "kb", "--dim-max", "6", "--timeout", "2", str(path)]) == 0
    assert time.perf_counter() - start < 3.5
    assert capsys.readouterr().out.splitlines()[0] == "MAYBE"


def test_kb_search_stops_at_the_timeout(tmp_path, capsys):
    # the interpretation search alone used to run for about 15 s here
    path = tmp_path / "slow.trs"
    path.write_text("(RULES c -> b b -> f(g(c),g(a)))")
    start = time.perf_counter()
    assert run(["--criterion", "kb", "--timeout", "1", "--proof", str(path)]) == 0
    assert time.perf_counter() - start < 3.0
    verdict, proof = capsys.readouterr().out.split("\n", 1)
    assert verdict == "MAYBE"
    assert json.loads(proof)["details"]["per_criterion"]["kb"] == {"reason": "timeout"}


def test_search_past_the_deadline_answers_timeout_once():
    # every schedule and the union search used to run on after the deadline
    R = system("c -> b", "b -> f(g(c),g(a))")
    start = time.monotonic()
    v = prove_relative_termination(R, TRS(()), deadline=start + 1)
    assert time.monotonic() - start < 3.0
    assert v.kind == "MAYBE" and v.details["reason"] == "timeout"
    assert v.details["diagnostics"] == ["interpretation search passed the deadline"]


class TestSearchInterpretation:
    def test_self_loop_has_no_orientation(self):
        R = system("a -> a")
        assert _search(R, TRS(()), 1) is None
        assert _search(R, TRS(()), 2) is None

    def test_single_ground_rule(self):
        found = _search(system("a -> b"), TRS(()), 1)
        assert found is not None
        M, removed = found
        assert removed == {0}
        a = interpret_term(M, term("a"))
        b = interpret_term(M, term("b"))
        assert compare_forms(a, b) == "strict"

    def test_cp_steps_of_extended_stream(self, stream_d):
        steps = cps(critical_pairs(stream_d))
        found = _search(steps, stream_d, 2)
        assert found is not None
        M, _ = found
        strictly_oriented = 0
        for rule in list(steps.rules) + list(stream_d.rules):
            lhs = interpret_term(M, rule.lhs)
            rhs = interpret_term(M, rule.rhs)
            assert compare_forms(lhs, rhs) in ("weak", "strict")
        for rule in steps.rules:
            lhs = interpret_term(M, rule.lhs)
            rhs = interpret_term(M, rule.rhs)
            strictly_oriented += compare_forms(lhs, rhs) == "strict"
        assert strictly_oriented >= 1

    def test_orientation_closed_under_contexts(self, stream_d):
        steps = cps(critical_pairs(stream_d))
        M, _ = _search(steps, stream_d, 2)
        strict_rules = [
            r
            for r in steps.rules
            if compare_forms(interpret_term(M, r.lhs), interpret_term(M, r.rhs))
            == "strict"
        ]
        assert strict_rules
        contexts = [term("inc(tl(x))"), term(":(s(x),nat)"), term("d(x)")]
        for rule in strict_rules:
            for ctx in contexts:
                big_l = replace_at(ctx, _hole(ctx), rule.lhs)
                big_r = replace_at(ctx, _hole(ctx), rule.rhs)
                cmp = compare_forms(interpret_term(M, big_l), interpret_term(M, big_r))
                assert cmp == "strict"


    def test_orientation_stable_under_substitution(self):
        R = system("f(x) -> g(x)")
        M, removed = _search(R, TRS(()), 1)
        assert removed == {0}
        rule = R.rules[0]
        for image in (term("f(x)"), term("g(g(x))"), term("f(g(x))")):
            sigma = {"x": image}
            lhs = interpret_term(M, apply_subst(sigma, rule.lhs))
            rhs = interpret_term(M, apply_subst(sigma, rule.rhs))
            assert compare_forms(lhs, rhs) == "strict"


def _hole(ctx):
    """Position of the variable x acting as the hole of a one-hole context."""
    from ddrt.terms import iter_positions, Var

    for pos, sub in iter_positions(ctx):
        if isinstance(sub, Var) and sub.name == "x":
            return pos
    raise AssertionError("context has no hole")


class TestHasLoopingRule:
    def test_direct_loop(self):
        assert has_looping_rule(list(system("a -> f(a)").rules))

    def test_embedded_instance(self, stream):
        # nat -> :(0, inc(nat)) embeds its own lhs
        assert has_looping_rule([stream.rules[0]])

    def test_no_loop(self, diamond):
        assert not has_looping_rule(list(diamond.rules))


def _loops_by_scan(r: Rule) -> bool:
    """The rhs holds an instance of the lhs at some position, the root included."""
    return any(isinstance(s, Fun) and match(r.lhs, s) is not None
               for _, s in iter_positions(r.rhs))


def _random_rule(rng: random.Random) -> Rule:
    """A rule over f/2, g/1 and a whose rhs, half of the time, has an
    instance of the lhs plugged in at a random position."""
    sig = [("f", 2), ("g", 1), ("a", 0)]
    lhs = make_random_term(rng, sig, ["x", "y"], 2)
    while not isinstance(lhs, Fun):
        lhs = make_random_term(rng, sig, ["x", "y"], 2)
    xs = sorted(variables(lhs))
    rhs = make_random_term(rng, sig, xs, 2)
    if rng.random() < 0.5:
        sigma = {x: make_random_term(rng, sig, xs, 1) for x in xs}
        pos = rng.choice([p for p, _ in iter_positions(rhs)])
        rhs = replace_at(rhs, pos, apply_subst(sigma, lhs))
    return Rule(0, lhs, rhs)


def test_looping_rule_agrees_with_the_position_scan():
    rules = [r for path in sorted(DATA_DIR.glob("*.trs")) for r in parse_trs(path.read_text())]
    rng = random.Random(12)
    rules += [_random_rule(rng) for _ in range(300)]
    looping = [has_looping_rule([r]) for r in rules]
    assert looping == [_loops_by_scan(r) for r in rules]
    assert 50 < sum(looping) < len(rules) - 50


class TestProveRelativeTermination:
    def test_empty_strict_is_immediate(self, stream):
        v = prove_relative_termination(TRS(()), stream)
        assert v.is_yes and v.details["chain"] == []

    def test_extended_stream_cp_steps(self, stream_d):
        steps = cps(critical_pairs(stream_d))
        v = prove_relative_termination(steps, stream_d, dim_max=2)
        assert v.is_yes
        replay_relative(steps, stream_d, v.details)

    def test_union_termination_after_removal_stalls(self):
        # rule removal stalls before its first round; termination of the
        # union of both sides is shown instead
        strict, weak = system("h(b,a) -> a"), system("f(a) -> f(g(h(b,a)))")
        v = prove_relative_termination(strict, weak, budget=20000)
        assert v.is_yes
        assert v.details["chain"] == []
        assert len(v.details["union_termination"]) == 2
        replay_relative(strict, weak, v.details)

    def test_toggle_cp_steps_unprovable(self, toggle):
        # f(a) and f(b) rewrite to each other, so no proof can exist
        v = prove_relative_termination(cps(critical_pairs(toggle)), toggle)
        assert v.kind == "MAYBE"

    def test_looping_strict_rule_fails_fast(self):
        v = prove_relative_termination(system("a -> f(a)"), TRS(()))
        assert v.kind == "MAYBE"


class TestReplayRounds:
    """The oracle's replay of a rule-removal chain rejects a round that
    leaves a strictly oriented rule in place."""

    R = system("a -> b", "c -> d")
    # a and c count 1, b and d count 0: both rules are oriented strictly
    M = MatrixInterpretation(1, {s: ((), (int(s in "ac"),)) for s in "abcd"})

    def _round(self, removed):
        return [{"interpretation": self.M, "removed": removed,
                 "strict_before": list(self.R.rules), "weak_before": []}]

    def test_a_round_removing_every_strict_rule_replays(self):
        assert replay_rounds(self._round(list(self.R.rules)), self.R.rules, ()) == ([], [])

    def test_a_round_leaving_out_a_strict_rule_is_rejected(self):
        with pytest.raises(AssertionError, match="oriented strictly"):
            replay_rounds(self._round([self.R.rules[0]]), self.R.rules, ())

    def test_a_round_out_of_order_is_rejected(self):
        with pytest.raises(AssertionError, match="oriented strictly"):
            replay_rounds(self._round(list(self.R.rules)[::-1]), self.R.rules, ())


class TestProveTermination:
    def test_diamond(self, diamond):
        v = prove_termination(diamond)
        assert v.is_yes

    def test_growing_rule(self, nested_g):
        assert prove_termination(nested_g).kind == "MAYBE"

    def test_is_relative_termination_against_the_empty_system(self):
        kinds = set()
        for path in sorted(DATA_DIR.glob("*.trs")):
            R = parse_trs(path.read_text())
            v = prove_termination(R)
            w = prove_relative_termination(R, TRS(()))
            assert (v.criterion, w.criterion) == ("termination", "relative-termination")
            assert (v.kind, v.details) == (w.kind, w.details), path.name
            kinds.add(v.kind)
        assert kinds == {"YES", "MAYBE"}


class TestExternalProver:
    def test_empty_system_needs_no_tool(self):
        assert external_termination_check(TRS(()), "/nonexistent") == "yes"

    def test_unset_command(self, diamond):
        assert external_termination_check(diamond, None) == "unknown"

    def test_spawn_failure_degrades(self, diamond):
        assert external_termination_check(diamond, "/nonexistent-tool") == "unknown"

    @staticmethod
    def _tool(path, body: str) -> str:
        path.write_text(f"#!/bin/sh\n{body}\n")
        path.chmod(0o755)
        return str(path)

    def test_problem_file_is_removed(self, diamond, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        answers = self._tool(tmp_path / "answers.sh", "echo YES")
        assert external_termination_check(diamond, answers) == "yes"
        sleeps = self._tool(tmp_path / "sleeps.sh", "exec sleep 30")
        start = time.monotonic()
        assert external_termination_check(diamond, sleeps, start + 0.5) == "unknown"
        assert time.monotonic() - start < 5
        assert list(scratch.iterdir()) == []

    def test_asked_about_the_rules_left_after_removal(self, tmp_path):
        # a round removes c -> a; nothing orients the other two rules strictly
        seen = tmp_path / "seen.trs"
        tool = self._tool(tmp_path / "saves.sh", f"cp \"$1\" '{seen}'\necho YES")
        v = prove_termination(system("c -> a", "f(a) -> f(b)", "f(b) -> f(a)"),
                              external_command=tool)
        assert v.is_yes and v.details["union_termination"] == "external"
        assert [str(r) for r in v.details["chain"][0]["removed"]] == ["c -> a"]
        assert [str(r) for r in parse_trs(seen.read_text())] == ["f(a) -> f(b)", "f(b) -> f(a)"]

    def test_not_started_after_the_deadline(self, diamond, tmp_path):
        mark = tmp_path / "called"
        tool = self._tool(tmp_path / "tool.sh", f"touch '{mark}'\necho YES")
        assert external_termination_check(diamond, tool, time.monotonic() - 1) == "unknown"
        assert not mark.exists()

    @pytest.mark.parametrize("answer,expected", [("YES", "yes"), ("NO", "no"), ("MAYBE", "unknown")])
    def test_tool_answers(self, diamond, answer, expected):
        with tempfile.NamedTemporaryFile("w", suffix=".sh", delete=False) as fh:
            fh.write(f"#!/bin/sh\necho {answer}\n")
            path = fh.name
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        try:
            assert external_termination_check(diamond, path) == expected
        finally:
            os.unlink(path)
