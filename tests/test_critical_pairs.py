"""Tests for overlaps, critical pairs and the critical-pair-step system."""

from __future__ import annotations

import random

from ddrt.critical_pairs import cps, critical_pairs, overlaps
from ddrt.rewriting import Rule, one_step_reducts, rename_apart, trs
from ddrt.terms import Var, variables
from ddrt.tpdb import parse_trs
from conftest import DATA_DIR, system, term
from helpers import make_random_term, overlaps_by_scan


def pairs_of(R):
    return {(r.lhs, r.rhs) for r in R.rules}


class TestOverlaps:
    def test_stream_single_overlap(self, stream):
        found = overlaps(stream)
        assert len(found) == 1
        o = found[0]
        assert o.inner.index == 0
        assert o.outer.index == 4
        assert o.pos == (1, 1)
        assert o.source == term("inc(tl(nat))")

    def test_nonlinear_f_four_overlaps_three_pairs(self, nonlinear_f):
        found = overlaps(nonlinear_f)
        assert len(found) == 4
        pairs = {(cp.left, cp.right) for cp in critical_pairs(nonlinear_f)}
        assert pairs == {
            (term("f(b,a)"), term("c")),
            (term("f(a,b)"), term("c")),
            (term("f(b,b)"), term("f(b,b)")),
        }

    def test_no_overlap_single_rule(self):
        assert overlaps(system("a -> b")) == []

    def test_no_root_self_overlap(self):
        # a rule never overlaps a renamed copy of itself at the root
        assert overlaps(system("f(x) -> g(x,x)")) == []


def _described(found):
    return [
        (o.outer.index, o.pos, o.inner.index, str(o.inner),
         {x: str(t) for x, t in o.mgu.items()})
        for o in found
    ]


def _random_system(rng: random.Random):
    """A small system over f/2, g/1, a, b; lhs variables may repeat, and a
    variant of an earlier rule is sometimes appended."""
    signature = [("f", 2), ("g", 1), ("a", 0), ("b", 0)]
    pairs = []
    n_rules = rng.randint(1, 5)
    while len(pairs) < n_rules:
        lhs = make_random_term(rng, signature, ["x", "y"], rng.randint(1, 3))
        if isinstance(lhs, Var):
            continue
        rhs = make_random_term(rng, signature, sorted(variables(lhs)), rng.randint(0, 2))
        pairs.append((lhs, rhs))
        if rng.random() < 0.25:
            variant = rename_apart(Rule(0, lhs, rhs), {"x", "y"})
            pairs.append((variant.lhs, variant.rhs))
    return trs(pairs)


class TestOverlapIndex:
    """overlaps() tries only rules headed by the subterm's symbol and renames
    each inner rule once per outer rule; the result must equal the scan."""

    def test_data_files_match_scan(self):
        for path in sorted(DATA_DIR.glob("*.trs")):
            R = parse_trs(path.read_text())
            assert _described(overlaps(R)) == _described(overlaps_by_scan(R)), path.name

    def test_random_systems_match_scan(self):
        rng = random.Random(2009)
        kinds = set()
        for _ in range(200):
            R = _random_system(rng)
            assert _described(overlaps(R)) == _described(overlaps_by_scan(R)), [
                str(r) for r in R.rules
            ]
            kinds.add(R.is_left_linear())
        assert kinds == {True, False}

    def test_fresh_list_per_call(self, nonlinear_f):
        first = overlaps(nonlinear_f)
        second = overlaps(nonlinear_f)
        assert _described(first) == _described(second) and first is not second
        first.clear()
        assert _described(overlaps(nonlinear_f)) == _described(second) and len(second) == 4


class TestCriticalPairs:
    def test_stream(self, stream):
        found = critical_pairs(stream)
        assert len(found) == 1
        cp = found[0]
        assert cp.left == term("inc(tl(:(0,inc(nat))))")
        assert cp.right == term("tl(inc(nat))")
        assert not cp.trivial

    def test_nested_g(self, nested_g):
        found = critical_pairs(nested_g)
        assert [(cp.left, cp.right) for cp in found] == [
            (term("f(g(g(a)))"), term("f(h(a,a))"))
        ]

    def test_orthogonal_has_none(self, ortho):
        assert critical_pairs(ortho) == []

    def test_peak_property(self, stream, stream_d, nonlinear_f, toggle, nested_g):
        for R in (stream, stream_d, nonlinear_f, toggle, nested_g):
            for cp in critical_pairs(R):
                source = cp.origin.source
                reducts = one_step_reducts(R, source)
                assert (cp.origin.inner.index, cp.origin.pos, cp.left) in reducts
                assert (cp.origin.outer.index, (), cp.right) in reducts


class TestCps:
    def test_stream_d(self, stream_d):
        assert pairs_of(cps(critical_pairs(stream_d))) == {
            (term("inc(tl(nat))"), term("tl(inc(nat))")),
            (term("inc(tl(nat))"), term("inc(tl(:(0,inc(nat))))")),
        }

    def test_toggle_keeps_source_steps(self, toggle):
        found = pairs_of(cps(critical_pairs(toggle)))
        assert (term("f(a)"), term("f(b)")) in found
        assert (term("f(b)"), term("f(a)")) in found

    def test_orthogonal_empty(self, ortho):
        assert len(cps(critical_pairs(ortho))) == 0

    def test_fresh_dense_indices(self, stream_d):
        steps = cps(critical_pairs(stream_d))
        assert [r.index for r in steps.rules] == list(range(len(steps)))

    def test_every_step_is_a_rewrite_step(self, stream, stream_d, toggle, nonlinear_f):
        for R in (stream, stream_d, toggle, nonlinear_f):
            for rule in cps(critical_pairs(R)).rules:
                reducts = {u for _, _, u in one_step_reducts(R, rule.lhs)}
                assert rule.rhs in reducts


class TestCpsNontrivial:
    def test_omits_trivial_overlap_steps(self, nonlinear_f):
        full = pairs_of(cps(critical_pairs(nonlinear_f)))
        pruned = pairs_of(cps(critical_pairs(nonlinear_f), exclude_trivial=True))
        assert (term("f(b,b)"), term("f(b,b)")) in full
        assert (term("f(b,b)"), term("f(b,b)")) not in pruned
        assert pruned <= full

    def test_equal_when_no_trivial_pairs(self, stream_d):
        pairs = critical_pairs(stream_d)
        assert pairs_of(cps(pairs, exclude_trivial=True)) == pairs_of(cps(pairs))

    def test_empty_system(self):
        from ddrt import TRS

        assert len(cps(critical_pairs(TRS(())), exclude_trivial=True)) == 0
