"""Tests for terms: positions, subterms, matching and unification."""

from __future__ import annotations

import random
import time
from itertools import product

import pytest

from ddrt.rewriting import Rule, trs
from ddrt.terms import (
    EPSILON,
    Fun,
    Var,
    apply_subst,
    iter_positions,
    match,
    replace_at,
    subterms,
    unify,
    variable_occurrences,
    variables,
)
from conftest import term
from helpers import make_random_term, positions, subterm_at, term_size


class TestPositions:
    def test_nested_unary(self):
        fun_pos, var_pos = positions(term("inc(tl(nat))"))
        assert fun_pos == {(), (1,), (1, 1)}
        assert var_pos == set()

    def test_variable_positions(self):
        fun_pos, var_pos = positions(term("f(x,g(y))"))
        assert fun_pos == {(), (2,)}
        assert var_pos == {(1,), (2, 1)}

    def test_single_variable(self):
        fun_pos, var_pos = positions(term("x"))
        assert fun_pos == set()
        assert var_pos == {EPSILON}

    def test_subterm_at_root(self):
        t = term("inc(tl(nat))")
        assert subterm_at(t, EPSILON) == t

    def test_subterm_at_nested(self):
        assert subterm_at(term("inc(tl(nat))"), (1, 1)) == term("nat")

    def test_replace_at(self):
        t = term("inc(tl(nat))")
        u = term(":(0,inc(nat))")
        assert replace_at(t, (1, 1), u) == term("inc(tl(:(0,inc(nat))))")

    def test_replace_subterm_roundtrip(self):
        rng = random.Random(11)
        sig = [("f", 2), ("g", 1), ("a", 0), ("b", 0)]
        for _ in range(100):
            t = make_random_term(rng, sig, ["x", "y"], 3)
            fun_pos, var_pos = positions(t)
            for p in fun_pos | var_pos:
                assert replace_at(t, p, subterm_at(t, p)) == t

    def test_term_size(self):
        assert term_size(term("f(x,g(a))")) == 4


class TestMatch:
    def test_simple(self):
        sigma = match(term("hd(:(x,y))"), term("hd(:(0,inc(nat)))"))
        assert sigma == {"x": term("0"), "y": term("inc(nat)")}

    def test_nonlinear_consistency(self):
        assert match(term("f(x,x)"), term("f(a,a)")) == {"x": term("a")}
        assert match(term("f(x,x)"), term("f(a,b)")) is None

    def test_no_match(self):
        assert match(term("f(a)", frozenset()), term("g(a)", frozenset())) is None

    def test_match_apply_inverse(self):
        rng = random.Random(12)
        sig = [("f", 2), ("g", 1), ("a", 0)]
        for _ in range(200):
            pattern = make_random_term(rng, sig, ["x", "y"], 2)
            sigma = {
                x: make_random_term(rng, sig, [], 2) for x in variables(pattern)
            }
            subject = apply_subst(sigma, pattern)
            found = match(pattern, subject)
            assert found is not None
            assert apply_subst(found, pattern) == subject


class TestUnify:
    def test_identical_constants(self):
        assert unify(term("nat"), term("nat")) == {}

    def test_swap(self):
        mu = unify(term("f(x,a)"), term("f(b,y)"))
        assert mu == {"x": term("b"), "y": term("a")}

    def test_occurs_check(self):
        assert unify(term("x"), term("f(x)")) is None

    def test_clash(self):
        assert unify(term("f(a,x)"), term("f(b,y)")) is None

    def test_no_identity_bindings(self):
        assert unify(term("x"), term("x")) == {}
        assert unify(term("f(x,y)"), term("f(y,x)")) == {"y": Var("x")}

    def test_variable_with_term(self):
        mu = unify(term("x"), term("g(a)"))
        assert mu is not None
        assert apply_subst(mu, term("x")) == term("g(a)")


class TestDeepTerms:
    """The term walkers use no recursion, so a term 5000 levels deep, far
    past the interpreter's recursion limit, is walked like any other."""

    DEPTH = 5000

    def deep(self):
        t = Var("x")
        for i in range(self.DEPTH):
            t = Fun("f", (t, Var("y"))) if i == 0 else Fun("g", (t,))
        return t

    def test_variables(self):
        assert variables(self.deep()) == {"x", "y"}

    def test_variable_occurrences(self):
        assert variable_occurrences(self.deep()) == ["x", "y"]

    def test_unify_occurs_check(self):
        assert unify(Var("x"), self.deep()) is None
        assert unify(self.deep(), Var("y")) is None


class TestPositionFreeWalks:
    """`subterms` keeps no positions, whose tuples grow with the depth, so a
    walk costs time linear in the size of the term."""

    @staticmethod
    def tower(depth: int, leaf):
        t = leaf
        for _ in range(depth):
            t = Fun("g", (t,))
        return t

    def test_subterms_in_the_order_of_iter_positions(self):
        rng = random.Random(5)
        sig = [("f", 2), ("h", 3), ("g", 1), ("a", 0)]
        for _ in range(200):
            t = make_random_term(rng, sig, ["x", "y"], 4)
            assert list(subterms(t)) == [s for _, s in iter_positions(t)]

    def test_variables_of_a_tower_of_20000(self):
        t = self.tower(20000, Var("x"))
        start = time.perf_counter()
        assert variables(t) == {"x"}
        assert time.perf_counter() - start < 0.1

    def test_a_rule_with_a_tower_of_20000_builds(self):
        rhs = self.tower(20000, Fun("a"))
        start = time.perf_counter()
        rule = Rule(0, Fun("f", (Fun("a"),)), rhs)
        assert time.perf_counter() - start < 0.2
        assert trs([(rule.lhs, rule.rhs)]).signature == {"f": 1, "a": 0, "g": 1}


def _random_pair(rng: random.Random):
    sig = [("f", 2), ("g", 1), ("a", 0), ("b", 0)]
    s = make_random_term(rng, sig, ["x", "y", "z"], rng.randint(0, 3))
    t = make_random_term(rng, sig, ["x", "y", "z"], rng.randint(0, 3))
    return s, t


def _pack(terms_):
    return Fun("pack", tuple(terms_))


def test_unification_properties_random():
    """Soundness, idempotence and most-generality on 1000 random pairs."""
    rng = random.Random(2024)
    solved = 0
    for _ in range(1000):
        s, t = _random_pair(rng)
        mu = unify(s, t)
        if mu is None:
            continue
        solved += 1
        # soundness: mu actually unifies
        assert apply_subst(mu, s) == apply_subst(mu, t)
        # idempotence: applying mu twice changes nothing
        for x, image in mu.items():
            assert apply_subst(mu, image) == image
            assert image != Var(x), "identity binding"
        # most-generality: any other unifier factors through mu
        shared = sorted(variables(s) | variables(t))
        ground = {
            x: make_random_term(rng, [("g", 1), ("a", 0)], [], 2) for x in shared
        }
        delta = {
            x: apply_subst(ground, apply_subst(mu, Var(x))) for x in shared
        }
        if apply_subst(delta, s) == apply_subst(delta, t):
            packed_mu = _pack([apply_subst(mu, Var(x)) for x in shared])
            packed_delta = _pack([apply_subst(delta, Var(x)) for x in shared])
            rho = match(packed_mu, packed_delta)
            assert rho is not None, f"unifier {delta} does not factor through {mu}"
    assert solved > 100, "random generator produced too few unifiable pairs"


def test_unify_failure_means_no_ground_unifier():
    """When unify says no, exhaustive small ground instantiation agrees."""
    rng = random.Random(77)
    pool = [term("a"), term("b"), term("g(a)", frozenset())]
    checked = 0
    for _ in range(300):
        s, t = _random_pair(rng)
        if unify(s, t) is not None:
            continue
        shared = sorted(variables(s) | variables(t))
        if len(shared) > 3:
            continue
        checked += 1
        for images in product(pool, repeat=len(shared)):
            sigma = dict(zip(shared, images))
            assert apply_subst(sigma, s) != apply_subst(sigma, t)
    assert checked > 20
