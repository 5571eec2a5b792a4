"""Tests for the rewrite relation, rule classes and the multistep relation."""

from __future__ import annotations

import random

import pytest

from ddrt import trs
from ddrt.critical_pairs import cps
from ddrt.errors import ResourceLimitError
from ddrt.rewriting import (
    Rule,
    classify,
    closed_reducts,
    is_normal_form,
    normalize,
    one_step_reducts,
    rename_apart,
    split_duplicating,
)
from ddrt.terms import (
    apply_subst,
    iter_positions,
    match,
    replace_at,
    variables,
)
from conftest import system, term
from helpers import make_random_term, multistep_reducts, reducts_within, term_size


class TestClassify:
    def test_duplicating(self):
        rule = Rule(0, term("f(x)"), term("g(x,x)"))
        rc = classify(rule)
        assert rc.left_linear and not rc.right_linear and rc.duplicating

    def test_ground(self):
        rc = classify(Rule(0, term("a"), term("b")))
        assert rc.left_linear and rc.right_linear and not rc.duplicating

    def test_nonleftlinear_collapsing(self):
        rc = classify(Rule(0, term("f(x,x)"), term("a")))
        assert not rc.left_linear and rc.right_linear and not rc.duplicating

    def test_rule_rejects_variable_lhs(self):
        with pytest.raises(ValueError):
            Rule(0, term("x"), term("a"))

    def test_rule_rejects_extra_rhs_variables(self):
        with pytest.raises(ValueError):
            Rule(0, term("f(x)"), term("g(x,y)"))


class TestSplitDuplicating:
    def test_stream_d(self, stream_d):
        dup, nondup = split_duplicating(stream_d)
        assert [str(r) for r in dup.rules] == ["d(:(x,y)) -> :(x,:(x,d(y)))"]
        assert len(nondup) == 5

    def test_nested_g(self, nested_g):
        dup, nondup = split_duplicating(nested_g)
        assert [str(r) for r in dup.rules] == ["f(g(x)) -> f(h(x,x))"]
        assert len(nondup) == 2

    def test_ground_system(self, toggle):
        dup, nondup = split_duplicating(toggle)
        assert len(dup) == 0 and len(nondup) == 4


class TestOneStepReducts:
    def test_stream_inner_step(self, stream):
        reducts = one_step_reducts(stream, term("tl(inc(nat))"))
        assert (0, (1, 1), term("tl(inc(:(0,inc(nat))))")) in reducts

    def test_variable_is_normal(self, stream):
        assert one_step_reducts(stream, term("x")) == set()

    def test_exhaustive_on_peak(self, nonlinear_f):
        reducts = one_step_reducts(nonlinear_f, term("f(a,a)"))
        assert reducts == {
            (0, (), term("c")),
            (3, (1,), term("f(b,a)")),
            (3, (2,), term("f(a,b)")),
        }

    def test_stable_under_rule_renaming(self, stream):
        renamed = trs(
            [
                (rule.lhs, rule.rhs)
                for rule in (
                    rename_apart(r, {"x", "y"}) for r in stream.rules
                )
            ]
        )
        t = term("inc(tl(:(0,inc(nat))))")
        assert one_step_reducts(stream, t) == one_step_reducts(renamed, t)

    def test_root_index_keeps_file_order(self, stream_d):
        assert {f: [r.index for r in rs] for f, rs in stream_d.by_root.items()} == {
            "nat": [0], "hd": [1], "tl": [2], "inc": [3, 4], "d": [5],
        }

    def test_root_index_matches_scan_over_all_rules(self, nonlinear_f, stream_d):
        rng = random.Random(99)
        for R in (nonlinear_f, stream_d):
            signature = sorted(R.signature.items())
            for _ in range(50):
                t = make_random_term(rng, signature, ["x"], 3)
                scan = set()
                for p, s in iter_positions(t):
                    for r in R.rules:
                        sigma = match(r.lhs, s)
                        if sigma is not None:
                            scan.add((r.index, p, replace_at(t, p, apply_subst(sigma, r.rhs))))
                assert one_step_reducts(R, t) == scan


class TestReductsWithin:
    def test_zero_steps(self, stream):
        t = term("hd(nat)")
        assert reducts_within(stream, t, 0) == {t}

    def test_toggle_two_steps(self, toggle):
        reachable = reducts_within(toggle, term("f(a)"), 2)
        assert {term("f(a)"), term("f(b)"), term("c"), term("d")} <= reachable

    def test_stream_one_step(self, stream):
        reachable = reducts_within(stream, term("inc(tl(:(0,inc(nat))))"), 1)
        assert term("inc(inc(nat))") in reachable

    def test_monotone_and_fixpoint(self, toggle):
        t = term("f(a)")
        sets = [reducts_within(toggle, t, k) for k in range(5)]
        for small, big in zip(sets, sets[1:]):
            assert small <= big
        assert sets[3] == sets[4]

    def test_budget_raises(self, stream):
        with pytest.raises(ResourceLimitError):
            reducts_within(stream, term("nat"), 50, budget=10)

    def test_closed_reducts_is_the_bounded_fixpoint(self, toggle, diamond):
        for R, t in ((toggle, term("f(a)")), (diamond, term("a"))):
            assert closed_reducts(R, t) == reducts_within(R, t, 10)

    def test_closed_reducts_budget_raises(self, stream):
        with pytest.raises(ResourceLimitError):
            closed_reducts(stream, term("nat"), budget=10)


class TestNormalize:
    def test_diamond(self, diamond):
        nf, steps = normalize(diamond, term("a"))
        assert nf == term("d")
        assert len(steps) == 2
        assert is_normal_form(diamond, nf)

    def test_normal_form_check(self, stream):
        assert is_normal_form(stream, term("s(0)"))
        assert not is_normal_form(stream, term("hd(:(0,x))"))


class TestMultistep:
    def test_variable(self, ortho):
        assert multistep_reducts(ortho, term("x")) == {term("x")}

    def test_duplication_synchronizes_copies(self, ortho):
        reducts = multistep_reducts(ortho, term("f(a)"))
        assert reducts == {
            term("f(a)"),
            term("f(b)"),
            term("g(a,a)"),
            term("g(b,b)"),
        }
        assert term("g(a,b)") not in reducts

    def test_single_rule(self):
        R = system("a -> b")
        assert multistep_reducts(R, term("a")) == {term("a"), term("b")}


def _random_linear_lhs(rng, sig, variables_):
    """A left-linear lhs: random term whose variables occur at most once."""
    while True:
        t = make_random_term(rng, sig, variables_, rng.randint(1, 2))
        from ddrt.terms import variable_occurrences, Fun

        if not isinstance(t, Fun):
            continue
        occs = variable_occurrences(t)
        if len(occs) == len(set(occs)):
            return t


def _random_trs(rng, max_rules=4, left_linear=False):
    sig = [("f", 2), ("g", 1), ("a", 0), ("b", 0)]
    pairs = []
    for _ in range(rng.randint(1, max_rules)):
        if left_linear:
            lhs = _random_linear_lhs(rng, sig, ["x", "y"])
        else:
            lhs = make_random_term(rng, sig, ["x", "y"], rng.randint(1, 2))
        from ddrt.terms import Fun

        if not isinstance(lhs, Fun):
            continue
        for _ in range(20):
            rhs = make_random_term(rng, sig, sorted(variables(lhs)), rng.randint(0, 2))
            if variables(rhs) <= variables(lhs):
                pairs.append((lhs, rhs))
                break
    if not pairs:
        pairs = [(term("a"), term("b"))]
    return trs(pairs)


def _covers_by_rewriting(R, t, targets, max_steps, budget=20_000):
    """Breadth-first search that stops once every target has been reached."""
    missing = set(targets)
    missing.discard(t)
    seen = {t}
    frontier = [t]
    for _ in range(max_steps):
        if not missing:
            return True
        nxt = []
        for s in frontier:
            for _, _, u in one_step_reducts(R, s):
                if u not in seen:
                    seen.add(u)
                    missing.discard(u)
                    nxt.append(u)
                    if len(seen) > budget:
                        raise ResourceLimitError("sandwich search budget")
        if not nxt:
            break
        frontier = nxt
    return not missing


def test_multistep_sandwich_random():
    """One-step is contained in multistep, multistep in many-step, on 200
    random small systems."""
    rng = random.Random(4242)
    sig = [("f", 2), ("g", 1), ("a", 0), ("b", 0)]
    checked = skipped = 0
    while checked < 200:
        R = _random_trs(rng)
        t = make_random_term(rng, sig, [], rng.randint(1, 2))
        max_rhs = max(term_size(r.rhs) for r in R.rules)
        try:
            develop = multistep_reducts(R, t, budget=20_000)
            covered = _covers_by_rewriting(R, t, develop, term_size(t) * max_rhs)
        except ResourceLimitError:
            skipped += 1
            assert skipped < 150, "too many samples exceeded the budget"
            continue
        checked += 1
        for _, _, u in one_step_reducts(R, t):
            assert u in develop, f"one-step reduct {u} missing from multistep of {t}"
        assert covered, f"some multistep reduct of {t} is not many-step reachable"


def _check_development_case(R, rule, sigma, t):
    """The two alternatives of the development decomposition for lσ -> t."""
    from ddrt.terms import match

    lsig = apply_subst(sigma, rule.lhs)
    # (a) t is an instance of lhs or rhs via a developed substitution
    for shape in (rule.lhs, rule.rhs):
        tau = match(shape, t)
        if tau is None:
            continue
        full = {x: tau.get(x, sigma.get(x)) for x in variables(rule.lhs)}
        if all(
            full[x] is not None
            and full[x] in multistep_reducts(R, sigma[x])
            for x in variables(rule.lhs)
        ):
            return True
    # (b) a critical pair step from lσ reaches t by one more development,
    # and the root step lσ -> rσ is itself a critical pair step
    steps = cps(R)
    rsig = apply_subst(sigma, rule.rhs)
    root_cps = {u for _, _, u in one_step_reducts(steps, lsig)}
    if rsig not in root_cps:
        return False
    return any(t in multistep_reducts(R, u) for u in root_cps)


def test_development_decomposition_left_linear_random():
    """For left-linear rules, every development of an lhs instance factors
    through the rule or through a critical pair step (100 random rules)."""
    rng = random.Random(99)
    checked = 0
    while checked < 100:
        R = _random_trs(rng, max_rules=2, left_linear=True)
        rule = rng.choice(list(R.rules))
        if not classify(rule).left_linear:
            continue
        sigma = {
            x: make_random_term(rng, [("g", 1), ("a", 0), ("b", 0)], [], 1)
            for x in variables(rule.lhs)
        }
        lsig = apply_subst(sigma, rule.lhs)
        if term_size(lsig) > 9:
            continue
        try:
            develop = multistep_reducts(R, lsig, budget=20_000)
        except ResourceLimitError:
            continue
        checked += 1
        for t in develop:
            assert _check_development_case(R, rule, sigma, t), (
                f"development {lsig} -> {t} admits neither decomposition in {R.rules}"
            )


def test_development_decomposition_fails_without_left_linearity():
    """The known counterexample: a non-left-linear rule where a development
    admits neither decomposition."""
    R = system("f(x,x) -> a", "g(x) -> x", "a -> b")
    rule = R.rules[0]
    sigma = {"x": term("g(a)")}
    lsig = apply_subst(sigma, rule.lhs)
    t = term("f(a,g(b))")
    assert t in multistep_reducts(R, lsig)
    assert not _check_development_case(R, rule, sigma, t)
