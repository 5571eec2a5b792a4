"""Tests for the rewrite relation, rule classes and the multistep relation."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ddrt import TRS, trs
from ddrt.critical_pairs import cps, critical_pairs
from ddrt.errors import ResourceLimitError
from ddrt.rewriting import (
    Rule,
    classify,
    closed_reducts,
    is_normal_form,
    normalize,
    one_step_reducts,
    pumps,
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
from ddrt.tpdb import parse_trs
from conftest import DATA_DIR, system, term
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
        assert one_step_reducts(stream, term("x")) == []

    def test_exhaustive_on_peak(self, nonlinear_f):
        reducts = one_step_reducts(nonlinear_f, term("f(a,a)"))
        assert reducts == [
            (0, (), term("c")),
            (3, (1,), term("f(b,a)")),
            (3, (2,), term("f(a,b)")),
        ]

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

    def test_root_index_sorts_by_rule_index(self):
        R = TRS((Rule(1, term("f(x)"), term("b")), Rule(0, term("f(a)"), term("c"))))
        assert [r.index for r in R.by_root["f"]] == [0, 1]
        assert one_step_reducts(R, term("f(a)")) == [(0, (), term("c")), (1, (), term("b"))]

    def test_root_index_matches_scan_over_all_rules(self, nonlinear_f, stream_d):
        rng = random.Random(99)
        for R in (nonlinear_f, stream_d):
            signature = sorted(R.signature.items())
            for _ in range(50):
                t = make_random_term(rng, signature, ["x"], 3)
                scan = []
                for p, s in iter_positions(t):
                    for r in R.rules:
                        sigma = match(r.lhs, s)
                        if sigma is not None:
                            scan.append((r.index, p, replace_at(t, p, apply_subst(sigma, r.rhs))))
                # by position, then rule index; a repeated step would show as well
                assert one_step_reducts(R, t) == sorted(scan, key=lambda st: (st[1], st[0]))


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


class TestPumping:
    @pytest.mark.parametrize(
        "rule",
        [
            "g(a) -> g(g(a))",
            "nat -> :(0,inc(nat))",
            "f(x) -> g(f(x))",
            "f(c(x,y),z) -> d(f(c(y,x),f(y,z)))",
            "f(x) -> g(f(a))",  # the instance need not keep x
            "f(x,y) -> g(f(y,a))",  # f(s,t), g(f(t,a)), g(g(f(a,a))), ...
        ],
    )
    def test_pumps(self, rule):
        assert pumps(system(rule).rules[0])

    @pytest.mark.parametrize(
        "rule",
        [
            "f(x) -> f(x)",  # only the root matches; the closure is {f(x)}
            "f(x) -> f(g(x))",  # no instance of f(x) strictly inside
            "f(g(x)) -> h(f(x))",
            "a -> g(b)",
        ],
    )
    def test_does_not_pump(self, rule):
        assert not pumps(system(rule).rules[0])

    def test_fixtures(self, nested_g, stream, toggle):
        assert nested_g.pumping == {1}
        assert stream.pumping == {0}
        assert toggle.pumping == frozenset()

    def test_closure_stops_at_the_first_pumping_step(self, nested_g):
        # with the default budget the closure would build 100,000 terms
        with pytest.raises(ResourceLimitError, match="rule 1 pumps"):
            closed_reducts(nested_g, term("f(g(g(a)))"))

    def test_budget_still_bounds_a_closure_without_pumping_rules(self):
        R = system("f(x) -> f(s(x))")
        assert R.pumping == frozenset()
        with pytest.raises(ResourceLimitError, match="exceeded 10 terms"):
            closed_reducts(R, term("f(a)"), budget=10)


def _closure_outcome(closure):
    """The closed set, or None when the closure overruns or recurses too deep."""
    try:
        return closure()
    except (ResourceLimitError, RecursionError):
        return None


def _cut_agrees_with_uncut_closure(R, t, budget):
    """closed_reducts gives the same set as the closure without the pumping
    cut, or both overrun. The uncut closure is `reducts_within` with a level
    bound it never reaches: every level adds a term or ends the closure."""
    uncut = _closure_outcome(lambda: reducts_within(R, t, budget + 1, budget))
    cut = _closure_outcome(lambda: closed_reducts(R, t, budget))
    assert cut == uncut, f"{t} in {[str(r) for r in R.rules]}"
    return uncut is not None


class TestPumpingCutIsSound:
    def test_fixtures(self):
        closed = overrun = 0
        for path in sorted(DATA_DIR.glob("*.trs")):
            R = parse_trs(path.read_text())
            for cp in critical_pairs(R):
                if not cp.trivial:
                    for t in (cp.left, cp.right):
                        if _cut_agrees_with_uncut_closure(R, t, 200):
                            closed += 1
                        else:
                            overrun += 1
        assert (closed, overrun) == (16, 6)

    def test_random_systems(self):
        # nontrivial critical pair sides, as nc uses, and a random ground term;
        # budget 20 closes all but one of the sets that budget 50 closes,
        # at a fifth of the time
        rng = random.Random(2009)
        sig = [("f", 2), ("g", 1), ("a", 0), ("b", 0)]
        closed = overrun = 0
        for _ in range(2000):
            R = _random_trs(rng)
            starts = [make_random_term(rng, sig, [], rng.randint(0, 2))]
            for cp in critical_pairs(R):
                if not cp.trivial:
                    starts += [cp.left, cp.right]
            for t in starts:
                if _cut_agrees_with_uncut_closure(R, t, 20):
                    closed += 1
                else:
                    overrun += 1
        assert closed > 3000 and overrun > 500


_VISITED = """
import ddrt.rewriting as rw
from ddrt.errors import ResourceLimitError
from ddrt.tpdb import parse_trs

R = parse_trs("(VAR x)(RULES f(x) -> f(s(x)) g(x) -> g(s(x)) k(x) -> k(s(x)))")
start = parse_trs("(RULES h(f(a),g(a),k(a)) -> a)").rules[0].lhs
visited = []
step = rw.one_step_reducts
rw.one_step_reducts = lambda R, t: visited.append(str(t)) or step(R, t)
try:
    rw.closed_reducts(R, start, 30)
except ResourceLimitError:
    print(" ".join(visited))
"""


def test_closure_order_does_not_depend_on_the_hash_seed():
    # three growing arguments, no pumping rule: the closure overruns its
    # budget in the middle of a level, after the terms its order picks
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.append(subprocess.run(
            [sys.executable, "-c", _VISITED],
            capture_output=True, text=True, env=env, check=True,
        ).stdout)
    assert outputs[0].split()[:2] == ["h(f(a),g(a),k(a))", "h(f(s(a)),g(a),k(a))"]
    assert outputs[0] == outputs[1]


# 300 steps from f(s^300(0)) to f(0), which the deadline stops at the first
COUNTDOWN = system("f(s(x)) -> f(x)")
COUNTDOWN_START = term("f(" + "s(" * 300 + "0" + ")" * 301)


class TestNormalize:
    def test_diamond(self, diamond):
        nf, steps = normalize(diamond, term("a"))
        assert nf == term("d")
        assert len(steps) == 2
        assert is_normal_form(diamond, nf)

    def test_stops_at_the_deadline(self):
        nf, steps = normalize(COUNTDOWN, COUNTDOWN_START, deadline=time.monotonic() + 60)
        assert nf == term("f(0)") and len(steps) == 300
        start = time.monotonic()
        with pytest.raises(ResourceLimitError, match="normalization passed the deadline"):
            normalize(COUNTDOWN, COUNTDOWN_START, deadline=start)
        assert time.monotonic() - start < 2

    def test_normal_form_check(self, stream):
        assert is_normal_form(stream, term("s(0)"))
        assert not is_normal_form(stream, term("hd(:(0,x))"))


def test_closure_stops_at_the_deadline():
    assert len(closed_reducts(COUNTDOWN, COUNTDOWN_START, deadline=time.monotonic() + 60)) == 301
    start = time.monotonic()
    with pytest.raises(ResourceLimitError, match="reduct closure passed the deadline"):
        closed_reducts(COUNTDOWN, COUNTDOWN_START, deadline=start)
    assert time.monotonic() - start < 2


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
    steps = cps(critical_pairs(R))
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


def test_normalization_that_fits_its_budget_exactly():
    R = system("a -> b", "b -> c")
    nf, steps = normalize(R, term("a"), budget=2)
    assert nf == term("c") and len(steps) == 2
    with pytest.raises(ResourceLimitError, match="^normalization exceeded 1 steps$"):
        normalize(R, term("a"), budget=1)
