"""Tests for bounded joinability and minimal k-join instances."""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import combinations

import pytest

from ddrt import Config, joinability, prove, rewriting, trs
from ddrt.critical_pairs import critical_pairs
from ddrt.errors import ResourceLimitError, Timeout
from ddrt.joinability import join_instances
from ddrt.prover import Analysis
from ddrt.rewriting import TRS, one_step_reducts
from ddrt.terms import Fun, Var, variables
from ddrt.tpdb import parse_trs
from conftest import DATA_DIR, system, term
from helpers import embedding_leq, make_random_term, replay_join


class TestEmbedding:
    def test_subsequence(self):
        assert embedding_leq((0, 3, 2), (0, 3, 2, 0))

    def test_empty_embeds_everywhere(self):
        assert embedding_leq((), (5, 1))
        assert embedding_leq((), ())

    def test_order_matters(self):
        assert not embedding_leq((2, 0), (0, 2))

    def test_reflexive(self):
        assert embedding_leq((1, 2, 3), (1, 2, 3))


class TestJoinableWithin:
    def test_stream_critical_pair(self, stream):
        left = term("inc(tl(:(0,inc(nat))))")
        right = term("tl(inc(nat))")
        inst = join_instances(stream, left, right, 3)[0]
        assert inst.left_seq == (2,)
        assert inst.right_seq == (0, 3, 2)
        assert inst.meet == term("inc(inc(nat))")
        replay_join(stream, left, right, inst)

    def test_identical_terms(self, stream):
        inst = join_instances(stream, term("s(0)"), term("s(0)"), 0)[0]
        assert (inst.left_seq, inst.right_seq) == ((), ())

    def test_distinct_normal_forms(self):
        R = system("a -> b", "c -> d")
        assert join_instances(R, term("b"), term("d"), 4) == []

    def test_budget_is_distinct_from_absence(self, stream):
        with pytest.raises(ResourceLimitError):
            join_instances(stream, term("nat"), term("s(0)"), 6, budget=5)


class TestJoinInstances:
    def test_stream_minimal_set(self, stream):
        left = term("inc(tl(:(0,inc(nat))))")
        right = term("tl(inc(nat))")
        minimal = join_instances(stream, left, right, 4)
        assert {(inst.left_seq, inst.right_seq) for inst in minimal} == {((2,), (0, 3, 2))}

    def test_trivial_pair(self, stream):
        t = term("s(s(0))")
        minimal = join_instances(stream, t, t, 3)
        assert {(inst.left_seq, inst.right_seq) for inst in minimal} == {((), ())}

    def test_pairwise_minimality(self, stream, toggle, diamond):
        for R, s, t in (
            (stream, term("inc(tl(:(0,inc(nat))))"), term("tl(inc(nat))")),
            (toggle, term("f(a)"), term("f(b)")),
            (diamond, term("b"), term("c")),
        ):
            minimal = join_instances(R, s, t, 3)
            for one, other in combinations(minimal, 2):
                dominated = embedding_leq(one.left_seq, other.left_seq) and embedding_leq(
                    one.right_seq, other.right_seq
                )
                dominates = embedding_leq(other.left_seq, one.left_seq) and embedding_leq(
                    other.right_seq, one.right_seq
                )
                assert not dominated and not dominates

    def test_monotone_in_k(self, stream, diamond):
        for R, s, t in (
            (stream, term("inc(tl(:(0,inc(nat))))"), term("tl(inc(nat))")),
            (diamond, term("b"), term("c")),
        ):
            for k in range(3):
                small = join_instances(R, s, t, k)
                big = join_instances(R, s, t, k + 1)
                for inst in small:
                    assert any(
                        embedding_leq(o.left_seq, inst.left_seq)
                        and embedding_leq(o.right_seq, inst.right_seq)
                        for o in big
                    )

    def test_replay_traces(self, diamond, toggle):
        for R, s, t in (
            (diamond, term("b"), term("c")),
            (toggle, term("f(a)"), term("f(b)")),
        ):
            for inst in join_instances(R, s, t, 3):
                replay_join(R, s, t, inst)


def _subsequence(a, b):
    """Independent subsequence check by recursion."""
    if not a:
        return True
    if not b:
        return False
    if a[0] == b[0]:
        return _subsequence(a[1:], b[1:])
    return _subsequence(a, b[1:])


def _paths(R, t, k):
    """All (label sequence, end term) pairs of length at most k, by DFS."""
    out = {((), t)}
    if k == 0:
        return out
    for idx, _, u in one_step_reducts(R, t):
        for seq, end in _paths(R, u, k - 1):
            out.add(((idx,) + seq, end))
    return out


def brute_minimal_joins(R, s, t, k):
    """Brute-force k-join instances with a post-hoc minimality filter."""
    left = _paths(R, s, k)
    right = _paths(R, t, k)
    candidates = {
        (ls, rs)
        for ls, m1 in left
        for rs, m2 in right
        if m1 == m2
    }
    return {
        c
        for c in candidates
        if not any(
            o != c and _subsequence(o[0], c[0]) and _subsequence(o[1], c[1])
            for o in candidates
        )
    }


def _term_pool():
    a, b = term("a"), term("b")
    fa, fb = term("f(a)", frozenset()), term("f(b)", frozenset())
    fx = term("f(x)")
    x = term("x")
    return a, b, fa, fb, fx, x


def _all_small_systems():
    """Every system of up to three rules over a fixed unary signature."""
    a, b, fa, fb, fx, x = _term_pool()
    rules = [
        (lhs, rhs) for lhs in (a, b, fa) for rhs in (a, b, fa, fb) if lhs != rhs
    ]
    rules += [(fx, rhs) for rhs in (a, b, fa, fb, x, fx) if rhs != fx]
    systems = []
    for n in (1, 2, 3):
        systems.extend(trs(list(combo)) for combo in combinations(rules, n))
    return systems


def test_join_instances_match_brute_force_small_scale():
    """J_k agrees with exhaustive path enumeration on every system with at
    most three rules over a small fixed signature, for k up to 3."""
    a, b, fa, fb, _, _ = _term_pool()
    fallback_pairs = [(fa, fb), (a, b)]
    checked = 0
    for R in _all_small_systems():
        pairs = [(cp.left, cp.right) for cp in critical_pairs(R)][:2]
        if not pairs:
            pairs = fallback_pairs[:1]
        for s, t in pairs:
            for k in (1, 2, 3):
                expected = brute_minimal_joins(R, s, t, k)
                actual = {(inst.left_seq, inst.right_seq) for inst in join_instances(R, s, t, k)}
                assert actual == expected, (
                    f"J_{k}({s},{t}) mismatch under {list(map(str, R.rules))}: "
                    f"{actual} != {expected}"
                )
                checked += 1
    assert checked > 1000


STRING_SYSTEM = (
    "a(x) -> c(x)",
    "c(x) -> x",
    "a(b(x)) -> a(c(x))",
    "a(c(x)) -> b(b(x))",
    "a(x) -> x",
    "b(b(x)) -> b(x)",
    "b(x) -> x",
)


def test_subsequence_filter_matches_quadratic_definition():
    """On a string system with many join candidates per critical pair, the
    minimal instances are exactly those of the pairwise filter, sorted by
    total length and then label sequences."""
    R = system(*STRING_SYSTEM)
    candidates = 0
    for cp in critical_pairs(R):
        left = _paths(R, cp.left, 4)
        right = _paths(R, cp.right, 4)
        candidates += sum(m1 == m2 for _, m1 in left for _, m2 in right)
        minimal = join_instances(R, cp.left, cp.right, 4)
        assert {(inst.left_seq, inst.right_seq) for inst in minimal} == brute_minimal_joins(
            R, cp.left, cp.right, 4
        )
        keys = [(len(i.left_seq) + len(i.right_seq), (i.left_seq, i.right_seq)) for i in minimal]
        assert keys == sorted(keys)
    assert candidates > 300


def _described(instances):
    """Join instances as plain data: sequences, meet and traces as strings."""
    return [
        (i.left_seq, i.right_seq, str(i.meet),
         [(p, str(u)) for p, u in i.left_trace], [(p, str(u)) for p, u in i.right_trace])
        for i in instances
    ]


def _joins_or_limit(R, s, t, k, budget):
    try:
        return _described(join_instances(R, s, t, k, budget))
    except ResourceLimitError as e:
        return str(e)


def _assert_shared_memo_changes_nothing(R, k, budget=2_000):
    """The memo of one-step reducts of R, warmed by the searches of all
    critical pairs before it, gives each pair what a search over a fresh copy
    of R gives, budget overruns included."""
    for cp in critical_pairs(R):
        shared = _joins_or_limit(R, cp.left, cp.right, k, budget)
        assert shared == _joins_or_limit(TRS(R.rules), cp.left, cp.right, k, budget), (
            f"{cp} under {list(map(str, R.rules))}"
        )


def _random_string_system(rng):
    """A string system over unary a, b, c: 3 to 7 rules, words of length 1 or 2
    on the left and 0 to 2 on the right."""

    def word(n):
        t = Var("x")
        for _ in range(n):
            t = Fun(rng.choice("abc"), (t,))
        return t

    return trs([(word(rng.randint(1, 2)), word(rng.randint(0, 2)))
                for _ in range(rng.randint(3, 7))])


def _random_term_system(rng):
    """A system of 1 to 4 rules over f/2, g/1, a and b."""
    sig = [("f", 2), ("g", 1), ("a", 0), ("b", 0)]
    rules = []
    n = rng.randint(1, 4)
    while len(rules) < n:
        lhs = make_random_term(rng, sig, ["x", "y"], rng.randint(1, 2))
        if isinstance(lhs, Fun):
            rhs = make_random_term(rng, sig, sorted(variables(lhs)), rng.randint(0, 2))
            rules.append((lhs, rhs))
    return trs(rules)


def test_shared_reducts_change_no_join_on_data_files():
    for path in sorted(DATA_DIR.glob("*.trs")):
        _assert_shared_memo_changes_nothing(parse_trs(path.read_text()), 4)


@pytest.mark.parametrize("draw", [_random_string_system, _random_term_system])
def test_shared_reducts_change_no_join_on_random_systems(draw):
    rng = random.Random(1009)
    for _ in range(200):
        _assert_shared_memo_changes_nothing(draw(rng), 3)


def test_analysis_expands_each_term_once(monkeypatch):
    expanded = Counter()
    step = rewriting.one_step_reducts
    monkeypatch.setattr(
        rewriting, "one_step_reducts", lambda R, t: expanded.update([t]) or step(R, t)
    )
    systems = [parse_trs(path.read_text()) for path in sorted(DATA_DIR.glob("*.trs"))]
    for R in systems + [system(*STRING_SYSTEM)]:
        expanded.clear()
        try:
            list(Analysis(R, Config(node_budget=2_000)).instances())
        except ResourceLimitError:
            pass
        assert max(expanded.values(), default=1) == 1, list(map(str, R.rules))
    assert expanded


def test_prove_expands_each_term_once(monkeypatch):
    """Every criterion of auto mode reads the one memo of its system: nc's
    closures, kb's normalizations and the join search expand no term twice."""
    expanded = Counter()
    step = rewriting.one_step_reducts
    monkeypatch.setattr(
        rewriting, "one_step_reducts", lambda R, t: expanded.update([t]) or step(R, t)
    )
    systems = [parse_trs(path.read_text()) for path in sorted(DATA_DIR.glob("*.trs"))]
    for R in systems + [system(*STRING_SYSTEM)]:
        expanded.clear()
        prove(R, Config())
        assert max(expanded.values(), default=1) == 1, list(map(str, R.rules))
    assert expanded


# 623 states from p(a,a,a,a) at k=4
WIDE = ("h(x) -> p(a,a,a,a)", "h(x) -> p(b,b,b,b)", "a -> b", "b -> a", "a -> c", "c -> b")


def test_join_search_stops_at_the_deadline():
    R = system(*WIDE)
    s, t = term("p(a,a,a,a)"), term("p(b,b,b,b)")
    assert join_instances(R, s, t, 4, deadline=time.monotonic() + 60)
    with pytest.raises(ResourceLimitError, match="joinability search passed the deadline"):
        join_instances(R, s, t, 4, deadline=time.monotonic())


def test_join_product_stops_at_the_deadline(monkeypatch):
    # 623 states a side, so the search of the reach sets reads the clock
    # itself; here they are given, and the 1286 pairs at the meets remain
    R = system(*WIDE)
    s, t = term("p(a,a,a,a)"), term("p(b,b,b,b)")
    reached = {u: joinability._label_reachable(R, u, 4, 10_000, None) for u in (s, t)}
    monkeypatch.setattr(joinability, "_label_reachable", lambda R, u, *_: reached[u])
    assert len(joinability._join_candidates(R, s, t, 4, 10_000, None)) == 189
    with pytest.raises(Timeout, match="joinability search passed the deadline"):
        joinability._join_candidates(R, s, t, 4, 10_000, time.monotonic() - 1)


def test_minimal_key_filter_stops_at_the_deadline():
    keys = [((i,), (j,)) for i in range(16) for j in range(16)]
    assert joinability._minimal_keys(keys, None) == keys
    with pytest.raises(Timeout, match="joinability search passed the deadline"):
        joinability._minimal_keys(keys, time.monotonic() - 1)


@pytest.mark.parametrize("criterion", ["rl", "dd2"])
def test_wide_joins_at_k_8_answer_at_the_deadline(criterion):
    # millions of pairs of label sequences meet at k=8; taking their product
    # and filtering it takes several times longer than the reach sets
    start = time.monotonic()
    v = prove(system(*WIDE), Config(k=8, timeout=1, criteria=(criterion,)))
    assert time.monotonic() - start < 3
    assert v.details["per_criterion"][criterion]["reason"] == "timeout"
