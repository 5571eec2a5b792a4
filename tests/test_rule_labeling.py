"""Tests for precedence formulas, the labeling constraint and its solver."""

from __future__ import annotations

import random
import time

import pytest

from ddrt.errors import ResourceLimitError
from ddrt.rule_labeling import (
    BOTTOM,
    TOP,
    And,
    Geq,
    Gt,
    Or,
    atom_indices,
    build_phi,
    conj,
    disj,
    evaluate,
    solve_precedence,
)
from ddrt.prover import Analysis, Config, check_rule_labeling
from ddrt.tpdb import parse_trs
from conftest import DATA_DIR, system
from helpers import (
    contradictory_chain,
    eval_formula,
    eval_formula_order,
    rl_constraint,
    solve_by_enumeration,
    strict_orders,
)


class TestBuildPhi:
    def test_single_label(self):
        # one label: either the outer rule covers it or the inner exceeds it
        assert build_phi(0, 4, (2,)) == Or((Geq(4, 2), Gt(0, 2)))

    def test_three_labels(self):
        # the four disjuncts for labels (0, 3, 2) around rules 4 and 0
        expected = Or(
            (
                And((Geq(0, 0), Or((Gt(4, 3), Gt(0, 3))), Or((Gt(4, 2), Gt(0, 2))))),
                And((Gt(4, 0), And((Geq(0, 3), Or((Gt(4, 2), Gt(0, 2))))))),
                And((Gt(4, 0), Gt(4, 3), Geq(0, 2))),
                And((Gt(4, 0), Gt(4, 3), Gt(4, 2))),
            )
        )
        assert build_phi(4, 0, (0, 3, 2)) == expected

    def test_empty_sequence(self):
        assert build_phi(1, 2, ()) == TOP

    def test_atoms_reference_given_indices(self):
        f = build_phi(7, 3, (1, 2))
        assert atom_indices(f) <= {7, 3, 1, 2}


class TestBuildRl:
    def test_stream(self, stream):
        formula, instances = rl_constraint(stream, 4)
        assert formula == And((build_phi(0, 4, (2,)), build_phi(4, 0, (0, 3, 2))))
        seqs = [[(inst.left_seq, inst.right_seq) for inst in joins] for joins in instances]
        assert seqs == [[((2,), (0, 3, 2))]]

    def test_orthogonal_linear_is_top(self):
        R = system("f(x) -> g(x)", "a -> b")
        formula, instances = rl_constraint(R, 4)
        assert formula == TOP and instances == []

    def test_unjoinable_overlap_is_bottom(self, fork):
        formula, _ = rl_constraint(fork, 0)
        assert formula == BOTTOM


class TestSolvePrecedence:
    def test_stream_orders_top_rule_highest(self, stream):
        formula, _ = rl_constraint(stream, 4)
        levels = solve_precedence(formula, 5)
        assert levels is not None
        assert levels[4] > levels[0]
        assert levels[4] > levels[2]
        assert levels[4] > levels[3]
        assert eval_formula(formula, levels)

    def test_irreflexivity(self):
        assert solve_precedence(Gt(0, 0), 1) is None

    def test_top_gives_zero_map(self):
        assert solve_precedence(TOP, 3) == {0: 0, 1: 0, 2: 0}

    def test_truth_constants_are_the_empty_junctions(self):
        assert TOP == And(()) and BOTTOM == Or(())
        assert str(TOP) == "T" and str(BOTTOM) == "F"
        assert evaluate(TOP, {}) is True and evaluate(BOTTOM, {}) is False
        assert solve_precedence(BOTTOM, 2) is None

    def test_search_stops_at_the_deadline(self):
        # unsatisfiable, and about 80 s to refute without a deadline
        start = time.monotonic()
        with pytest.raises(ResourceLimitError, match="precedence search passed the deadline"):
            solve_precedence(contradictory_chain(9), 9, start + 0.5)
        assert time.monotonic() - start < 2

    def test_deadline_changes_no_answer(self, stream):
        formula, _ = rl_constraint(stream, 4)
        assert solve_precedence(formula, len(stream), time.monotonic() + 60) == (
            solve_precedence(formula, len(stream))
        )
        assert solve_precedence(contradictory_chain(5), 5, time.monotonic() + 60) is None

    def test_solution_is_total_on_rule_indices(self, stream):
        formula, _ = rl_constraint(stream, 4)
        levels = solve_precedence(formula, 5)
        assert set(levels) == set(range(5))

    def test_geq_is_reflexive_closure(self):
        # 0 >= 1 demands a strictly higher level, unlike numeric >=
        assert evaluate(Geq(0, 1), {0: 0, 1: 0}) is False
        assert evaluate(Geq(0, 0), {0: 0}) is True

    def test_backtracking_solver_on_many_indices(self):
        # nine involved indices: the search backtracks over whole chains
        chain = conj([Gt(i, i + 1) for i in range(8)])
        levels = solve_precedence(chain, 9)
        assert levels is not None and eval_formula(chain, levels)
        contradiction = conj([Gt(i, i + 1) for i in range(8)] + [Gt(8, 0)])
        assert solve_precedence(contradiction, 9) is None


def _random_formula(
    rng: random.Random, depth: int, n: int = 3, constants: bool = True
):
    """A random formula over the rule indices 0..n-1."""
    if depth == 0 or rng.random() < 0.4:
        kind = rng.randrange(0 if constants else 2, 4)
        if kind == 0:
            return TOP
        if kind == 1:
            return BOTTOM
        a, b = rng.randrange(n), rng.randrange(n)
        return Gt(a, b) if kind == 2 else Geq(a, b)
    parts = [
        _random_formula(rng, depth - 1, n, constants)
        for _ in range(rng.randint(2, 3))
    ]
    return conj(parts) if rng.random() < 0.5 else disj(parts)


def test_solver_returns_the_enumeration_oracles_map():
    """On 300 random formulas over up to six rules, the solver returns
    exactly the lexicographically least level map, or None with it."""
    rng = random.Random(2718)
    satisfiable = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        f = _random_formula(rng, 4, n, constants=False)
        expected = solve_by_enumeration(f, n)
        assert solve_precedence(f, n) == expected, str(f)
        satisfiable += expected is not None
    assert 100 < satisfiable < 290


def test_solver_returns_the_oracles_map_on_linear_fixtures():
    checked = 0
    for path in sorted(DATA_DIR.glob("*.trs")):
        R = parse_trs(path.read_text())
        if not R.is_linear():
            continue
        for k in (2, 4):
            formula, _ = rl_constraint(R, k)
            assert solve_precedence(formula, len(R)) == solve_by_enumeration(
                formula, len(R)
            ), f"{path.name} at k={k}"
            checked += 1
    assert checked >= 4


def test_unsatisfiable_string_system_is_fast():
    """A string system whose constraint defeated a search over disjunct
    choices: it has to come back unsatisfiable well within a second."""
    R = system(
        "b(a(x)) -> a(a(x))",
        "a(x) -> b(a(x))",
        "b(a(x)) -> x",
        "a(a(x)) -> x",
    )
    formula, _ = rl_constraint(R, 4)
    start = time.perf_counter()
    assert solve_precedence(formula, len(R)) is None
    assert time.perf_counter() - start < 1.0
    assert solve_by_enumeration(formula, len(R)) is None


def test_solver_agrees_with_brute_force_over_strict_orders():
    """On up to three rules the solver matches exhaustive enumeration of all
    strict partial orders."""
    rng = random.Random(314)
    orders = list(strict_orders((0, 1, 2)))
    assert len(orders) == 19
    for _ in range(300):
        f = _random_formula(rng, 3)
        expected = any(eval_formula_order(f, order) for order in orders)
        found = solve_precedence(f, 3)
        assert (found is not None) == expected
        if found is not None:
            assert eval_formula(f, found)


def test_phi_satisfiability_inherited_by_subsequences():
    """If the constraint of a supersequence is satisfiable, so is the
    constraint of the original sequence (500 random tuples)."""
    rng = random.Random(1618)
    for _ in range(500):
        alpha, beta = rng.randrange(6), rng.randrange(6)
        gamma = tuple(rng.randrange(6) for _ in range(rng.randint(0, 3)))
        delta = list(gamma)
        for _ in range(rng.randint(1, 3)):
            delta.insert(rng.randint(0, len(delta)), rng.randrange(6))
        super_phi = build_phi(alpha, beta, tuple(delta))
        if solve_precedence(super_phi, 6) is None:
            continue
        sub_phi = build_phi(alpha, beta, gamma)
        assert solve_precedence(sub_phi, 6) is not None, (
            f"phi^{alpha}_{beta}{tuple(delta)} satisfiable "
            f"but phi^{alpha}_{beta}{gamma} is not"
        )


class TestCheckRuleLabeling:
    def test_stream_yes(self, stream):
        verdict = check_rule_labeling(Analysis(stream, Config(k=4)))
        assert verdict.is_yes
        assert verdict.details["level_map"][4] > verdict.details["level_map"][0]

    def test_not_linear_rejected(self, nonlinear_f):
        verdict = check_rule_labeling(Analysis(nonlinear_f, Config(k=4)))
        assert verdict.kind == "MAYBE"
        assert verdict.details["reason"] == "not linear"

    def test_single_rule_yes(self):
        assert check_rule_labeling(Analysis(system("a -> b"), Config(k=4))).is_yes

    def test_unjoinable_at_small_k(self, stream):
        verdict = check_rule_labeling(Analysis(stream, Config(k=0)))
        assert verdict.kind == "MAYBE"
        assert "unsatisfiable" in verdict.details["reason"]

    def test_monotone_in_k(self, stream):
        assert check_rule_labeling(Analysis(stream, Config(k=4))).is_yes
        assert check_rule_labeling(Analysis(stream, Config(k=5))).is_yes
