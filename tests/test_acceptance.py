"""End-to-end acceptance checks.

Each test covers one acceptance criterion and finishes by printing a single
PASS line (visible with -s; the -v test status line carries the same signal).
"""

from __future__ import annotations

import time

from ddrt import TRS, Config, prove
from ddrt.cli import run
from ddrt.critical_pairs import cps, critical_pairs
from ddrt.interpretations import prove_relative_termination
from ddrt.joinability import join_instances
from ddrt.prover import Analysis, check_dd_l2, check_knuth_bendix, check_rule_labeling
from ddrt.rule_labeling import And, build_phi, solve_precedence
from conftest import data_path, system, term
from helpers import (
    compare_forms,
    dd1_problem,
    eval_formula,
    interpret_term,
    replay_join,
    replay_relative,
    replay_steps,
    rl_constraint,
)


def _first_line(capsys) -> str:
    return capsys.readouterr().out.splitlines()[0]


def test_criterion_1_rule_labeling_end_to_end(stream, capsys):
    """Linear stream system: rule labeling proves confluence in under a
    second, with the expected formula, join set and precedence."""
    start = time.perf_counter()
    assert run(["--criterion", "rl", "--k", "4", data_path("stream.trs")]) == 0
    elapsed = time.perf_counter() - start
    assert _first_line(capsys) == "YES"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"

    # the generated constraint is exactly the two-part formula of the
    # system's single overlap (rule indices are 0-based file order)
    formula, _ = rl_constraint(stream, 4)
    assert formula == And((build_phi(0, 4, (2,)), build_phi(4, 0, (0, 3, 2))))

    # the minimal 4-join set of the critical pair is a single instance
    left = term("inc(tl(:(0,inc(nat))))")
    right = term("tl(inc(nat))")
    assert {(i.left_seq, i.right_seq) for i in join_instances(stream, left, right, 4)} == {
        ((2,), (0, 3, 2))
    }

    # the solution puts the top rule above rules 0, 2 and 3
    levels = solve_precedence(formula, 5)
    assert levels is not None
    assert all(levels[4] > levels[i] for i in (0, 2, 3))
    print("ACCEPTANCE 1: PASS - rule labeling end-to-end on the stream system")


def test_criterion_2_relative_termination_end_to_end(stream_d, stream_d_model, capsys):
    """Extended stream system: the relative-termination criterion proves
    confluence within 10 s at dimension 2, and the hand-checked dimension-2
    interpretation evaluates exactly as expected."""
    start = time.perf_counter()
    code = run(
        ["--criterion", "dd2", "--dim-max", "2", "--coef-max", "1",
         data_path("stream_d.trs")]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert _first_line(capsys) == "YES"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"

    # regression: the known dimension-2 interpretation collapses both
    # reducts of the critical peak and drops the peak itself strictly
    peak = interpret_term(stream_d_model, term("inc(tl(nat))"))
    one = interpret_term(stream_d_model, term("tl(inc(nat))"))
    other = interpret_term(stream_d_model, term("inc(tl(:(0,inc(nat))))"))
    assert peak.const == (1, 1)
    assert one.const == (0, 0) and other.const == (0, 0)
    assert compare_forms(peak, one) == "strict"
    assert compare_forms(peak, other) == "strict"

    # the duplication-split criterion does not apply to this system
    assert run(["--criterion", "dd1", data_path("stream_d.trs")]) == 0
    assert _first_line(capsys) == "MAYBE"
    print("ACCEPTANCE 2: PASS - relative termination end-to-end on the extended stream")


def test_criterion_3_duplication_split_on_growing_system(capsys):
    """The nonterminating-but-confluent system: duplication split says YES,
    the termination-based check says MAYBE."""
    assert run(["--criterion", "dd1", data_path("nested_g.trs")]) == 0
    assert _first_line(capsys) == "YES"
    assert run(["--criterion", "kb", data_path("nested_g.trs")]) == 0
    assert _first_line(capsys) == "MAYBE"
    print("ACCEPTANCE 3: PASS - duplication split proves the growing system")


def test_criterion_4_soundness_fixtures_never_yes(
    nonlinear_f, toggle, nonleftlinear, fork
):
    """Known non-confluent systems must never get YES, even with every
    budget at ten times its default."""
    generous = Config(
        node_budget=1_000_000,
        search_budget=4_000_000,
        nc_budget=20_000,
        instance_cap=640,
        timeout=600.0,
    )
    for R in (nonlinear_f, toggle, nonleftlinear):
        for cfg in (Config(), generous):
            verdict = prove(R, cfg)
            assert not verdict.is_yes, f"unsound YES on {[str(r) for r in R.rules]}"
    for cfg in (Config(), generous):
        verdict = prove(fork, cfg)
        assert verdict.kind == "NO"
        nfs = set(verdict.details["witness"]["normal_forms"])
        assert nfs == {term("b"), term("c")}
    print("ACCEPTANCE 4: PASS - non-confluent fixtures never get YES at 10x budgets")


def test_criterion_5_cps_keeps_source_steps(toggle):
    """The critical-pair-step system must keep the steps out of the shared
    source term; dropping them (keeping only the contracta-to-contracta
    rules) would let the relative-termination criterion prove a
    non-confluent system."""
    steps = cps(critical_pairs(toggle))
    step_pairs = {(r.lhs, r.rhs) for r in steps.rules}
    assert (term("f(a)"), term("f(b)")) in step_pairs

    # a mutated step set without the source steps is relatively terminating,
    # so it WOULD make the criterion claim YES here - that is the trap
    mutated = system("f(a) -> c", "f(b) -> d")
    trapped = prove_relative_termination(mutated, toggle)
    assert trapped.is_yes

    # the real pipeline keeps the source steps and stays at MAYBE
    genuine = prove_relative_termination(steps, toggle)
    assert genuine.kind == "MAYBE"
    assert check_dd_l2(Analysis(toggle, Config())).kind == "MAYBE"
    print("ACCEPTANCE 5: PASS - critical pair steps keep the source steps")


def test_criterion_6_yes_traces_replay_independently(
    stream, stream_d, nested_g, diamond
):
    """Every YES verdict replays through independent checking: rewrite steps
    via one_step_reducts, orientations via compare_forms, formulas by direct
    evaluation. The remaining property suites of this criterion live in the
    module test files (unification, sandwich, development, small-scale
    joinability and precedence-solver agreement)."""
    cfg = Config()

    # rule labeling on the stream system
    v = check_rule_labeling(Analysis(stream, cfg))
    assert v.is_yes
    levels = v.details["level_map"]
    assert eval_formula(v.details["formula"], levels)
    for entry in v.details["joins"]:
        assert entry["instances"], "overlap without join witnesses"
        for inst in entry["instances"]:
            meet_left = replay_steps(stream, _cp_left(stream, entry), inst.left_seq, inst.left_trace)
            meet_right = replay_steps(stream, _cp_right(stream, entry), inst.right_seq, inst.right_trace)
            assert meet_left == inst.meet == meet_right

    # relative termination on the extended stream, both proof layers
    v = check_dd_l2(Analysis(stream_d, cfg))
    assert v.is_yes
    replay_relative(cps(critical_pairs(stream_d)), stream_d, v.details["relative"])
    for join in v.details["joins"]:
        replay_join(stream_d, join["pair"].left, join["pair"].right, join["instance"])

    # duplication split on the growing system
    from ddrt.prover import check_dd_l1

    v = check_dd_l1(Analysis(nested_g, cfg))
    assert v.is_yes
    replay_relative(*dd1_problem(nested_g), v.details["relative"])
    for join in v.details["joins"]:
        replay_join(nested_g, join["pair"].left, join["pair"].right, join["instance"])

    # termination plus joinability on the diamond
    v = check_knuth_bendix(Analysis(diamond, cfg))
    assert v.is_yes
    replay_relative(diamond, TRS(()), {"chain": v.details["termination"]["chain"]})
    for entry in v.details["normalizations"]:
        cp = entry["pair"]
        left_end = _replay_normalization(diamond, cp.left, entry["left_steps"])
        right_end = _replay_normalization(diamond, cp.right, entry["right_steps"])
        assert left_end == entry["meet"] == right_end
    print("ACCEPTANCE 6: PASS - YES traces replay through independent checkers")


def _cp_left(R, join_entry):
    from ddrt.critical_pairs import critical_pair_of, overlaps

    for o in overlaps(R):
        if (o.inner.index, o.outer.index) == (join_entry["inner"], join_entry["outer"]):
            return critical_pair_of(o).left
    raise AssertionError("overlap of the trace not found in the system")


def _cp_right(R, join_entry):
    from ddrt.critical_pairs import critical_pair_of, overlaps

    for o in overlaps(R):
        if (o.inner.index, o.outer.index) == (join_entry["inner"], join_entry["outer"]):
            return critical_pair_of(o).right
    raise AssertionError("overlap of the trace not found in the system")


def _replay_normalization(R, start, steps):
    from ddrt.rewriting import one_step_reducts

    current = start
    for idx, pos, nxt in steps:
        assert (idx, pos, nxt) in one_step_reducts(R, current)
        current = nxt
    return current


def test_criterion_7_redundant_sequences_stay_satisfiable():
    """Satisfiability of the labeling constraint survives dropping labels:
    500 random (alpha, beta, sequence, supersequence) tuples."""
    import random

    rng = random.Random(271828)
    tried = 0
    for _ in range(500):
        alpha, beta = rng.randrange(6), rng.randrange(6)
        gamma = tuple(rng.randrange(6) for _ in range(rng.randint(0, 3)))
        delta = list(gamma)
        for _ in range(rng.randint(1, 3)):
            delta.insert(rng.randint(0, len(delta)), rng.randrange(6))
        if solve_precedence(build_phi(alpha, beta, tuple(delta)), 6) is None:
            continue
        tried += 1
        assert solve_precedence(build_phi(alpha, beta, gamma), 6) is not None
    assert tried > 200
    print("ACCEPTANCE 7: PASS - subsequence constraints inherit satisfiability")
