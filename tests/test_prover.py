"""Tests for the individual criteria and the portfolio orchestrator."""

from __future__ import annotations

import time

import pytest

from ddrt import Config, prove
from ddrt.prover import (
    check_dd_l1,
    check_dd_l2,
    check_knuth_bendix,
    check_nonconfluence,
    check_orthogonal,
)
from conftest import system, term
from helpers import check_normal_form, replay_join, replay_relative


@pytest.fixture(scope="module")
def cfg():
    return Config()


class TestOrthogonal:
    def test_orthogonal_yes(self, ortho):
        assert check_orthogonal(ortho).is_yes

    def test_overlapping_maybe(self, stream):
        v = check_orthogonal(stream)
        assert v.kind == "MAYBE" and v.details["reason"] == "has overlaps"

    def test_nonleftlinear_maybe(self):
        v = check_orthogonal(system("f(x,x) -> a"))
        assert v.kind == "MAYBE" and v.details["reason"] == "not left-linear"


class TestKnuthBendix:
    def test_diamond_yes(self, diamond, cfg):
        v = check_knuth_bendix(diamond, cfg)
        assert v.is_yes
        for entry in v.details["normalizations"]:
            assert check_normal_form(diamond, entry["meet"])

    def test_fork_no_with_witness(self, fork, cfg):
        v = check_knuth_bendix(fork, cfg)
        assert v.is_no
        nf_left, nf_right = v.details["witness"]["normal_forms"]
        assert {nf_left, nf_right} == {term("b"), term("c")}

    def test_nonterminating_maybe(self, nested_g, cfg):
        v = check_knuth_bendix(nested_g, cfg)
        assert v.kind == "MAYBE"
        assert v.details["reason"] == "termination not shown"


class TestDdDuplicationSplit:
    def test_nested_g_yes(self, nested_g, cfg):
        v = check_dd_l1(nested_g, cfg)
        assert v.is_yes
        replay_relative(v.details["relative"])
        for entry in v.details["joins"]:
            replay_join(nested_g, entry["pair"].left, entry["pair"].right, entry["instance"])

    def test_extended_stream_maybe(self, stream_d, cfg):
        # the duplicating d rule cannot terminate relative to the rest
        v = check_dd_l1(stream_d, cfg)
        assert v.kind == "MAYBE"

    def test_nonleftlinear_maybe(self, nonleftlinear, cfg):
        v = check_dd_l1(nonleftlinear, cfg)
        assert v.kind == "MAYBE" and v.details["reason"] == "not left-linear"


class TestDdRelative:
    def test_extended_stream_yes_both_variants(self, stream_d, cfg):
        for exclude in (False, True):
            v = check_dd_l2(stream_d, cfg, exclude_trivial=exclude)
            assert v.is_yes
            replay_relative(v.details["relative"])

    def test_toggle_maybe(self, toggle, cfg):
        assert check_dd_l2(toggle, cfg).kind == "MAYBE"

    def test_orthogonal_yes(self, ortho, cfg):
        assert check_dd_l2(ortho, cfg).is_yes


class TestNonconfluence:
    def test_fork_no(self, fork, cfg):
        v = check_nonconfluence(fork, cfg)
        assert v.is_no
        witness = v.details["witness"]
        assert {witness["normal_forms"][0], witness["normal_forms"][1]} == {
            term("b"),
            term("c"),
        }
        for nf in witness["normal_forms"]:
            assert check_normal_form(fork, nf)

    def test_toggle_maybe(self, toggle, cfg):
        # its critical pairs are joinable; refutation needs conversions
        assert check_nonconfluence(toggle, cfg).kind == "MAYBE"

    def test_orthogonal_maybe(self, ortho, cfg):
        assert check_nonconfluence(ortho, cfg).kind == "MAYBE"

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
        assert prove(fork).is_no

    def test_unknown_criterion_rejected(self, fork):
        with pytest.raises(ValueError):
            prove(fork, Config(criteria=("bogus",)))

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
