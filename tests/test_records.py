"""The prover's records: hash, equality and immutability, field by field as
the frozen dataclasses they replace defined them."""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass

import pytest

from ddrt.critical_pairs import critical_pairs
from ddrt.interpretations import MatrixInterpretation
from ddrt.joinability import join_instances
from ddrt.prover import DEFAULT_CRITERIA, Config
from ddrt.rewriting import TRS, Rule, RuleClass, trs
from ddrt.rule_labeling import BOTTOM, TOP, And, Geq, Gt, Or
from ddrt.terms import Fun, Term, Var
from ddrt.verdict import Verdict
from conftest import system, term
from helpers import make_random_term


@dataclass(frozen=True)
class DataVar:
    name: str


@dataclass(frozen=True)
class DataFun:
    symbol: str
    args: tuple = ()


def as_dataclass(t: Term):
    if isinstance(t, Var):
        return DataVar(t.name)
    return DataFun(t.symbol, tuple(as_dataclass(a) for a in t.args))


def rebuilt(t: Term) -> Term:
    """An equal term that shares no node with t."""
    if isinstance(t, Var):
        return Var("".join(t.name))
    return Fun("".join(t.symbol), tuple(rebuilt(a) for a in t.args))


SIGNATURE = [("f", 2), ("g", 1), ("a", 0), ("b", 0)]


def random_terms(n: int, seed: int) -> list[Term]:
    rng = random.Random(seed)
    return [make_random_term(rng, SIGNATURE, ["x", "y"], rng.randint(0, 5)) for _ in range(n)]


class TestTermHash:
    def test_hash_is_the_tuple_hash_of_the_fields(self):
        x, a = Var("x"), Fun("a")
        assert hash(x) == hash(("x",))
        assert hash(a) == hash(("a", ()))
        assert hash(Fun("f", (x, a))) == hash(("f", (x, a)))

    def test_hash_is_the_dataclass_hash_on_random_terms(self):
        for t in random_terms(200, 1):
            assert hash(t) == hash(as_dataclass(t)), t

    def test_equal_terms_built_apart_are_equal(self):
        for t in random_terms(200, 2):
            u = rebuilt(t)
            assert u is not t and u == t and hash(u) == hash(t) and not u != t

    def test_unequal_terms_are_unequal(self):
        terms = random_terms(200, 3)
        for s, t in zip(terms, terms[1:]):
            assert (s == t) == (as_dataclass(s) == as_dataclass(t))
        assert Var("a") != Fun("a") and Fun("a") != Var("a")
        assert Fun("f", (Var("x"),)) != Fun("f", (Var("y"),))

    def test_terms_compare_unequal_to_other_types(self):
        assert Fun("a") != ("a", ()) and Var("x") != "x"


class TestRecordHash:
    def test_rules_and_systems_hash_their_fields(self):
        R = system("f(x) -> g(x)", "a -> b")
        r = R.rules[0]
        assert hash(r) == hash((r.index, r.lhs, r.rhs))
        assert hash(R) == hash((R.rules,))
        assert hash(RuleClass(True, False, True)) == hash((True, False, True))

    def test_formulas_hash_their_fields(self):
        assert hash(Gt(1, 2)) == hash(Geq(1, 2)) == hash((1, 2))
        assert hash(And((Gt(1, 2),))) == hash(((Gt(1, 2),),))

    def test_records_compare_by_their_fields_and_class(self):
        assert system("f(x) -> g(x)") == system("f(x) -> g(x)")
        assert Rule(0, term("a"), term("b")) != Rule(1, term("a"), term("b"))
        assert Gt(1, 2) == Gt(1, 2) and Gt(1, 2) != Geq(1, 2)
        assert TOP == And(()) and TOP != BOTTOM and BOTTOM == Or(())

    def test_interpretations_compare_by_fields_and_do_not_hash(self):
        funcs = {"a": ((), (1,))}
        assert MatrixInterpretation(1, funcs) == MatrixInterpretation(dim=1, funcs=dict(funcs))
        with pytest.raises(TypeError):
            hash(MatrixInterpretation(1, funcs))

    def test_overlaps_pairs_and_join_instances_compare_by_identity(self):
        R = system("f(f(x)) -> x")
        cp, again = critical_pairs(R)[0], critical_pairs(R)[0]
        assert cp == cp and cp != again and cp.origin != again.origin
        assert hash(cp) != hash(again)
        joins = join_instances(R, cp.left, cp.right, 4)
        rejoined = join_instances(R, cp.left, cp.right, 4)
        assert joins and joins[0] == joins[0] and joins[0] != rejoined[0]


class TestImmutable:
    @pytest.mark.parametrize("record, field", [
        (Var("x"), "name"),
        (Fun("a"), "symbol"),
        (Fun("a"), "args"),
        (Rule(0, Fun("a"), Fun("b")), "lhs"),
        (trs([(Fun("a"), Fun("b"))]), "rules"),
        (RuleClass(True, True, False), "duplicating"),
        (Gt(1, 2), "a"),
        (And(()), "parts"),
        (MatrixInterpretation(1, {}), "dim"),
    ], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
    def test_assignment_raises(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)

    def test_cached_properties_still_fill_in(self):
        R = system("f(x) -> g(x)")
        assert R.by_root == {"f": R.rules} and R.pumping == frozenset()

    def test_rule_checks_its_sides(self):
        with pytest.raises(ValueError, match="left-hand side is the variable"):
            Rule(0, Var("x"), Fun("a"))
        with pytest.raises(ValueError, match="extra variables"):
            Rule(0, Fun("a"), Var("x"))


class TestConfigAndVerdict:
    def test_defaults(self):
        cfg = Config()
        assert {name: getattr(cfg, name) for name in Config.__slots__} == {
            "k": 4, "dim_max": 3, "coef_max": 1, "node_budget": 100_000,
            "search_budget": 400_000, "nc_budget": 2_000, "instance_cap": 64,
            "external_prover": None, "timeout": 60.0, "criteria": DEFAULT_CRITERIA,
        }

    def test_equality_is_by_fields_and_configs_do_not_hash(self):
        assert Config() == Config(k=4) and Config() != Config(k=5)
        with pytest.raises(TypeError):
            hash(Config())

    def test_unknown_field_is_rejected(self):
        with pytest.raises(TypeError):
            Config(depth=3)

    def test_config_survives_pickling_for_batch_workers(self):
        cfg = Config(k=2, criteria=("nc",))
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_verdicts_compare_by_fields(self):
        assert Verdict("YES", "c") == Verdict("YES", "c", {})
        assert Verdict("YES", "c", {"a": 1}) != Verdict("YES", "c")
        v = Verdict("MAYBE", "c")
        v.details["reason"] = "r"  # verdicts stay mutable
        assert v.details == {"reason": "r"} and Verdict("NO", "c").details == {}
        with pytest.raises(TypeError):
            hash(v)
