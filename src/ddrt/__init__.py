"""Confluence prover for first-order term rewrite systems."""

from .critical_pairs import (
    CriticalPair,
    Overlap,
    cps,
    critical_pairs,
    overlaps,
)
from .errors import ResourceLimitError
from .interpretations import (
    MatrixInterpretation,
    RelTermProblem,
    prove_relative_termination,
    prove_termination,
)
from .joinability import JoinInstance, join_instances
from .prover import Analysis, Config, check_rule_labeling, prove
from .rewriting import TRS, Rule, trs
from .rule_labeling import build_phi, build_rl, solve_precedence
from .terms import Fun, Term, Var, match, unify
from .tpdb import ParseError, format_trs, parse_trs
from .verdict import Verdict

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "Config",
    "CriticalPair",
    "Fun",
    "JoinInstance",
    "MatrixInterpretation",
    "Overlap",
    "ParseError",
    "RelTermProblem",
    "ResourceLimitError",
    "Rule",
    "TRS",
    "Term",
    "Var",
    "Verdict",
    "build_phi",
    "build_rl",
    "check_rule_labeling",
    "cps",
    "critical_pairs",
    "format_trs",
    "join_instances",
    "match",
    "overlaps",
    "parse_trs",
    "prove",
    "prove_relative_termination",
    "prove_termination",
    "solve_precedence",
    "trs",
    "unify",
]
