"""Confluence prover for first-order term rewrite systems.

The public names load their modules on first use (PEP 562), so that a
process imports only the layers its problem needs; `python -m ddrt.cli`
imports this package first.
"""

# bound eagerly: once imported, the submodule `critical_pairs` would take the
# place of the function of the same name as an attribute of this package
from .critical_pairs import CriticalPair, Overlap, cps, critical_pairs, overlaps

__version__ = "0.1.0"

_LAZY = {
    "ResourceLimitError": "errors",
    "MatrixInterpretation": "interpretations",
    "prove_relative_termination": "interpretations",
    "prove_termination": "interpretations",
    "JoinInstance": "joinability",
    "join_instances": "joinability",
    "Analysis": "prover",
    "Config": "prover",
    "check_rule_labeling": "prover",
    "prove": "prover",
    "TRS": "rewriting",
    "Rule": "rewriting",
    "trs": "rewriting",
    "build_phi": "rule_labeling",
    "build_rl": "rule_labeling",
    "solve_precedence": "rule_labeling",
    "Fun": "terms",
    "Term": "terms",
    "Var": "terms",
    "match": "terms",
    "unify": "terms",
    "ParseError": "tpdb",
    "format_trs": "tpdb",
    "parse_trs": "tpdb",
    "Verdict": "verdict",
}

__all__ = sorted(["CriticalPair", "Overlap", "cps", "critical_pairs", "overlaps", *_LAZY])


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
