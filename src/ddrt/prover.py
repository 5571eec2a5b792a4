"""The criterion portfolio and orchestration.

Criteria are sound individually: YES means confluent, NO means not confluent,
MAYBE carries diagnostics. The orchestrator runs the enabled criteria
cheapest-first on one shared Analysis of the problem and returns the first
definitive answer.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from functools import cached_property

from .critical_pairs import CriticalPair, cps, critical_pairs
from .errors import ResourceLimitError, Timeout
from .rewriting import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_SEARCH_BUDGET,
    TRS,
    closed_reducts,
    fresh_trs,
    is_normal_form,
    normalize,
    split_duplicating,
)
from .terms import Record
from .verdict import MAYBE, Verdict, maybe, no, yes

# The join search, the rule-labeling constraint and the interpretation search
# live in `joinability`, `rule_labeling` and `interpretations`. Each is
# imported by the criteria that use it, on first use, and called through its
# module attribute, so that wrappers installed on the module see the calls.

DEFAULT_CRITERIA = ("nc", "ortho", "rl", "kb", "dd1", "dd2", "dd2x")


class Config(Record):
    """The prover's knobs: the CLI's flags, whose defaults these are, and the
    budgets, which have no flag. Checked at construction."""

    __slots__ = ("k", "dim_max", "coef_max", "node_budget", "search_budget", "nc_budget",
                 "instance_cap", "external_prover", "timeout", "criteria")
    __hash__ = None

    def __init__(
        self, *, k: int = 4, dim_max: int = 3, coef_max: int = 1,
        node_budget: int = DEFAULT_NODE_BUDGET, search_budget: int = DEFAULT_SEARCH_BUDGET,
        nc_budget: int = 2_000, instance_cap: int = 64, external_prover: str | None = None,
        timeout: float = 60.0, criteria: tuple[str, ...] = DEFAULT_CRITERIA,
    ) -> None:
        self.k = k
        self.dim_max = dim_max
        self.coef_max = coef_max
        self.node_budget = node_budget
        self.search_budget = search_budget
        self.nc_budget = nc_budget
        self.instance_cap = instance_cap
        self.external_prover = external_prover
        self.timeout = timeout
        self.criteria = criteria
        if self.k < 0:
            raise ValueError("join bound k must be nonnegative")
        if not self.timeout > 0:  # also rejects NaN
            raise ValueError("timeout must be positive")
        for name in ("dim_max", "coef_max", "node_budget", "search_budget",
                     "nc_budget", "instance_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in self.criteria:
            if name not in DEFAULT_CRITERIA:
                raise ValueError(f"unknown criterion {name!r}")


class Analysis:
    """One problem as every criterion sees it: the system, the configuration,
    the deadline, and what the criteria share, each computed on first use."""

    def __init__(self, R: TRS, cfg: Config | None = None) -> None:
        self.R = R
        self.cfg = cfg or Config()
        self.deadline = time.monotonic() + self.cfg.timeout
        self._instances: list[list[JoinInstance]] = []

    @cached_property
    def pairs(self) -> list[CriticalPair]:
        return critical_pairs(self.R)

    def instances(self) -> Iterator[list[JoinInstance]]:
        """The minimal join instances within k steps of each critical pair,
        at most instance_cap of them, in pair order. Each pair is searched
        on first use; a search that raises is not kept."""
        from . import joinability

        cfg = self.cfg
        for i, cp in enumerate(self.pairs):
            if i == len(self._instances):
                self._instances.append(joinability.join_instances(
                    self.R, cp.left, cp.right, cfg.k, cfg.node_budget,
                    self.deadline)[:cfg.instance_cap])
            yield self._instances[i]

    @cached_property
    def joins(self) -> list[dict] | str:
        """The least join instance of every critical pair, or why one is missing."""
        k = self.cfg.k
        joins = []
        try:
            for cp, instances in zip(self.pairs, self.instances()):
                if not instances:
                    return f"critical pair not shown joinable within {k} steps"
                joins.append({"pair": cp, "instance": instances[0]})
        except Timeout:
            return "timeout"
        except ResourceLimitError:
            return f"joinability search hit the node budget at k={k}"
        return joins

    @cached_property
    def steps(self) -> TRS:
        """CPS(R), the critical pair steps."""
        return cps(self.pairs)

    @cached_property
    def nontrivial_steps(self) -> TRS:
        """CPS'(R), the steps of the nontrivial critical pairs."""
        return cps(self.pairs, exclude_trivial=True)

    def terminates(self, strict: TRS, weak: TRS | None = None) -> Verdict:
        """Termination of strict, relative to weak unless weak is None, within
        the configured bounds and the time left."""
        from . import interpretations

        cfg = self.cfg
        bounds = (cfg.dim_max, cfg.coef_max, cfg.search_budget, cfg.external_prover,
                  self.deadline)
        if weak is None:
            return interpretations.prove_termination(strict, *bounds)
        return interpretations.prove_relative_termination(strict, weak, *bounds)


def check_orthogonal(a: Analysis) -> Verdict:
    if not a.R.is_left_linear():
        return maybe("orthogonality", reason="not left-linear")
    if a.pairs:
        return maybe("orthogonality", reason="has overlaps")
    return yes("orthogonality", left_linear=True, overlap_free=True)


def check_rule_labeling(a: Analysis) -> Verdict:
    """Confluence of a linear TRS via a satisfiable rule-labeling constraint."""
    if not a.R.is_linear():
        return maybe("rule-labeling", reason="not linear")
    from . import rule_labeling

    try:
        instances = list(a.instances())
        formula = rule_labeling.build_rl(a.pairs, instances)
        levels = rule_labeling.solve_precedence(formula, len(a.R), a.deadline)
    except ResourceLimitError as e:
        why = "timeout" if isinstance(e, Timeout) else "resource limit"
        return maybe("rule-labeling", reason=why, detail=str(e))
    if levels is None:
        return maybe("rule-labeling", reason=f"unsatisfiable at k={a.cfg.k}")
    joins = [{"inner": cp.origin.inner.index, "outer": cp.origin.outer.index,
              "pos": cp.origin.pos, "instances": insts}
             for cp, insts in zip(a.pairs, instances)]
    return yes("rule-labeling", level_map=levels, formula=formula, joins=joins)


def check_knuth_bendix(a: Analysis) -> Verdict:
    R = a.R
    termination = a.terminates(R)
    if not termination.is_yes:
        why = termination.details["reason"]
        return maybe("knuth-bendix", reason=why if why == "timeout" else "termination not shown")
    normalizations = []
    for cp in a.pairs:
        try:
            nf_left, left_steps = normalize(R, cp.left, a.cfg.node_budget, a.deadline)
            nf_right, right_steps = normalize(R, cp.right, a.cfg.node_budget, a.deadline)
        except ResourceLimitError as e:
            why = "timeout" if isinstance(e, Timeout) else "resource limit"
            return maybe("knuth-bendix", reason=why, detail=str(e))
        if nf_left != nf_right:
            # two distinct normal forms of the critical peak refute confluence
            return no(
                "knuth-bendix",
                witness={
                    "pair": cp,
                    "peak": cp.origin.source,
                    "normal_forms": (nf_left, nf_right),
                    "left_steps": left_steps,
                    "right_steps": right_steps,
                },
            )
        normalizations.append({"pair": cp, "meet": nf_left, "left_steps": left_steps,
                               "right_steps": right_steps})
    return yes("knuth-bendix", termination=termination.details, normalizations=normalizations)


def _check_dd(
    a: Analysis, name: str, relative: Callable[[], tuple[TRS, TRS, dict]]
) -> Verdict:
    """Left-linear, joinable critical pairs, and the strict system that
    `relative` builds terminating relative to its weak one; it also gives
    details for a YES."""
    if not a.R.is_left_linear():
        return maybe(name, reason="not left-linear")
    if isinstance(a.joins, str):
        return maybe(name, reason=a.joins)
    strict, weak, shown = relative()
    rel = a.terminates(strict, weak)
    if not rel.is_yes:
        why = "timeout" if rel.details["reason"] == "timeout" else "relative termination not shown"
        return maybe(name, reason=why, relative=rel.details)
    return yes(name, joins=a.joins, **shown, relative=rel.details)


def check_dd_l1(a: Analysis) -> Verdict:
    """Critical pair steps plus the duplicating rules relatively terminating
    against the non-duplicating ones."""

    def relative() -> tuple[TRS, TRS, dict]:
        dup, nondup = split_duplicating(a.R)
        return fresh_trs(list(a.steps.rules) + list(dup.rules)), nondup, {}

    return _check_dd(a, "dd-duplication-split", relative)


def check_dd_l2(a: Analysis, exclude_trivial: bool = False) -> Verdict:
    """Critical pair steps, or with exclude_trivial those of the nontrivial
    pairs, relatively terminating against the whole system."""

    def relative() -> tuple[TRS, TRS, dict]:
        steps = a.nontrivial_steps if exclude_trivial else a.steps
        return steps, a.R, {"cps": steps}

    return _check_dd(a, "dd-relative" + ("-nontrivial" if exclude_trivial else ""), relative)


def check_nonconfluence(a: Analysis) -> Verdict:
    """Distinct normal forms reachable from a critical peak refute confluence.

    Conservative: requires both bounded reduct sets to close (not truncate)
    and to be disjoint before answering NO.
    """
    R = a.R
    for cp in a.pairs:
        if cp.trivial:
            continue
        try:
            left_set = closed_reducts(R, cp.left, a.cfg.nc_budget, a.deadline)
            right_set = closed_reducts(R, cp.right, a.cfg.nc_budget, a.deadline)
        except Timeout:
            return maybe("nonconfluence", reason="timeout")
        except ResourceLimitError:
            continue
        if left_set & right_set:
            continue
        nf_left = next((t for t in sorted(left_set, key=str) if is_normal_form(R, t)), None)
        nf_right = next((t for t in sorted(right_set, key=str) if is_normal_form(R, t)), None)
        if nf_left is None or nf_right is None:
            continue
        return no(
            "nonconfluence",
            witness={
                "pair": cp,
                "peak": cp.origin.source,
                "normal_forms": (nf_left, nf_right),
                "left_set": left_set,
                "right_set": right_set,
            },
        )
    return maybe("nonconfluence", reason="no critical pair with disjoint closed reducts")


# looked up at call time, so that wrappers installed on this module see the calls
_CRITERIA = {
    "nc": lambda a: check_nonconfluence(a),
    "ortho": lambda a: check_orthogonal(a),
    "rl": lambda a: check_rule_labeling(a),
    "kb": lambda a: check_knuth_bendix(a),
    "dd1": lambda a: check_dd_l1(a),
    "dd2": lambda a: check_dd_l2(a, exclude_trivial=False),
    "dd2x": lambda a: check_dd_l2(a, exclude_trivial=True),
}


def prove(R: TRS, cfg: Config | None = None) -> Verdict:
    """Run the enabled criteria in order; first YES or NO wins."""
    a = Analysis(R, cfg)
    reasons: dict[str, dict] = {}
    for name in a.cfg.criteria:
        if time.monotonic() > a.deadline:
            reasons["timeout"] = {"reason": f"global timeout of {a.cfg.timeout}s reached"}
            break
        try:
            verdict = _CRITERIA[name](a)
        except ResourceLimitError as e:
            verdict = maybe(name, reason="resource limit", detail=str(e))
        except MemoryError:
            verdict = maybe(name, reason="out of memory")
        except RecursionError as e:
            # terms nested deeper than the interpreter's recursion limit
            verdict = maybe(name, reason="recursion limit", detail=str(e))
        if verdict.kind != MAYBE:
            return verdict
        reasons[name] = verdict.details
    return maybe("portfolio", per_criterion=reasons)
