"""The criterion portfolio and orchestration.

Criteria are sound individually: YES means confluent, NO means not confluent,
MAYBE carries diagnostics. The orchestrator runs the enabled criteria
cheapest-first and returns the first definitive answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .critical_pairs import cps, critical_pairs, overlaps
from .errors import ResourceLimitError
from .interpretations import (
    RelTermProblem,
    prove_relative_termination,
    prove_termination,
)
from .joinability import joinable_within
from .rewriting import (
    TRS,
    closed_reducts,
    fresh_trs,
    is_normal_form,
    normalize,
    split_duplicating,
)
from .rule_labeling import check_rule_labeling as _check_rule_labeling
from .verdict import MAYBE, Verdict, maybe, no, yes

DEFAULT_CRITERIA = ("nc", "ortho", "rl", "kb", "dd1", "dd2", "dd2x")


@dataclass
class Config:
    k: int = 4
    dim_max: int = 3
    coef_max: int = 1
    node_budget: int = 100_000
    search_budget: int = 400_000
    nc_budget: int = 2_000
    instance_cap: int = 64
    external_prover: str | None = None
    timeout: float = 60.0
    criteria: tuple[str, ...] = DEFAULT_CRITERIA

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("join bound k must be nonnegative")
        if not self.timeout > 0:  # also rejects NaN
            raise ValueError("timeout must be positive")
        for name in ("dim_max", "coef_max", "node_budget", "search_budget",
                     "nc_budget", "instance_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


def check_orthogonal(R: TRS) -> Verdict:
    if not R.is_left_linear():
        return maybe("orthogonality", reason="not left-linear")
    if overlaps(R):
        return maybe("orthogonality", reason="has overlaps")
    return yes("orthogonality", left_linear=True, overlap_free=True)


def check_rule_labeling(R: TRS, cfg: Config) -> Verdict:
    return _check_rule_labeling(R, cfg.k, cfg.node_budget, cfg.instance_cap)


def check_knuth_bendix(R: TRS, cfg: Config) -> Verdict:
    termination = prove_termination(
        R,
        cfg.dim_max,
        cfg.coef_max,
        cfg.search_budget,
        cfg.external_prover,
        cfg.timeout,
    )
    if not termination.is_yes:
        return maybe("knuth-bendix", reason="termination not shown")
    normalizations = []
    for cp in critical_pairs(R):
        try:
            nf_left, left_steps = normalize(R, cp.left, cfg.node_budget)
            nf_right, right_steps = normalize(R, cp.right, cfg.node_budget)
        except ResourceLimitError as e:
            return maybe("knuth-bendix", reason="resource limit", detail=str(e))
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
        normalizations.append(
            {"pair": cp, "meet": nf_left, "left_steps": left_steps,
             "right_steps": right_steps}
        )
    return yes(
        "knuth-bendix",
        termination=termination.details,
        normalizations=normalizations,
    )


def _joins_of_all_cps(R: TRS, cfg: Config) -> list[dict] | str:
    """Join witnesses for every critical pair, or a failure reason."""
    joins = []
    for cp in critical_pairs(R):
        try:
            inst = joinable_within(R, cp.left, cp.right, cfg.k, cfg.node_budget)
        except ResourceLimitError:
            return f"joinability search hit the node budget at k={cfg.k}"
        if inst is None:
            return f"critical pair not shown joinable within {cfg.k} steps"
        joins.append({"pair": cp, "instance": inst})
    return joins


def check_dd_l1(R: TRS, cfg: Config) -> Verdict:
    """Left-linear, joinable critical pairs, and critical pair steps plus the
    duplicating rules relatively terminating against the non-duplicating ones."""
    if not R.is_left_linear():
        return maybe("dd-duplication-split", reason="not left-linear")
    joins = _joins_of_all_cps(R, cfg)
    if isinstance(joins, str):
        return maybe("dd-duplication-split", reason=joins)
    dup, nondup = split_duplicating(R)
    strict = fresh_trs(list(cps(R).rules) + list(dup.rules))
    rel = prove_relative_termination(
        RelTermProblem(strict, nondup),
        cfg.dim_max,
        cfg.coef_max,
        cfg.search_budget,
        cfg.external_prover,
        cfg.timeout,
    )
    if not rel.is_yes:
        return maybe(
            "dd-duplication-split",
            reason="relative termination not shown",
            relative=rel.details,
        )
    return yes("dd-duplication-split", joins=joins, relative=rel.details)


def check_dd_l2(R: TRS, cfg: Config, exclude_trivial: bool = False) -> Verdict:
    """Left-linear, joinable critical pairs, and critical pair steps
    relatively terminating against the whole system."""
    name = "dd-relative" + ("-nontrivial" if exclude_trivial else "")
    if not R.is_left_linear():
        return maybe(name, reason="not left-linear")
    joins = _joins_of_all_cps(R, cfg)
    if isinstance(joins, str):
        return maybe(name, reason=joins)
    steps = cps(R, exclude_trivial)
    rel = prove_relative_termination(
        RelTermProblem(steps, R),
        cfg.dim_max,
        cfg.coef_max,
        cfg.search_budget,
        cfg.external_prover,
        cfg.timeout,
    )
    if not rel.is_yes:
        return maybe(name, reason="relative termination not shown", relative=rel.details)
    return yes(name, joins=joins, cps=steps, relative=rel.details)


def check_nonconfluence(R: TRS, cfg: Config) -> Verdict:
    """Distinct normal forms reachable from a critical peak refute confluence.

    Conservative: requires both bounded reduct sets to close (not truncate)
    and to be disjoint before answering NO.
    """
    for cp in critical_pairs(R):
        if cp.trivial:
            continue
        try:
            left_set = closed_reducts(R, cp.left, cfg.nc_budget)
            right_set = closed_reducts(R, cp.right, cfg.nc_budget)
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


_CRITERIA = {
    "nc": lambda R, cfg: check_nonconfluence(R, cfg),
    "ortho": lambda R, cfg: check_orthogonal(R),
    "rl": lambda R, cfg: check_rule_labeling(R, cfg),
    "kb": lambda R, cfg: check_knuth_bendix(R, cfg),
    "dd1": lambda R, cfg: check_dd_l1(R, cfg),
    "dd2": lambda R, cfg: check_dd_l2(R, cfg, exclude_trivial=False),
    "dd2x": lambda R, cfg: check_dd_l2(R, cfg, exclude_trivial=True),
}


def prove(R: TRS, cfg: Config | None = None) -> Verdict:
    """Run the enabled criteria in order; first YES or NO wins."""
    cfg = cfg or Config()
    deadline = time.monotonic() + cfg.timeout
    reasons: dict[str, dict] = {}
    for name in cfg.criteria:
        if name not in _CRITERIA:
            raise ValueError(f"unknown criterion {name!r}")
        if time.monotonic() > deadline:
            reasons["timeout"] = {"reason": f"global timeout of {cfg.timeout}s reached"}
            break
        try:
            verdict = _CRITERIA[name](R, cfg)
        except ResourceLimitError as e:
            verdict = maybe(name, reason="resource limit", detail=str(e))
        except RecursionError as e:
            # terms nested deeper than the interpreter's recursion limit
            verdict = maybe(name, reason="recursion limit", detail=str(e))
        if verdict.kind != MAYBE:
            return verdict
        reasons[name] = verdict.details
    return maybe("portfolio", per_criterion=reasons)
