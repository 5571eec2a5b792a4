"""Rewrite rules, the one-step relation, reachability and normalization."""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .errors import Meter, ResourceLimitError
from .terms import (
    Frozen,
    Fun,
    Position,
    Subst,
    Term,
    Var,
    apply_subst,
    iter_positions,
    match,
    replace_at,
    subterms,
    variable_occurrences,
    variables,
)

_set = object.__setattr__

DEFAULT_NODE_BUDGET = 100_000
DEFAULT_SEARCH_BUDGET = 400_000  # nodes of one interpretation search


class Rule(Frozen):
    __slots__ = ("index", "lhs", "rhs")

    def __init__(self, index: int, lhs: Term, rhs: Term) -> None:
        if isinstance(lhs, Var):
            raise ValueError(f"rule {index}: left-hand side is the variable {lhs}")
        extra = variables(rhs) - variables(lhs)
        if extra:
            raise ValueError(f"rule {index}: extra variables {sorted(extra)} in right-hand side")
        _set(self, "index", index)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


class RuleClass(Frozen):
    __slots__ = ("left_linear", "right_linear", "duplicating")

    def __init__(self, left_linear: bool, right_linear: bool, duplicating: bool) -> None:
        _set(self, "left_linear", left_linear)
        _set(self, "right_linear", right_linear)
        _set(self, "duplicating", duplicating)

    @property
    def linear(self) -> bool:
        return self.left_linear and self.right_linear


class TRS(Frozen):
    """A rewrite system. Its `__dict__` holds the memos of the cached properties."""

    __slots__ = ("rules", "__dict__")

    def __init__(self, rules: tuple[Rule, ...]) -> None:
        indices = [r.index for r in rules]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate rule indices")
        _set(self, "rules", rules)
        self.signature  # force the arity-consistency check

    def _key(self) -> tuple:
        return (self.rules,)

    @cached_property
    def signature(self) -> dict[str, int]:
        sig: dict[str, int] = {}
        for r in self.rules:
            for t in (r.lhs, r.rhs):
                for s in subterms(t):
                    if isinstance(s, Fun):
                        arity = sig.setdefault(s.symbol, len(s.args))
                        if arity != len(s.args):
                            raise ValueError(
                                f"arity clash for {s.symbol} in rule {r.index}"
                            )
        return sig

    @cached_property
    def pumping(self) -> frozenset[int]:
        """Indices of the rules that pump (see `pumps`)."""
        return frozenset(r.index for r in self.rules if pumps(r))

    @cached_property
    def by_root(self) -> dict[str, tuple[Rule, ...]]:
        """Rules grouped by the root symbol of their left-hand side, in index order."""
        index: dict[str, list[Rule]] = {}
        for r in sorted(self.rules, key=lambda r: r.index):
            index.setdefault(r.lhs.symbol, []).append(r)
        return {f: tuple(rs) for f, rs in index.items()}

    @cached_property
    def _reducts(self) -> dict[Term, list[tuple[int, Position, Term]]]:
        return {}

    def reducts(self, t: Term) -> list[tuple[int, Position, Term]]:
        """`one_step_reducts(self, t)`, computed once per term for the life of
        the system. Every search shares the list, so none may change it."""
        found = self._reducts.get(t)
        if found is None:
            # through the module name, so that wrappers installed on it see the call
            found = self._reducts[t] = one_step_reducts(self, t)
        return found

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def is_left_linear(self) -> bool:
        return all(classify(r).left_linear for r in self.rules)

    def is_linear(self) -> bool:
        return all(classify(r).linear for r in self.rules)

    def to_json(self) -> list[str]:
        return [str(r) for r in self.rules]


def trs(pairs: list[tuple[Term, Term]]) -> TRS:
    """Build a TRS with dense indices from (lhs, rhs) pairs."""
    return TRS(tuple(Rule(i, l, r) for i, (l, r) in enumerate(pairs)))


def fresh_trs(rules: list[Rule]) -> TRS:
    """Re-index and deduplicate rules drawn from systems with clashing indices."""
    seen: set[tuple[Term, Term]] = set()
    fresh: list[Rule] = []
    for r in rules:
        key = (r.lhs, r.rhs)
        if key not in seen:
            seen.add(key)
            fresh.append(Rule(len(fresh), r.lhs, r.rhs))
    return TRS(tuple(fresh))


def classify(r: Rule) -> RuleClass:
    lhs_counts = Counter(variable_occurrences(r.lhs))
    rhs_counts = Counter(variable_occurrences(r.rhs))
    return RuleClass(
        left_linear=all(n <= 1 for n in lhs_counts.values()),
        right_linear=all(n <= 1 for n in rhs_counts.values()),
        duplicating=any(rhs_counts[x] > lhs_counts[x] for x in rhs_counts),
    )


def split_duplicating(R: TRS) -> tuple[TRS, TRS]:
    """Partition into (duplicating, non-duplicating) rules, indices preserved."""
    dup = tuple(r for r in R.rules if classify(r).duplicating)
    nondup = tuple(r for r in R.rules if not classify(r).duplicating)
    return TRS(dup), TRS(nondup)


def rename_apart(r: Rule, taken: set[str]) -> Rule:
    """A variant of r whose variables avoid `taken` (bijective renaming)."""
    renaming: Subst = {}
    used = set(taken)
    for x in sorted(variables(r.lhs)):  # the right-hand side has no others
        fresh = x
        while fresh in used:
            fresh += "'"
        used.add(fresh)
        if fresh != x:
            renaming[x] = Var(fresh)
    if not renaming:
        return r
    return Rule(r.index, apply_subst(renaming, r.lhs), apply_subst(renaming, r.rhs))


def pumps(r: Rule) -> bool:
    """Whether every term with an r-redex has infinitely many reducts.

    A rule l -> r pumps when r has an instance lθ of l at a position p other
    than the root. Proof: contracting a redex lσ at position q leaves the
    redex lθσ at q·p; contracting that one leaves lθθσ at q·p·p, and so on.
    The k-th term on this path has the position q·p^k, so the depths of the
    terms reached grow without bound and infinitely many of them differ.
    """
    return any(p and match(r.lhs, s) is not None for p, s in iter_positions(r.rhs))


def one_step_reducts(R: TRS, t: Term) -> list[tuple[int, Position, Term]]:
    """All (rule index, position, reduct) triples of one-step rewriting, by
    position in lexicographic order (see `iter_positions`) and then by rule
    index."""
    out: list[tuple[int, Position, Term]] = []
    by_root = R.by_root
    for p, s in iter_positions(t):
        if isinstance(s, Var):
            continue
        for r in by_root.get(s.symbol, ()):
            sigma = match(r.lhs, s)
            if sigma is not None:
                out.append((r.index, p, replace_at(t, p, apply_subst(sigma, r.rhs))))
    return out


def closed_reducts(
    R: TRS, t: Term, budget: int = DEFAULT_NODE_BUDGET, deadline: float | None = None
) -> set[Term]:
    """The full set of terms reachable from t.

    Terms are visited breadth-first, each term's reducts by position and
    then rule index. Each term, t included, spends one unit of a `Meter` of
    `budget` terms. Also raises `ResourceLimitError` at the first step by a
    pumping rule: that step shows the set is infinite (see `pumps`).
    """
    pumping = R.pumping
    spend = Meter("reduct closure", "terms", budget, deadline).spend
    spend()
    seen: set[Term] = {t}
    frontier = [t]
    while frontier:
        nxt: list[Term] = []
        for s in frontier:
            for i, _, u in R.reducts(s):
                if i in pumping:
                    raise ResourceLimitError(
                        f"reduct closure is infinite: rule {i} pumps"
                    )
                if u not in seen:
                    seen.add(u)
                    spend()
                    nxt.append(u)
        frontier = nxt
    return seen


def is_normal_form(R: TRS, t: Term) -> bool:
    return not R.reducts(t)


def normalize(
    R: TRS, t: Term, budget: int = DEFAULT_NODE_BUDGET, deadline: float | None = None
) -> tuple[Term, list[tuple[int, Position, Term]]]:
    """Reduce t to a normal form, outermost-leftmost, recording each step.
    Each step spends one unit of a `Meter` of `budget` steps."""
    spend = Meter("normalization", "steps", budget, deadline).spend
    steps: list[tuple[int, Position, Term]] = []
    while reducts := R.reducts(t):
        spend()
        steps.append(reducts[0])
        t = reducts[0][2]
    return t, steps
