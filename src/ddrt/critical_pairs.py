"""Overlaps, critical pairs and the system of critical pair steps."""

from __future__ import annotations

from dataclasses import dataclass

from .rewriting import TRS, Rule, fresh_trs, rename_apart
from .terms import (
    Fun,
    Position,
    Subst,
    Term,
    Var,
    apply_subst,
    iter_positions,
    replace_at,
    unify,
    variables,
)


@dataclass(frozen=True, eq=False)
class Overlap:
    inner: Rule  # renamed-apart variant; keeps its original index
    pos: Position
    outer: Rule
    mgu: Subst

    @property
    def source(self) -> Term:
        return apply_subst(self.mgu, self.outer.lhs)


@dataclass(frozen=True, eq=False)
class CriticalPair:
    left: Term  # outer lhs with the inner redex contracted
    right: Term  # outer rule contractum
    origin: Overlap

    @property
    def trivial(self) -> bool:
        return self.left == self.right


def overlaps(R: TRS) -> list[Overlap]:
    """All overlaps of R, in (outer index, position, inner index) order.

    Root overlaps of a rule with a variant of itself are excluded.
    """
    # one form per rule, so that a rule compared with itself compares by identity
    forms = {r.index: _canonical(r.lhs, r.rhs) for r in R.rules}
    out: list[Overlap] = []
    for outer in R.rules:
        taken = variables(outer.lhs)
        renamed: dict[int, Rule] = {}  # inner rule index -> variant apart from outer
        for pos, sub in iter_positions(outer.lhs):
            if isinstance(sub, Var):
                continue
            # a rule headed by another symbol never unifies with sub
            for inner in R.by_root.get(sub.symbol, ()):
                if pos == () and forms[inner.index] == forms[outer.index]:
                    continue
                variant = renamed.get(inner.index)
                if variant is None:
                    variant = renamed[inner.index] = rename_apart(inner, taken)
                mgu = unify(variant.lhs, sub)
                if mgu is not None:
                    out.append(Overlap(variant, pos, outer, mgu))
    return out


def critical_pair_of(o: Overlap) -> CriticalPair:
    left = replace_at(o.source, o.pos, apply_subst(o.mgu, o.inner.rhs))
    right = apply_subst(o.mgu, o.outer.rhs)
    return CriticalPair(left, right, o)


def critical_pairs(R: TRS) -> list[CriticalPair]:
    return [critical_pair_of(o) for o in overlaps(R)]


def _canonical(lhs: Term, rhs: Term) -> tuple[Term, Term]:
    """lhs -> rhs with its variables renamed to v0, v1, ... in order of first
    occurrence, so that variant rules compare equal. The terms are rebuilt
    with an explicit stack, since rules may nest deeper than the recursion
    limit."""
    names: dict[str, Var] = {}
    built: list[Term] = []
    todo: list[Term | tuple[str, int]] = [rhs, lhs]
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            v = names.get(t.name)
            if v is None:
                v = names[t.name] = Var(f"v{len(names)}")
            built.append(v)
        elif isinstance(t, Fun):
            # the arguments left to right, then the node itself
            todo.append((t.symbol, len(t.args)))
            todo.extend(reversed(t.args))
        else:
            symbol, n = t
            args = tuple(built[len(built) - n:])
            del built[len(built) - n:]
            built.append(Fun(symbol, args))
    lhs, rhs = built
    return lhs, rhs


def cps(pairs: list[CriticalPair], exclude_trivial: bool = False) -> TRS:
    """The rewrite system of critical pair steps of a system's critical pairs.

    Each pair contributes both steps out of its overlap's source: the
    contraction of the inner redex and the contraction by the outer rule.
    With exclude_trivial, trivial pairs contribute nothing.
    """
    steps: list[Rule] = []
    for cp in pairs:
        if exclude_trivial and cp.trivial:
            continue
        for target in (cp.left, cp.right):
            steps.append(Rule(len(steps), *_canonical(cp.origin.source, target)))
    return fresh_trs(steps)
