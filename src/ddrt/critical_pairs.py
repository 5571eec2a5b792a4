"""Overlaps, critical pairs and the system of critical pair steps."""

from __future__ import annotations

from dataclasses import dataclass

from .rewriting import TRS, Rule, rename_apart
from .terms import (
    Fun,
    Position,
    Subst,
    Term,
    Var,
    apply_subst,
    iter_positions,
    match,
    positions,
    replace_at,
    subterm_at,
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


def _variants(r1: Rule, r2: Rule) -> bool:
    # r1 and r2 are variants iff each rule matches the other as a whole
    pack1 = Fun("", (r1.lhs, r1.rhs))
    pack2 = Fun("", (r2.lhs, r2.rhs))
    return match(pack1, pack2) is not None and match(pack2, pack1) is not None


def overlaps(R: TRS) -> list[Overlap]:
    """All overlaps of R, in (outer index, position, inner index) order.

    Root overlaps of a rule with a variant of itself are excluded.
    """
    out: list[Overlap] = []
    for outer in R.rules:
        fun_pos, _ = positions(outer.lhs)
        taken = variables(outer.lhs) | variables(outer.rhs)
        renamed: dict[int, Rule] = {}  # inner rule index -> variant apart from outer
        for pos in sorted(fun_pos):
            sub = subterm_at(outer.lhs, pos)
            # a rule headed by another symbol never unifies with sub
            for inner in R.by_root.get(sub.symbol, ()):
                if pos == () and _variants(inner, outer):
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
    # rename variables to v0, v1, ... in preorder so variant rules compare equal
    mapping: dict[str, str] = {}
    for t in (lhs, rhs):
        for _, s in iter_positions(t):
            if isinstance(s, Var) and s.name not in mapping:
                mapping[s.name] = f"v{len(mapping)}"

    def rn(t: Term) -> Term:
        if isinstance(t, Var):
            return Var(mapping[t.name])
        return Fun(t.symbol, tuple(rn(a) for a in t.args))

    return rn(lhs), rn(rhs)


def _steps_to_trs(steps: list[tuple[Term, Term]]) -> TRS:
    rules: list[Rule] = []
    seen: set[tuple[Term, Term]] = set()
    for lhs, rhs in steps:
        key = _canonical(lhs, rhs)
        if key not in seen:
            seen.add(key)
            rules.append(Rule(len(rules), key[0], key[1]))
    return TRS(tuple(rules))


def cps(pairs: list[CriticalPair], exclude_trivial: bool = False) -> TRS:
    """The rewrite system of critical pair steps of a system's critical pairs.

    Each pair contributes both steps out of its overlap's source: the
    contraction of the inner redex and the contraction by the outer rule.
    With exclude_trivial, trivial pairs contribute nothing.
    """
    steps: list[tuple[Term, Term]] = []
    for cp in pairs:
        if exclude_trivial and cp.trivial:
            continue
        steps.append((cp.origin.source, cp.left))
        steps.append((cp.origin.source, cp.right))
    return _steps_to_trs(steps)
