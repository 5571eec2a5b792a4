"""Overlaps, critical pairs and the system of critical pair steps."""

from __future__ import annotations

from .rewriting import TRS, Rule, fresh_trs, rename_apart
from .terms import (
    Frozen,
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

_set = object.__setattr__


class Overlap(Frozen):
    """`inner` is a renamed-apart variant that keeps its original index.
    Overlaps compare by identity."""

    __slots__ = ("inner", "pos", "outer", "mgu")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, inner: Rule, pos: Position, outer: Rule, mgu: Subst) -> None:
        _set(self, "inner", inner)
        _set(self, "pos", pos)
        _set(self, "outer", outer)
        _set(self, "mgu", mgu)

    @property
    def source(self) -> Term:
        return apply_subst(self.mgu, self.outer.lhs)

    def to_json(self) -> dict:
        return {"inner": self.inner.index, "outer": self.outer.index, "pos": list(self.pos),
                "source": str(self.source)}


class CriticalPair(Frozen):
    """`left` is the outer lhs with the inner redex contracted, `right` the
    outer rule's contractum. Critical pairs compare by identity."""

    __slots__ = ("left", "right", "origin")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, left: Term, right: Term, origin: Overlap) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "origin", origin)

    @property
    def trivial(self) -> bool:
        return self.left == self.right

    def to_json(self) -> dict:
        return {"left": str(self.left), "right": str(self.right),
                "origin": self.origin.to_json()}


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
