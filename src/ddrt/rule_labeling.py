"""Precedence formulas over rule indices, the rule-labeling constraint and its solver.

The satisfiability target is a well-founded order on rules. Formulas are
trees of conjunctions, disjunctions and the atoms ``a > b`` and ``a >= b``,
where ``>=`` is interpreted as the reflexive closure of ``>``: it holds iff
the two rule indices coincide or ``a > b`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .critical_pairs import CriticalPair
from .errors import Meter
from .joinability import JoinInstance


class Formula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class And(Formula):
    parts: tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " & ".join(map(str, self.parts)) + ")" if self.parts else "T"


@dataclass(frozen=True, slots=True)
class Or(Formula):
    parts: tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " | ".join(map(str, self.parts)) + ")" if self.parts else "F"


@dataclass(frozen=True, slots=True)
class Gt(Formula):
    a: int
    b: int

    def __str__(self) -> str:
        return f"{self.a}>{self.b}"


@dataclass(frozen=True, slots=True)
class Geq(Formula):
    a: int
    b: int

    def __str__(self) -> str:
        return f"{self.a}>={self.b}"


# the truth constants: an empty conjunction holds, an empty disjunction does not
TOP = And(())
BOTTOM = Or(())


def conj(parts: Iterable[Formula]) -> Formula:
    kept = [p for p in parts if p != TOP]
    if BOTTOM in kept:
        return BOTTOM
    if len(kept) == 1:
        return kept[0]
    return And(tuple(kept))


def disj(parts: Iterable[Formula]) -> Formula:
    kept = [p for p in parts if p != BOTTOM]
    if TOP in kept:
        return TOP
    if len(kept) == 1:
        return kept[0]
    return Or(tuple(kept))


LevelMap = dict[int, int]


def evaluate(f: Formula, levels: LevelMap) -> Optional[bool]:
    """f under a level map, in three-valued (Kleene) logic.

    An atom is decided only once both of its indices have a level; None
    means the value depends on levels not yet given.
    """
    if isinstance(f, (Gt, Geq)):
        a, b = levels.get(f.a), levels.get(f.b)
        if a is None or b is None:
            return None
        return a > b or (isinstance(f, Geq) and f.a == f.b)
    if isinstance(f, And):
        value: Optional[bool] = True
        for p in f.parts:
            v = evaluate(p, levels)
            if v is False:
                return False
            if v is None:
                value = None
        return value
    if isinstance(f, Or):
        value = False
        for p in f.parts:
            v = evaluate(p, levels)
            if v:
                return True
            if v is None:
                value = None
        return value
    raise TypeError(f)


def atom_indices(f: Formula) -> set[int]:
    if isinstance(f, (Gt, Geq)):
        return {f.a, f.b}
    if isinstance(f, (And, Or)):
        out: set[int] = set()
        for p in f.parts:
            out |= atom_indices(p)
        return out
    return set()


def build_phi(alpha: int, beta: int, gammas: tuple[int, ...]) -> Formula:
    """Constraint making one side of a join sequence decreasing for (alpha, beta).

    Disjunct i puts the first i labels strictly below alpha, lets label i play
    the "at most beta" step, and requires the remaining labels to sit below
    alpha or beta; the final disjunct puts every label strictly below alpha.
    """
    n = len(gammas)
    disjuncts: list[Formula] = []
    for i in range(n + 1):
        prefix: list[Formula] = [Gt(alpha, g) for g in gammas[:i]]
        if i == n:
            psi: Formula = TOP
        else:
            psi = conj(
                [Geq(beta, gammas[i])]
                + [disj([Gt(alpha, g), Gt(beta, g)]) for g in gammas[i + 1 :]]
            )
        disjuncts.append(conj(prefix + [psi]))
    return disj(disjuncts)


def build_rl(pairs: list[CriticalPair], instances: list[list[JoinInstance]]) -> Formula:
    """The rule-labeling constraint of a system whose critical pairs are
    `pairs`, given the minimal join instances of each pair.

    A pair without join instances contributes an unsatisfiable conjunct.
    """
    return conj(
        disj(
            conj(
                [
                    build_phi(cp.origin.inner.index, cp.origin.outer.index, inst.left_seq),
                    build_phi(cp.origin.outer.index, cp.origin.inner.index, inst.right_seq),
                ]
            )
            for inst in joins
        )
        for cp, joins in zip(pairs, instances)
    )


def solve_precedence(
    f: Formula, n_rules: int, deadline: Optional[float] = None
) -> Optional[LevelMap]:
    """A level map over all rule indices satisfying f, or None if unsatisfiable.

    Depth-first search gives the involved indices, in increasing order, the
    levels 0 to m-1 (m the number of involved indices) and drops a partial
    map as soon as f is false under it. The least satisfying map uses every
    level below its highest, since closing a gap keeps f true and makes the
    map smaller, so a partial map whose gaps outnumber the indices still
    without a level is dropped too. Only branches without that map are
    dropped, so the map found is the lexicographically least one. Indices
    not in f get level 0. Each node spends one unit of a `Meter` with no
    limit.
    """
    involved = sorted(atom_indices(f))
    m = len(involved)
    levels: LevelMap = {}
    uses = [0] * m  # how many indices in the partial map sit at each level
    spend = Meter("precedence search", "nodes", None, deadline).spend

    def extend(i: int, top: int, distinct: int) -> bool:
        spend()
        value = evaluate(f, levels)
        if value is False:
            return False
        if value is True:
            # the least completion puts every index left at level 0
            levels.update((j, 0) for j in involved[i:])
            return True
        for level in range(m):
            fresh = uses[level] == 0
            new_top = max(top, level)
            if new_top + 1 - distinct - fresh > m - i - 1:
                continue  # more gaps than indices left to fill them
            levels[involved[i]] = level
            uses[level] += 1
            found = extend(i + 1, new_top, distinct + fresh)
            uses[level] -= 1
            if found:
                return True
        del levels[involved[i]]
        return False

    if not extend(0, -1, 0):
        return None
    full = {i: 0 for i in range(n_rules)}
    full.update(levels)
    return full
