"""First-order terms, positions, substitutions, matching and unification.

Terms are immutable and hashable. Positions are tuples of 1-based argument
indices; the empty tuple addresses the root. Substitutions are plain dicts
from variable name to term and never contain identity bindings.

`iter_positions` is the one walk over a term. It yields positions in
lexicographic order (preorder: a position before its extensions, and left
arguments before right ones), which is the order in which the prover visits
redexes. `variables`, `variable_occurrences` and the occurs check of `unify`
are built on it, so none of them recurses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

Position = tuple[int, ...]
EPSILON: Position = ()


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Fun(Term):
    symbol: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        # an explicit stack: proof terms may nest deeper than the recursion limit
        parts: list[str] = []
        stack: list[Term | str] = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                parts.append(t)
            elif isinstance(t, Var):
                parts.append(t.name)
            elif t.args:
                parts.append(t.symbol + "(")
                stack.append(")")
                for a in reversed(t.args[1:]):
                    stack += (a, ",")
                stack.append(t.args[0])
            else:
                parts.append(t.symbol)
        return "".join(parts)


Subst = dict[str, Term]


def iter_positions(t: Term) -> Iterator[tuple[Position, Term]]:
    """All (position, subterm) pairs, positions in lexicographic order."""
    stack: list[tuple[Position, Term]] = [(EPSILON, t)]
    while stack:
        p, s = stack.pop()
        yield p, s
        if isinstance(s, Fun):
            for i in range(len(s.args), 0, -1):
                stack.append((p + (i,), s.args[i - 1]))


def variable_occurrences(t: Term) -> list[str]:
    """Variable names in left-to-right order, with repetitions."""
    return [s.name for _, s in iter_positions(t) if isinstance(s, Var)]


def variables(t: Term) -> set[str]:
    return set(variable_occurrences(t))


def replace_at(t: Term, p: Position, u: Term) -> Term:
    if not p:
        return u
    i = p[0]
    if not isinstance(t, Fun) or not 1 <= i <= len(t.args):
        raise ValueError(f"invalid position {p} in {t}")
    args = list(t.args)
    args[i - 1] = replace_at(args[i - 1], p[1:], u)
    return Fun(t.symbol, tuple(args))


def apply_subst(sigma: Subst, t: Term) -> Term:
    if isinstance(t, Var):
        return sigma.get(t.name, t)
    if not sigma:
        return t
    return Fun(t.symbol, tuple(apply_subst(sigma, a) for a in t.args))


def match(pattern: Term, subject: Term) -> Optional[Subst]:
    """Substitution sigma with pattern*sigma == subject, or None."""
    sigma: Subst = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            bound = sigma.get(p.name)
            if bound is None:
                sigma[p.name] = s
            elif bound != s:
                return None
        elif isinstance(s, Fun) and p.symbol == s.symbol and len(p.args) == len(s.args):
            stack.extend(zip(p.args, s.args))
        else:
            return None
    return {x: s for x, s in sigma.items() if not (isinstance(s, Var) and s.name == x)}


def unify(s: Term, t: Term) -> Optional[Subst]:
    """Idempotent most general unifier of s and t (occurs check on), or None."""
    sigma: Subst = {}
    queue = [(s, t)]
    while queue:
        a, b = queue.pop()
        a = apply_subst(sigma, a)
        b = apply_subst(sigma, b)
        if a == b:
            continue
        if isinstance(a, Fun) and isinstance(b, Var):
            a, b = b, a
        if isinstance(a, Var):
            if any(u == a for _, u in iter_positions(b)):
                return None
            binding = {a.name: b}
            sigma = {x: apply_subst(binding, u) for x, u in sigma.items()}
            sigma[a.name] = b
        elif a.symbol == b.symbol and len(a.args) == len(b.args):
            queue.extend(zip(a.args, b.args))
        else:
            return None
    return sigma

