"""First-order terms, positions, substitutions, matching and unification.

Terms are immutable and hashable. Positions are tuples of 1-based argument
indices; the empty tuple addresses the root. Substitutions are plain dicts
from variable name to term and never contain identity bindings.

`iter_positions` walks a term with its positions, in lexicographic order
(preorder: a position before its extensions, and left arguments before
right ones), which is the order in which the prover visits redexes.
`subterms` is the same walk without the positions, whose tuples grow with
the depth; `variables`, `variable_occurrences` and the occurs check of
`unify` are built on it, so none of them recurses.
"""

from __future__ import annotations

from collections.abc import Iterator

Position = tuple[int, ...]
EPSILON: Position = ()

_set = object.__setattr__


class Record:
    """A record of the fields named in its class's `__slots__`. Records
    compare and hash by the tuple of their fields, as dataclasses do; a
    mutable one sets `__hash__ = None`."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"


class Frozen(Record):
    """An immutable record: `__init__` sets each field once, through
    `object.__setattr__`, and assignment afterwards raises. A frozen record
    that compares by identity restores `object.__eq__` and `object.__hash__`."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Term(Frozen):
    __slots__ = ()


class Var(Term):
    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "_hash", hash((name,)))

    def _key(self) -> tuple:
        return (self.name,)

    def __eq__(self, other):
        if other.__class__ is not Var:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


class Fun(Term):
    """A function symbol applied to arguments. Its hash, the hash of
    (symbol, args), is computed once, from the arguments' own stored hashes."""

    __slots__ = ("symbol", "args", "_hash")

    def __init__(self, symbol: str, args: tuple[Term, ...] = ()) -> None:
        _set(self, "symbol", symbol)
        _set(self, "args", args)
        _set(self, "_hash", hash((symbol, args)))

    def _key(self) -> tuple:
        return self.symbol, self.args

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Fun:
            return NotImplemented
        return (self._hash == other._hash and self.symbol == other.symbol
                and self.args == other.args)

    def __hash__(self) -> int:
        return self._hash

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


def subterms(t: Term) -> Iterator[Term]:
    """The subterms of t in the order of `iter_positions`."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Fun):
            stack += reversed(s.args)


def variable_occurrences(t: Term) -> list[str]:
    """Variable names in left-to-right order, with repetitions."""
    return [s.name for s in subterms(t) if isinstance(s, Var)]


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


def match(pattern: Term, subject: Term) -> Subst | None:
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


def unify(s: Term, t: Term) -> Subst | None:
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
            if any(u == a for u in subterms(b)):
                return None
            binding = {a.name: b}
            sigma = {x: apply_subst(binding, u) for x, u in sigma.items()}
            sigma[a.name] = b
        elif a.symbol == b.symbol and len(a.args) == len(b.args):
            queue.extend(zip(a.args, b.args))
        else:
            return None
    return sigma
