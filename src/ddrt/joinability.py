"""Bounded joinability and minimal k-join instances.

A k-join instance of (s, t) is a pair of rule-label sequences, each of length
at most k, rewriting s and t to a common term. Label sequences are recorded in
application order from their own side, so the first right label is the rule
applied to t. Instances are identified by their label sequences; positions are
kept in the traces only.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .errors import Meter
from .rewriting import DEFAULT_NODE_BUDGET, TRS
from .terms import Frozen, Position, Term

Trace = tuple[tuple[Position, Term], ...]
Seq = tuple[int, ...]
Key = tuple[Seq, Seq]

_set = object.__setattr__


class JoinInstance(Frozen):
    """Join instances compare by identity."""

    __slots__ = ("left_seq", "right_seq", "meet", "left_trace", "right_trace")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, left_seq: Seq, right_seq: Seq, meet: Term, left_trace: Trace,
                 right_trace: Trace) -> None:
        _set(self, "left_seq", left_seq)
        _set(self, "right_seq", right_seq)
        _set(self, "meet", meet)
        _set(self, "left_trace", left_trace)
        _set(self, "right_trace", right_trace)

    def to_json(self) -> dict:
        return {
            "left_seq": list(self.left_seq),
            "right_seq": list(self.right_seq),
            "meet": str(self.meet),
            "left_trace": [[list(p), str(t)] for p, t in self.left_trace],
            "right_trace": [[list(p), str(t)] for p, t in self.right_trace],
        }


def _label_reachable(
    R: TRS, t: Term, k: int, budget: int, deadline: float | None
) -> dict[Term, dict[tuple[int, ...], Trace]]:
    """Map each term reachable within k steps to its label sequences and traces.

    A term's reducts come from `R.reducts`, so a term reached by many label
    sequences, or by many searches over R, is expanded once. Each state, the
    root included, spends one unit of a `Meter` of `budget` states.
    """
    reached: dict[Term, dict[tuple[int, ...], Trace]] = {t: {(): ()}}
    frontier: list[tuple[Term, tuple[int, ...], Trace]] = [(t, (), ())]
    spend = Meter("joinability search", "states", budget, deadline).spend
    spend()
    for _ in range(k):
        nxt: list[tuple[Term, tuple[int, ...], Trace]] = []
        for s, seq, trace in frontier:
            for idx, pos, u in R.reducts(s):
                useq = seq + (idx,)
                per_term = reached.setdefault(u, {})
                if useq in per_term:
                    continue
                per_term[useq] = utrace = trace + ((pos, u),)
                spend()
                nxt.append((u, useq, utrace))
        frontier = nxt
    return reached


def _join_candidates(
    R: TRS, s: Term, t: Term, k: int, budget: int, deadline: float | None
) -> dict[Key, tuple[Term, Trace, Trace]]:
    """Every k-join of (s, t) by label sequences, with the first meet and
    traces found for each. Each pair of sequences at a meet spends one unit
    of a `Meter` with no limit, so the product stops at the deadline."""
    left = _label_reachable(R, s, k, budget, deadline)
    right = _label_reachable(R, t, k, budget, deadline)
    spend = Meter("joinability search", "candidates", None, deadline).spend
    candidates: dict[Key, tuple[Term, Trace, Trace]] = {}
    # left is filled in a fixed breadth-first order over `R.reducts`, so
    # walking it (not a set of meets) keeps the first meet hash-independent
    for meet, lefts in left.items():
        rights = right.get(meet)
        if rights is None:
            continue
        for lseq, ltrace in lefts.items():
            for rseq, rtrace in rights.items():
                spend()
                candidates.setdefault((lseq, rseq), (meet, ltrace, rtrace))
    return candidates


def _order(key: Key) -> tuple[int, Key]:
    return len(key[0]) + len(key[1]), key


def _minimal_keys(keys, deadline: float | None) -> list[Key]:
    """The keys into which no other key embeds componentwise.

    A key is dominated exactly when some pair of its subsequences, other than
    itself, is a key too, so each key costs a few set lookups instead of a
    scan over all other keys. Each key spends one unit of a `Meter` with no
    limit, so the filter stops at the deadline.
    """
    by_left: dict[Seq, set[Seq]] = {}
    for lseq, rseq in keys:
        by_left.setdefault(lseq, set()).add(rseq)

    @cache
    def proper_subsequences(seq: Seq) -> frozenset[Seq]:
        return frozenset(c for n in range(len(seq)) for c in combinations(seq, n))

    spend = Meter("joinability search", "candidates", None, deadline).spend

    def dominated(lseq: Seq, rseq: Seq) -> bool:
        spend()
        rbelow = proper_subsequences(rseq)
        return not by_left[lseq].isdisjoint(rbelow) or any(
            rights is not None and (rseq in rights or not rights.isdisjoint(rbelow))
            for rights in map(by_left.get, proper_subsequences(lseq))
        )

    return [key for key in keys if not dominated(*key)]


def join_instances(
    R: TRS, s: Term, t: Term, k: int, budget: int = DEFAULT_NODE_BUDGET,
    deadline: float | None = None,
) -> list[JoinInstance]:
    """All minimal k-join instances of (s, t), deduplicated by label sequences,
    by total length and then label sequences. The first is the least k-join
    of all, since anything that embeds into it is shorter."""
    candidates = _join_candidates(R, s, t, k, budget, deadline)
    return [
        JoinInstance(*key, *candidates[key])
        for key in sorted(_minimal_keys(candidates, deadline), key=_order)
    ]
