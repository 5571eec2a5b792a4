"""Prover verdicts: YES with a replayable proof, NO with a witness, or MAYBE."""

from __future__ import annotations

from .terms import Record

YES = "YES"
NO = "NO"
MAYBE = "MAYBE"


class Verdict(Record):
    __slots__ = ("kind", "criterion", "details")
    __hash__ = None

    def __init__(self, kind: str, criterion: str, details: dict | None = None) -> None:
        self.kind = kind  # YES | NO | MAYBE
        self.criterion = criterion
        self.details = {} if details is None else details

    @property
    def is_yes(self) -> bool:
        return self.kind == YES


def yes(criterion: str, **details: object) -> Verdict:
    return Verdict(YES, criterion, details)


def no(criterion: str, **details: object) -> Verdict:
    return Verdict(NO, criterion, details)


def maybe(criterion: str, **details: object) -> Verdict:
    return Verdict(MAYBE, criterion, details)
