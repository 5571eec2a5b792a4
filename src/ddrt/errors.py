import time


class ResourceLimitError(Exception):
    """A node/step budget was exhausted before the computation closed.

    Callers treat this as "no answer", never as a negative answer.
    """


class Timeout(ResourceLimitError):
    """A search passed its deadline."""


class Meter:
    """The units of work of one bounded search. `spend` counts one unit and
    raises ResourceLimitError past `limit` units. Every 256 units it reads
    the clock, since reading it at every unit would slow the small searches,
    and raises Timeout past `deadline`, a time.monotonic() value. None sets
    no limit or no deadline."""

    __slots__ = ("what", "unit", "limit", "deadline", "spent")

    def __init__(self, what: str, unit: str, limit: int | None, deadline: float | None):
        self.what, self.unit, self.limit, self.deadline = what, unit, limit, deadline
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if self.limit is not None and self.spent > self.limit:
            raise ResourceLimitError(f"{self.what} exceeded {self.limit} {self.unit}")
        if (self.deadline is not None and not self.spent % 256
                and time.monotonic() > self.deadline):
            raise Timeout(f"{self.what} passed the deadline")
