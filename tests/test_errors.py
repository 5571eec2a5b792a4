"""Tests for the meter every bounded search spends from."""

from __future__ import annotations

import time

import pytest

from ddrt.errors import Meter, ResourceLimitError, Timeout


def test_limit_message_names_the_search_the_limit_and_the_unit():
    meter = Meter("closure", "terms", 3, None)
    for _ in range(3):
        meter.spend()
    with pytest.raises(ResourceLimitError, match="^closure exceeded 3 terms$") as info:
        meter.spend()
    assert not isinstance(info.value, Timeout)


def test_past_deadline_raises_timeout_at_the_first_unit():
    meter = Meter("search", "nodes", None, time.monotonic() - 1)
    with pytest.raises(Timeout, match="^search passed the deadline$"):
        meter.spend()
    assert meter.spent == 1


def test_no_limit_and_no_deadline_never_raise():
    meter = Meter("search", "nodes", None, None)
    for _ in range(10_000):
        meter.spend()
    assert meter.spent == 10_000


def test_timeout_is_a_resource_limit():
    assert issubclass(Timeout, ResourceLimitError)
