"""Tests for the round-robin arbiter, through the calls the router makes.

Switch and VC allocation grant with ``grant_from`` (the requesting line
indices) and, when exactly one line requests, with ``take``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import RoundRobinArbiter


def _arbitrate(arb, lines):
    """Grant the way the router does: ``take`` for a sole candidate."""
    if len(lines) == 1:
        return arb.take(lines[0])
    return arb.grant_from(lines)


class TestCommonBehaviour:
    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    def test_no_request_no_grant(self):
        assert RoundRobinArbiter(4).grant_from([]) is None

    def test_single_request_granted(self):
        assert RoundRobinArbiter(4).grant_from([2]) == 2
        assert RoundRobinArbiter(4).take(2) == 2

    def test_grant_is_a_requester(self):
        arb = RoundRobinArbiter(8)
        lines = [0, 2, 4, 7]
        for _ in range(20):
            assert arb.grant_from(lines) in lines

    def test_line_order_does_not_matter(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant_from([3, 1]) == 1
        assert arb.grant_from([1, 3]) == 3


class TestRoundRobinFairness:
    def test_all_requesters_rotate(self):
        arb = RoundRobinArbiter(4)
        grants = [arb.grant_from([0, 1, 2, 3]) for _ in range(8)]
        assert grants == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_winner_gets_lowest_priority(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant_from([0, 3]) == 0
        # 0 just won; with 0 and 3 requesting, 3 must win now
        assert arb.grant_from([0, 3]) == 3

    def test_take_moves_the_pointer_past_its_line(self):
        arb = RoundRobinArbiter(4)
        arb.take(1)
        assert arb.grant_from([0, 1, 2]) == 2
        arb.take(3)
        assert arb.grant_from([1, 3]) == 1


@settings(max_examples=100)
@given(data=st.data())
def test_property_no_starvation(data):
    """A persistent requester among random others is served within
    ``size`` grants."""
    size = data.draw(st.integers(min_value=1, max_value=8))
    arb = RoundRobinArbiter(size)
    persistent = data.draw(st.integers(min_value=0, max_value=size - 1))
    waits = 0
    for _ in range(size * 3):
        others = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        lines = [line for line, asserted in enumerate(others) if asserted]
        if persistent not in lines:
            lines.append(persistent)
        lines = data.draw(st.permutations(lines))
        if _arbitrate(arb, lines) == persistent:
            waits = 0
        else:
            waits += 1
        assert waits < size, "persistent requester starved"
