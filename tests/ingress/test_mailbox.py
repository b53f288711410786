"""Tests for the bounded per-meeting mailbox (``repro.ingress.mailbox``).

Includes the PR's property test: FIFO-per-meeting order and
oldest-evicted overflow under arbitrary put sequences.
"""

import pytest

from repro.ingress.events import SembReport
from repro.ingress.mailbox import Envelope, Mailbox


def _env(i, meeting="m"):
    return Envelope(
        event=SembReport(at_s=float(i), meeting=meeting, seq=i),
        cid=f"{meeting}#{i}",
    )


class TestMailboxBasics:
    def test_put_then_drain_is_fifo(self):
        box = Mailbox(capacity=8)
        for i in range(5):
            assert box.put(_env(i)) is None
            assert box.depth == i + 1
        assert [e.event.seq for e in box.drain()] == [0, 1, 2, 3, 4]
        assert box.depth == 0

    def test_pop_takes_the_oldest(self):
        box = Mailbox(capacity=4)
        for i in range(3):
            box.put(_env(i))
        assert box.pop().event.seq == 0
        assert box.depth == 2
        assert [e.event.seq for e in box.drain()] == [1, 2]

    def test_overflow_evicts_oldest(self):
        box = Mailbox(capacity=2)
        assert box.put(_env(0)) is None
        assert box.put(_env(1)) is None
        evicted = box.put(_env(2))
        assert evicted is not None and evicted.event.seq == 0
        assert box.depth == 2
        assert [e.event.seq for e in box.drain()] == [1, 2]

    def test_overflow_flag_is_read_and_clear(self):
        box = Mailbox(capacity=1)
        box.put(_env(0))
        box.put(_env(1))
        assert box.take_overflow() is True
        assert box.take_overflow() is False

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Mailbox(capacity=0)


class TestMailboxFifoProperty:
    def test_fifo_and_oldest_eviction_property(self):
        """Property: survivors are the newest ``capacity`` puts, in put
        order; everything older was evicted oldest-first; the overflow
        flag is set iff an eviction happened."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=120, deadline=None)
        @given(
            n=st.integers(min_value=1, max_value=50),
            capacity=st.integers(min_value=1, max_value=8),
        )
        def run(n, capacity):
            box = Mailbox(capacity=capacity)
            evicted = []
            max_depth = 0
            for i in range(n):
                out = box.put(_env(i))
                if out is not None:
                    evicted.append(out.event.seq)
                max_depth = max(max_depth, box.depth)
            keep = min(n, capacity)
            assert box.depth == keep
            survivors = [e.event.seq for e in box.drain()]
            assert survivors == list(range(n - keep, n))
            assert evicted == list(range(n - keep))
            assert max_depth == keep
            assert box.take_overflow() is (n > capacity)
            assert box.take_overflow() is False

        run()
