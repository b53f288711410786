"""Transport-wide congestion control bookkeeping (sender and receiver).

Sec. 7: "we use transport-wide congestion control for its flexibility."
Every outgoing packet of a client — across all its simulcast streams —
carries one transport-wide sequence number.  The receiver batches
(seq, arrival time) pairs into periodic feedback; the sender matches them
against its send-time log and produces the
:class:`~repro.cc.gcc.FeedbackSample` list the GCC estimator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..rtp.rtcp import TwccFeedback
from .gcc import FeedbackSample

_SEQ_MOD = 2**16
#: Arrival times travel as microseconds modulo 2**31 (the feedback's
#: signed 32-bit field wraps every 35.8 minutes); -1 still means lost.
_ARRIVAL_MOD = 2**31


@dataclass
class _SentRecord:
    send_time_s: float
    size_bytes: int


class TwccSender:
    """Sender half: stamps sequence numbers and matches feedback."""

    def __init__(self, history_limit: int = 4096, loss_window_batches: int = 20) -> None:
        self._next_seq = 0
        self._history: Dict[int, _SentRecord] = {}
        self._history_limit = history_limit
        self.lost_reported = 0
        self.acked_reported = 0
        #: (acked, lost) per feedback batch, for the windowed loss fraction.
        self._batch_stats: List[Tuple[int, int]] = []
        self._loss_window_batches = loss_window_batches

    def register_send(self, size_bytes: int, now_s: float) -> int:
        """Record an outgoing packet; returns its transport-wide seq."""
        seq = self._next_seq
        self._next_seq = (self._next_seq + 1) % _SEQ_MOD
        self._history[seq] = _SentRecord(now_s, size_bytes)
        if len(self._history) > self._history_limit:
            # Drop the oldest entries (unacked packets presumed lost).
            for old in sorted(self._history)[: len(self._history) // 4]:
                del self._history[old]
        return seq

    def on_feedback(self, feedback: TwccFeedback) -> List[FeedbackSample]:
        """Match a feedback packet to the send log.

        Returns:
            Samples for acknowledged packets, in send order, with arrival
            times unwrapped past the 2**31 µs wrap.  Packets reported
            lost (arrival time -1) increment ``lost_reported``.
        """
        samples: List[Tuple[int, FeedbackSample]] = []
        batch_acked = 0
        batch_lost = 0
        for seq, arrival_us in feedback.arrivals:
            record = self._history.pop(seq, None)
            if record is None:
                continue
            if arrival_us < 0:
                self.lost_reported += 1
                batch_lost += 1
                continue
            self.acked_reported += 1
            batch_acked += 1
            # Unwrap to the period nearest the send time: an arrival
            # trails its send by far less than half a period.
            send_us = int(record.send_time_s * 1e6)
            arrival_us += (
                (send_us - arrival_us + _ARRIVAL_MOD // 2) // _ARRIVAL_MOD
            ) * _ARRIVAL_MOD
            samples.append(
                (
                    seq,
                    FeedbackSample(
                        send_time_s=record.send_time_s,
                        arrival_time_s=arrival_us / 1e6,
                        size_bytes=record.size_bytes,
                    ),
                )
            )
        samples.sort(key=lambda pair: pair[1].send_time_s)
        if batch_acked or batch_lost:
            self._batch_stats.append((batch_acked, batch_lost))
            if len(self._batch_stats) > 4 * self._loss_window_batches:
                del self._batch_stats[: -self._loss_window_batches]
        return [sample for _, sample in samples]

    def loss_fraction(self) -> float:
        """Loss fraction over everything reported so far (lifetime)."""
        total = self.lost_reported + self.acked_reported
        if total == 0:
            return 0.0
        return self.lost_reported / total

    def recent_loss_fraction(self) -> float:
        """Loss fraction over the recent feedback window.

        This is what the loss-based controller should consume: a lifetime
        fraction would keep punishing the rate long after one congestion
        episode ended.
        """
        window = self._batch_stats[-self._loss_window_batches :]
        acked = sum(a for a, _ in window)
        lost = sum(l for _, l in window)
        total = acked + lost
        if total == 0:
            return 0.0
        return lost / total


class TwccReceiver:
    """Receiver half: logs arrivals and emits periodic feedback."""

    def __init__(self, sender_ssrc: int = 0) -> None:
        self._sender_ssrc = sender_ssrc
        self._pending: List[Tuple[int, int]] = []  # (seq, arrival_us)
        self._expected_next: Optional[int] = None

    def on_packet(self, twcc_seq: int, now_s: float) -> None:
        """Record one arriving packet."""
        arrival_us = int(now_s * 1e6) % _ARRIVAL_MOD
        if self._expected_next is not None:
            gap = (twcc_seq - self._expected_next) % _SEQ_MOD
            if 0 < gap < 100:
                # Report the sequence-number holes as losses.
                for missing in range(gap):
                    self._pending.append(
                        ((self._expected_next + missing) % _SEQ_MOD, -1)
                    )
        self._expected_next = (twcc_seq + 1) % _SEQ_MOD
        self._pending.append((twcc_seq, arrival_us))

    def build_feedback(self) -> Optional[TwccFeedback]:
        """Drain pending arrivals into one feedback packet (None if empty)."""
        if not self._pending:
            return None
        base_seq = self._pending[0][0]
        feedback = TwccFeedback(
            sender_ssrc=self._sender_ssrc,
            base_seq=base_seq,
            arrivals=tuple(self._pending),
        )
        self._pending = []
        return feedback
