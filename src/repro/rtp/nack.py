"""Packet-loss repair: Generic NACK (RFC 4585 §6.2.1) + retransmission.

Real-time video at the loss rates of Table 2 (30-50 %) is only usable with
repair: receivers NACK missing sequence numbers and senders retransmit
from a short cache.  Both hops repair independently, like production SFUs:

* client -> node (uplink): the node tracks ingest gaps per SSRC and NACKs
  the publishing client, which retransmits from its send cache;
* node -> client (downlink): the client tracks gaps per SSRC and NACKs the
  node, which retransmits from its forwarding cache.

Wire format (RTPFB, PT=205, FMT=1), FCI entries of ``PID`` (first lost
seq) + ``BLP`` (bitmask of the following 16 seqs).
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .packet import RtpPacket, seq_distance
from .rtcp import PT_RTPFB, RTCP_VERSION, _decoded, _require_u32, parse_common_header

#: RTPFB format number of the Generic NACK.
NACK_FMT = 1

_SEQ_MOD = 2**16


#: One FCI entry: PID, then the bitmask of the 16 seqs after it.
_FCI = struct.Struct("!HH")
#: A Generic NACK up to its FCI: common header, sender SSRC, media SSRC.
_HEAD = struct.Struct("!BBHII")


def _pack_fci(seqs: Sequence[int]) -> List[bytes]:
    """Group sorted sequence numbers into packed (PID, BLP) FCI entries."""
    entries: List[bytes] = []
    ordered = sorted(set(s % _SEQ_MOD for s in seqs))
    index = 0
    while index < len(ordered):
        pid = ordered[index]
        blp = 0
        index += 1
        while index < len(ordered):
            offset = seq_distance(pid, ordered[index])
            if not 1 <= offset <= 16:
                break
            blp |= 1 << (offset - 1)
            index += 1
        entries.append(_FCI.pack(pid, blp))
    return entries


def _unpack_fci(fci) -> List[int]:
    seqs: List[int] = []
    for pid, blp in _FCI.iter_unpack(fci):
        seqs.append(pid)
        # Set bits only, lowest first: bit b (low == 1 << b) is pid + b + 1.
        while blp:
            low = blp & -blp
            seqs.append((pid + low.bit_length()) % _SEQ_MOD)
            blp ^= low
    return seqs


@dataclass(frozen=True)
class GenericNack:
    """A Generic NACK: request retransmission of ``seqs`` on ``media_ssrc``."""

    sender_ssrc: int
    media_ssrc: int
    seqs: Tuple[int, ...]

    def __post_init__(self) -> None:
        _require_u32(self.sender_ssrc, "sender ssrc")
        _require_u32(self.media_ssrc, "media ssrc")

    def serialize(self) -> bytes:
        """Encode to wire bytes."""
        fci = _pack_fci(self.seqs)
        head = _HEAD.pack(
            (RTCP_VERSION << 6) | NACK_FMT,
            PT_RTPFB,
            2 + len(fci),
            self.sender_ssrc,
            self.media_ssrc,
        )
        return b"".join([head, *fci])

    @classmethod
    def parse(cls, data: bytes) -> "GenericNack":
        """Decode from wire bytes (raises ValueError on malformed input)."""
        fmt, packet_type, total = parse_common_header(data)
        if packet_type != PT_RTPFB or fmt != NACK_FMT:
            raise ValueError("not a Generic NACK packet")
        if len(data) < total or total < 12:
            raise ValueError("Generic NACK truncated")
        _, _, _, sender_ssrc, media_ssrc = _HEAD.unpack_from(data)
        return _decoded(
            cls,
            sender_ssrc=sender_ssrc,
            media_ssrc=media_ssrc,
            seqs=tuple(_unpack_fci(memoryview(data)[12:total])),
        )


def is_nack(data: bytes) -> bool:
    """Cheap test whether an RTCP packet is a Generic NACK."""
    try:
        fmt, packet_type, _ = parse_common_header(data)
    except ValueError:
        return False
    return packet_type == PT_RTPFB and fmt == NACK_FMT


class RetransmissionCache:
    """Bounded per-SSRC cache of recently sent RTP packets.

    Retransmissions reuse the original SSRC and sequence number (legacy
    same-SSRC RTX) — receivers dedupe naturally by sequence number.
    """

    def __init__(self, depth_per_ssrc: int = 512) -> None:
        if depth_per_ssrc < 1:
            raise ValueError("cache depth must be positive")
        self._depth = depth_per_ssrc
        self._cache: Dict[int, "OrderedDict[int, RtpPacket]"] = {}
        self.hits = 0
        self.misses = 0

    def store(self, packet: RtpPacket) -> None:
        """Cache one sent packet for potential retransmission."""
        per_ssrc = self._cache.setdefault(packet.ssrc, OrderedDict())
        per_ssrc[packet.seq] = packet
        while len(per_ssrc) > self._depth:
            per_ssrc.popitem(last=False)

    def lookup(self, ssrc: int, seq: int) -> Optional[RtpPacket]:
        """Fetch a cached packet by (ssrc, seq), or None."""
        packet = self._cache.get(ssrc, {}).get(seq)
        if packet is None:
            self.misses += 1
        else:
            self.hits += 1
        return packet


@dataclass
class _MissingSeq:
    first_seen_s: float
    attempts: int = 0
    last_request_s: float = -1.0


class NackTracker:
    """Receiver-side gap detection and NACK scheduling for one stream set.

    Feed every received (ssrc, seq); call :meth:`due_requests` on a short
    periodic cadence to collect the (ssrc, seqs) batches that should be
    NACKed now.  Sequences are re-requested up to ``max_attempts`` times,
    then abandoned (the jitter buffer will declare the frame lost).

    Args:
        initial_delay_s: wait before the first NACK (reordering grace).
        retry_interval_s: spacing between repeat NACKs.
        max_attempts: total NACKs per missing packet.
        max_tracked: bound on concurrently tracked losses per SSRC.
    """

    def __init__(
        self,
        initial_delay_s: float = 0.01,
        retry_interval_s: float = 0.06,
        max_attempts: int = 5,
        max_tracked: int = 256,
    ) -> None:
        self._initial_delay = initial_delay_s
        self._retry_interval = retry_interval_s
        self._max_attempts = max_attempts
        self._max_tracked = max_tracked
        self._highest: Dict[int, int] = {}
        self._missing: Dict[int, Dict[int, _MissingSeq]] = {}
        #: Lifetime counters (receiver-side loss approximation).
        self.packets_seen = 0
        self.holes_seen = 0
        #: Adaptive reordering tolerance: how late "missing" packets turn
        #: out to arrive on their own.  Paths with heavy jitter reorder
        #: constantly; NACKing reordered packets wastes bandwidth on
        #: useless retransmissions, so the initial NACK delay tracks the
        #: observed reorder window.
        self._reorder_window_s = 0.0

    def on_packet(self, ssrc: int, seq: int, now_s: float) -> None:
        """Record one received packet; detect holes behind it."""
        self.packets_seen += 1
        missing = self._missing.setdefault(ssrc, {})
        record = missing.pop(seq, None)  # a reordered packet or an RTX
        if record is not None and record.attempts == 0:
            # It arrived before we ever asked: pure reordering.  Widen the
            # tolerance window toward this observed lateness.
            lateness = now_s - record.first_seen_s
            self._reorder_window_s = max(
                self._reorder_window_s * 0.98, min(lateness * 1.25, 0.35)
            )
        highest = self._highest.get(ssrc)
        if highest is None:
            self._highest[ssrc] = seq
            return
        gap = seq_distance(highest, seq)
        if gap == 0 or gap >= 2**15:
            return  # duplicate or reordered packet from the past
        for k in range(1, gap):
            lost = (highest + k) % _SEQ_MOD
            if lost not in missing and len(missing) < self._max_tracked:
                missing[lost] = _MissingSeq(first_seen_s=now_s)
                self.holes_seen += 1
        self._highest[ssrc] = seq

    def due_requests(self, now_s: float) -> List[Tuple[int, List[int]]]:
        """The (ssrc, seqs) NACK batches due at ``now_s``."""
        batches: List[Tuple[int, List[int]]] = []
        for ssrc, missing in self._missing.items():
            due: List[int] = []
            for seq in list(missing):
                record = missing[seq]
                if record.attempts >= self._max_attempts:
                    del missing[seq]
                    continue
                first_wait = max(self._initial_delay, self._reorder_window_s)
                ready = (
                    record.attempts == 0
                    and now_s - record.first_seen_s >= first_wait
                ) or (
                    record.attempts > 0
                    and now_s - record.last_request_s >= self._retry_interval
                )
                if ready:
                    record.attempts += 1
                    record.last_request_s = now_s
                    due.append(seq)
            if due:
                batches.append((ssrc, sorted(due)))
        return batches

    @property
    def outstanding(self) -> int:
        """Missing sequence numbers currently tracked."""
        return sum(len(m) for m in self._missing.values())
