"""GSO stream-configuration feedback: TMMBR/TMMBN in APP packets (Sec. 4.3).

The controller configures each publisher's streams by sending a Temporary
Maximum Media Stream Bit Rate Request (TMMBR, RFC 5104 §4.2.1) per stream
SSRC.  To avoid ambiguity with congestion-control TMMBR (RFC 8888 usage),
the paper wraps GSO's TMMBR inside an application-defined RTCP packet
(PT=204).  Disabling a stream sets the MxTBR mantissa to zero.

Reliability: RTCP is unreliable, so the receiver of a TMMBR answers with a
TMMBN (notification) echoing the configured values; the accessing node
retransmits the TMMBR until the matching TMMBN arrives
(:class:`ReliableTmmbrSender`).

FCI entry layout (RFC 5104)::

       0                   1                   2                   3
      +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
      |                              SSRC                             |
      +---------------------------------------------------------------+
      | MxTBR Exp |        MxTBR Mantissa             | Overhead      |
      |  (6 bits) |         (17 bits)                 | (9 bits)      |
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Sequence, Tuple

from .rtcp import _MAX_BODY_BYTES, _U32, AppPacket, _decoded, _read_u32, _require_u32
from .semb import encode_exp_mantissa

#: APP names for wrapped TMMBR (request) and TMMBN (notification).
GSO_TMMBR_NAME = b"GTBR"
GSO_TMMBN_NAME = b"GTBN"

_TMMBR_MANTISSA_BITS = 17
_MANTISSA_MASK = (1 << _TMMBR_MANTISSA_BITS) - 1
#: One FCI entry: SSRC, then the exp/mantissa/overhead word.
_ENTRY = struct.Struct("!II")
#: Entries one APP packet can frame after its name and request id.
_MAX_ENTRIES = (_MAX_BODY_BYTES - 12) // 8


@dataclass(frozen=True)
class TmmbrEntry:
    """One FCI entry: configure stream ``ssrc`` to at most ``bitrate_bps``.

    A ``bitrate_bps`` of zero disables the stream (zero mantissa, per the
    paper).  ``overhead_bytes`` is the per-packet overhead field of RFC
    5104 (we carry the IP+UDP 28 bytes).
    """

    ssrc: int
    bitrate_bps: int
    overhead_bytes: int = 28

    def __post_init__(self) -> None:
        if not 0 <= self.ssrc < 2**32:
            raise ValueError("ssrc out of range")
        if self.bitrate_bps < 0:
            raise ValueError("bitrate must be non-negative")
        if not 0 <= self.overhead_bytes < 2**9:
            raise ValueError("overhead out of range")

    def serialize(self) -> bytes:
        """Encode to wire bytes."""
        exp, mantissa = encode_exp_mantissa(self.bitrate_bps, _TMMBR_MANTISSA_BITS)
        return _ENTRY.pack(
            self.ssrc, (exp << 26) | (mantissa << 9) | self.overhead_bytes
        )

    @classmethod
    def parse(cls, data: bytes) -> "TmmbrEntry":
        """Decode from wire bytes (raises ValueError on malformed input)."""
        if len(data) < 8:
            raise ValueError("TMMBR FCI entry too short")
        return _entry(*_ENTRY.unpack_from(data))

    @property
    def disables_stream(self) -> bool:
        """True when the entry's zero mantissa stops the stream."""
        return self.bitrate_bps == 0


def _entry(ssrc: int, word: int) -> TmmbrEntry:
    """The entry one decoded ``(ssrc, word)`` pair describes."""
    return _decoded(
        TmmbrEntry,
        ssrc=ssrc,
        bitrate_bps=((word >> 9) & _MANTISSA_MASK) << (word >> 26),
        overhead_bytes=word & 0x1FF,
    )


@dataclass(frozen=True)
class _GsoFeedback:
    """The shared body of a GSO TMMBR and its TMMBN: a request id and one
    FCI entry per stream, in an APP packet named by the subclass."""

    sender_ssrc: int
    request_id: int
    entries: Tuple[TmmbrEntry, ...]

    _SUBTYPE: ClassVar[int]
    _NAME: ClassVar[bytes]
    _KIND: ClassVar[str]

    def __post_init__(self) -> None:
        _require_u32(self.sender_ssrc, "sender ssrc")
        _require_u32(self.request_id, "request id")
        if len(self.entries) > _MAX_ENTRIES:
            raise ValueError(f"too many GSO {self._KIND} entries: {len(self.entries)}")

    def to_app_packet(self) -> AppPacket:
        """Wrap into the application-defined RTCP carrier packet."""
        data = b"".join(
            [_U32.pack(self.request_id), *[entry.serialize() for entry in self.entries]]
        )
        return _decoded(
            AppPacket,
            subtype=self._SUBTYPE,
            ssrc=self.sender_ssrc,
            name=self._NAME,
            data=data,
        )

    @classmethod
    def from_app_packet(cls, packet: AppPacket) -> "_GsoFeedback":
        """Extract from the carrying APP packet."""
        if packet.name != cls._NAME:
            raise ValueError(f"not a GSO {cls._KIND} packet: {packet.name!r}")
        data = packet.data
        if len(data) < 4 or (len(data) - 4) % 8 != 0:
            raise ValueError("malformed GSO TMMBR/TMMBN payload")
        return _decoded(
            cls,
            sender_ssrc=packet.ssrc,
            request_id=_read_u32(data)[0],
            entries=tuple(
                [_entry(ssrc, word) for ssrc, word in _ENTRY.iter_unpack(memoryview(data)[4:])]
            ),
        )


class GsoTmmbr(_GsoFeedback):
    """A GSO stream-configuration request: one TMMBR FCI entry per stream.

    ``request_id`` makes retransmissions idempotent: the TMMBN echoes it so
    the reliability layer can match notifications to requests.
    """

    _SUBTYPE = 1
    _NAME = GSO_TMMBR_NAME
    _KIND = "TMMBR"


class GsoTmmbn(_GsoFeedback):
    """The notification a client sends back after applying a GSO TMMBR."""

    _SUBTYPE = 2
    _NAME = GSO_TMMBN_NAME
    _KIND = "TMMBN"

    @classmethod
    def acknowledge(cls, request: GsoTmmbr, sender_ssrc: int) -> "GsoTmmbn":
        """Build the TMMBN that acknowledges ``request``."""
        return cls(
            sender_ssrc=sender_ssrc,
            request_id=request.request_id,
            entries=request.entries,
        )


class ReliableTmmbrSender:
    """Retransmit-until-acknowledged delivery of GSO TMMBR requests.

    The accessing node keeps at most one outstanding request per target
    client; a newer configuration for the same target supersedes the old
    one (its TMMBN is then ignored).  ``transmit`` is the raw send hook;
    ``schedule`` arms the retransmission timer (both injected so the class
    is transport- and clock-agnostic, and trivially testable).

    Args:
        transmit: callable(target, GsoTmmbr) performing one send attempt.
        schedule: callable(delay_s, callback) arming a timer.
        retransmit_interval_s: delay between attempts.
        max_attempts: give up (and report failure) after this many sends.
    """

    def __init__(
        self,
        transmit: Callable[[str, GsoTmmbr], None],
        schedule: Callable[[float, Callable[[], None]], None],
        retransmit_interval_s: float = 0.25,
        max_attempts: int = 5,
    ) -> None:
        if retransmit_interval_s <= 0:
            raise ValueError("retransmit interval must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self._transmit = transmit
        self._schedule = schedule
        self._interval = retransmit_interval_s
        self._max_attempts = max_attempts
        self._next_request_id = 1
        #: target -> (request, attempts_so_far)
        self._outstanding: Dict[str, Tuple[GsoTmmbr, int]] = {}
        self.failed_targets: List[str] = []

    def send(self, target: str, sender_ssrc: int, entries: Sequence[TmmbrEntry]) -> GsoTmmbr:
        """Send a new configuration to ``target``, superseding any pending one."""
        request = GsoTmmbr(
            sender_ssrc=sender_ssrc,
            request_id=self._next_request_id,
            entries=tuple(entries),
        )
        self._next_request_id += 1
        self._outstanding[target] = (request, 1)
        self._transmit(target, request)
        self._schedule(self._interval, lambda: self._retry(target, request.request_id))
        return request

    def on_tmmbn(self, target: str, notification: GsoTmmbn) -> bool:
        """Process an incoming TMMBN.

        Returns:
            True if it acknowledged the currently outstanding request.
        """
        pending = self._outstanding.get(target)
        if pending is None or pending[0].request_id != notification.request_id:
            return False  # stale or duplicate acknowledgement
        del self._outstanding[target]
        return True

    def _retry(self, target: str, request_id: int) -> None:
        pending = self._outstanding.get(target)
        if pending is None or pending[0].request_id != request_id:
            return  # acknowledged or superseded
        request, attempts = pending
        if attempts >= self._max_attempts:
            del self._outstanding[target]
            self.failed_targets.append(target)
            return
        self._outstanding[target] = (request, attempts + 1)
        self._transmit(target, request)
        self._schedule(self._interval, lambda: self._retry(target, request_id))

    @property
    def pending_count(self) -> int:
        """Outstanding unacknowledged requests."""
        return len(self._outstanding)
