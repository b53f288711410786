"""Network packet model.

A :class:`Packet` is what traverses simulated links: an opaque payload (for
RTP/RTCP, real serialized bytes) plus the metadata the transport layers
need.  The simulator charges links by ``size_bytes``, which includes an
IP/UDP overhead allowance on top of the payload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

#: Bytes of IP + UDP header charged per packet on every link.
IP_UDP_OVERHEAD_BYTES = 28

_packet_ids = itertools.count(1)


@dataclass
class Packet:
    """One simulated datagram.

    Attributes:
        payload: the wire bytes (RTP/RTCP) or any structured object for
            layers that do not need byte fidelity.
        size_bytes: on-the-wire size including IP/UDP overhead.
        src: sender identifier (client or node id).
        dst: receiver identifier.
        sent_at: simulated time the packet entered the first link.
        packet_id: globally unique id (debugging, loss accounting).
        ecn_marked: set by links whose queue exceeds the marking threshold.
    """

    payload: Any
    size_bytes: int
    src: str = ""
    dst: str = ""
    sent_at: float = 0.0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    ecn_marked: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")


def packet_for_bytes(
    payload: bytes, src: str = "", dst: str = "", sent_at: float = 0.0
) -> Packet:
    """Wrap serialized wire bytes into a packet, adding IP/UDP overhead."""
    return Packet(
        payload=payload,
        size_bytes=len(payload) + IP_UDP_OVERHEAD_BYTES,
        src=src,
        dst=dst,
        sent_at=sent_at,
    )
