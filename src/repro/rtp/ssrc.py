"""SSRC allocation: one synchronization source per stream resolution.

Sec. 4.2: "we assign a different synchronization source (SSRC) for each
stream resolution to facilitate the feedback control" — the SSRC field of a
TMMBR entry then addresses exactly one simulcast sub-stream.

The allocator hands out deterministic, collision-free 32-bit SSRCs and
keeps the bidirectional mapping between SSRCs and (client, kind) keys,
where ``kind`` is a resolution, "audio", or "rtcp".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..core.types import ClientId, Resolution

#: What one SSRC is bound to: a video resolution, audio, or the RTCP channel.
StreamKind = Union[Resolution, str]


@dataclass(frozen=True)
class SsrcKey:
    """Identity of one RTP stream: who sends it and what it carries."""

    client: ClientId
    kind: StreamKind


class SsrcAllocator:
    """Deterministic SSRC assignment.

    SSRCs are allocated sequentially from a base offset; determinism keeps
    simulation traces reproducible and makes debugging readable (SSRCs
    allocate in join order).  Both maps hold the same plain ``(client,
    kind)`` tuple, so a repeated :meth:`allocate` hashes no dataclass;
    :meth:`lookup` builds the :class:`SsrcKey` it returns.
    """

    _BASE = 0x10_000

    def __init__(self) -> None:
        self._next = self._BASE
        self._by_key: Dict[Tuple[ClientId, StreamKind], int] = {}
        self._by_ssrc: Dict[int, Tuple[ClientId, StreamKind]] = {}

    def allocate(self, client: ClientId, kind: StreamKind) -> int:
        """Allocate (or return the existing) SSRC for a stream."""
        key = (client, kind)
        ssrc = self._by_key.get(key)
        if ssrc is None:
            ssrc = self._next
            self._next += 1
            self._by_key[key] = ssrc
            self._by_ssrc[ssrc] = key
        return ssrc

    def lookup(self, ssrc: int) -> Optional[SsrcKey]:
        """Reverse-map an SSRC to its (client, kind) identity."""
        key = self._by_ssrc.get(ssrc)
        return None if key is None else SsrcKey(*key)

    def ssrc_of(self, client: ClientId, kind: StreamKind) -> Optional[int]:
        """Forward lookup without allocating."""
        return self._by_key.get((client, kind))

    def streams_of(self, client: ClientId) -> Dict[StreamKind, int]:
        """All SSRCs currently allocated to one client."""
        return {
            kind: ssrc
            for (owner, kind), ssrc in self._by_key.items()
            if owner == client
        }

    def release_client(self, client: ClientId) -> None:
        """Free every SSRC of a departing client."""
        for key in [k for k in self._by_key if k[0] == client]:
            del self._by_ssrc[self._by_key.pop(key)]
