"""Multi-stream subscription via virtual publishers (Sec. 4.4).

The Step-1 MCKP is zero-or-one per (subscriber, publisher) pair.  When a
subscriber needs *two* streams from one source — the "speaker first" feature
(a high-resolution close-up *plus* a thumbnail of the active speaker) — the
paper adds a virtual publisher ``X'`` so Step 1 still sees one stream per
class, and merges ``X'`` back into ``X`` at the start of Step 2.

Screen shares are different: a screen video and a camera video "have
different SSRC and will not be merged" (footnote 6), i.e. the screen is a
separate publisher *entity* with its own ladder — but it shares the client's
uplink, which the Step-3 owner aggregation handles.

This module provides builder helpers that perform both expansions on top of
a plain problem description.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .constraints import Bandwidth, Problem, Subscription
from .types import ClientId, Resolution, StreamSpec

#: Suffix conventions for derived publisher ids.
VIRTUAL_SUFFIX = "#virtual"
SCREEN_SUFFIX = ":screen"


def virtual_id(publisher: ClientId, tag: str = "") -> ClientId:
    """The id of a virtual publisher aliasing ``publisher``."""
    return f"{publisher}{VIRTUAL_SUFFIX}{tag}"


def screen_id(client: ClientId) -> ClientId:
    """The id of a client's screen-share publisher entity."""
    return f"{client}{SCREEN_SUFFIX}"


class ProblemBuilder:
    """Incremental construction of orchestration problems.

    Handles the bookkeeping for virtual publishers (speaker-first) and
    screen-share entities so user code never touches ``aliases``/``owners``
    directly::

        builder = ProblemBuilder()
        builder.add_client("A", Bandwidth(5000, 3000), ladder)
        builder.add_client("B", Bandwidth(5000, 5000), ladder)
        builder.subscribe("A", "B", max_resolution=Resolution.P720)
        builder.subscribe_dual("B", "A")            # speaker-first
        builder.add_screen_share("A", screen_ladder)
        builder.subscribe("B", screen_id("A"))
        problem = builder.build()
    """

    def __init__(self) -> None:
        self._feasible: Dict[ClientId, List[StreamSpec]] = {}
        self._bandwidth: Dict[ClientId, Bandwidth] = {}
        self._subscriptions: List[Subscription] = []
        self._aliases: Dict[ClientId, ClientId] = {}
        self._owners: Dict[ClientId, ClientId] = {}

    def add_client(
        self,
        client: ClientId,
        bandwidth: Bandwidth,
        streams: Optional[Sequence[StreamSpec]] = None,
    ) -> "ProblemBuilder":
        """Register a client; with ``streams`` it also publishes a camera."""
        if client in self._bandwidth:
            raise ValueError(f"client {client!r} already added")
        self._bandwidth[client] = bandwidth
        if streams is not None:
            self._feasible[client] = list(streams)
        return self

    def add_screen_share(
        self, client: ClientId, streams: Sequence[StreamSpec]
    ) -> ClientId:
        """Attach a screen-share source to an existing client.

        Returns the screen entity id to subscribe to.  The entity shares the
        client's uplink (owner aggregation in Step 3) but is never merged
        with the camera (distinct SSRC).
        """
        if client not in self._bandwidth:
            raise ValueError(f"unknown client {client!r}")
        sid = screen_id(client)
        if sid in self._feasible:
            raise ValueError(f"{client!r} already shares a screen")
        self._feasible[sid] = list(streams)
        self._owners[sid] = client
        return sid

    def subscribe(
        self,
        subscriber: ClientId,
        publisher: ClientId,
        max_resolution: Resolution = Resolution.P720,
    ) -> "ProblemBuilder":
        """Add a plain subscription edge."""
        self._subscriptions.append(
            Subscription(subscriber, publisher, max_resolution)
        )
        return self

    def subscribe_dual(
        self,
        subscriber: ClientId,
        publisher: ClientId,
        primary_max: Resolution = Resolution.P720,
        secondary_max: Resolution = Resolution.P180,
    ) -> ClientId:
        """Add a speaker-first dual subscription (Sec. 4.4).

        The primary stream is a plain edge; the secondary stream goes
        through a virtual publisher that Step 2 merges back.  Returns the
        virtual publisher id (useful for inspecting assignments).
        """
        vid = virtual_id(publisher, tag=f"@{subscriber}")
        if vid not in self._aliases:
            self._aliases[vid] = publisher
        self._subscriptions.append(
            Subscription(subscriber, publisher, primary_max)
        )
        self._subscriptions.append(Subscription(subscriber, vid, secondary_max))
        return vid

    def build(self) -> Problem:
        """Materialize the (validated) :class:`Problem`."""
        return Problem(
            feasible_streams=self._feasible,
            bandwidth=self._bandwidth,
            subscriptions=self._subscriptions,
            aliases=self._aliases,
            owners=self._owners,
        )
