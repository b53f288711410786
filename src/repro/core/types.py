"""Fundamental value types for the GSO control algorithm.

The controller reasons about *streams*: a publisher encodes its video source
several times in parallel (simulcast), one encoding per resolution, each at a
bitrate chosen from a fine-grained ladder.  The algorithm in Sec. 4.1 of the
paper manipulates three things per stream: its bitrate, its resolution, and
its QoE utility weight.  This module defines those value types plus the
identifiers used throughout the library.

All bitrates are integer kilobits per second (kbps).  The paper reports
bitrates in Kbps/Mbps; integer kbps keeps the knapsack arithmetic exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

#: Clients are identified by short strings ("A", "client-17", ...).
ClientId = str


class Resolution(enum.IntEnum):
    """Vertical video resolution of a simulcast encoding.

    The integer value is the number of scan lines, so resolutions order
    naturally: ``Resolution.P180 < Resolution.P360 < Resolution.P720``.
    The paper's examples use the 720/360/180 triple; the algorithm is
    "readily extensible to more than three resolutions" (footnote 5), so we
    include the neighbouring rungs used by common simulcast ladders as well.
    """

    P90 = 90
    P180 = 180
    P270 = 270
    P360 = 360
    P540 = 540
    P720 = 720
    P1080 = 1080

    @property
    def pixels(self) -> int:
        """Approximate pixel count assuming a 16:9 aspect ratio."""
        width = self.value * 16 // 9
        return width * self.value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value}p"


#: The paper's canonical three-level resolution set (Fig. 5, Table 1).
PAPER_RESOLUTIONS: Tuple[Resolution, ...] = (
    Resolution.P720,
    Resolution.P360,
    Resolution.P180,
)


@dataclass(frozen=True, order=True)
class StreamSpec:
    """One feasible simulcast encoding: a (bitrate, resolution, QoE) triple.

    Instances are immutable and hashable so they can live in the sets the
    algorithm manipulates (``S_i``, ``S_ii'``, ``D_i'`` ...).  Ordering is by
    ``(bitrate, resolution)`` which gives a stable, meaningful sort: the
    paper's merge step picks minima by bitrate.

    Attributes:
        bitrate_kbps: target encoder output rate in kbps.  Also the knapsack
            *weight* of the stream.
        resolution: the encoding's resolution.  Codec capability allows at
            most one concurrently published stream per resolution.
        qoe: the QoE utility weight — the knapsack *value*.  Sec. 4.4 requires
            small streams to have a higher QoE/bitrate ratio so they are
            protected when streams compete.
    """

    bitrate_kbps: int
    resolution: Resolution
    qoe: float = field(compare=False)

    def __post_init__(self) -> None:
        if self.bitrate_kbps <= 0:
            raise ValueError(f"bitrate must be positive, got {self.bitrate_kbps}")
        if self.qoe < 0:
            raise ValueError(f"QoE weight must be non-negative, got {self.qoe}")

    @property
    def qoe_per_kbps(self) -> float:
        """QoE utility per kbps — the small-stream protection ratio."""
        return self.qoe / self.bitrate_kbps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamSpec({self.bitrate_kbps}kbps@{self.resolution}, qoe={self.qoe:g})"


@dataclass(frozen=True)
class StreamKey:
    """Identifies a published stream on the wire: (publisher, resolution).

    Sec. 4.2: *"we assign a different synchronization source (SSRC) for each
    stream resolution"* — so (publisher, resolution) is the unit that TMMBR
    feedback addresses, independent of the bitrate currently configured.
    """

    publisher: ClientId
    resolution: Resolution


class Role(enum.Flag):
    """Which conference roles a client currently plays."""

    NONE = 0
    PUBLISHER = enum.auto()
    SUBSCRIBER = enum.auto()
    BOTH = PUBLISHER | SUBSCRIBER


class StreamClass(enum.Enum):
    """Kind of a published source, used for priority weighting (Sec. 4.4)."""

    CAMERA = "camera"
    SCREEN = "screen"
    THUMBNAIL = "thumbnail"


def validate_feasible_set(streams: Iterable[StreamSpec]) -> List[StreamSpec]:
    """Validate and normalize a publisher's feasible stream set ``S_i``.

    Checks the invariants the algorithm relies on:

    * bitrates are unique (each bitrate maps to a unique resolution and QoE,
      per Sec. 4.1's definition of ``Res_i`` and ``QoE_i`` as functions);
    * within a resolution, a higher bitrate never has lower QoE.

    Returns the streams sorted by descending bitrate (the order Fig. 5 draws
    them in).

    Raises:
        ValueError: if any invariant is violated.
    """
    ordered = sorted(streams, key=lambda s: (-s.bitrate_kbps, -s.resolution))
    seen_bitrates: Dict[int, StreamSpec] = {}
    for s in ordered:
        if s.bitrate_kbps in seen_bitrates:
            raise ValueError(
                f"duplicate bitrate {s.bitrate_kbps}kbps in feasible set: "
                f"{s} vs {seen_bitrates[s.bitrate_kbps]}"
            )
        seen_bitrates[s.bitrate_kbps] = s
    by_res: Dict[Resolution, List[StreamSpec]] = {}
    for s in ordered:
        by_res.setdefault(s.resolution, []).append(s)
    for res, group in by_res.items():
        # group is sorted by descending bitrate already.
        for hi, lo in zip(group, group[1:]):
            if hi.qoe < lo.qoe:
                raise ValueError(
                    f"QoE not monotone within {res}: {hi} has lower QoE than {lo}"
                )
    return ordered


def streams_at_resolution(
    streams: Iterable[StreamSpec], resolution: Resolution
) -> List[StreamSpec]:
    """Return the subset of ``streams`` at exactly ``resolution`` (``S_i^R``)."""
    return [s for s in streams if s.resolution == resolution]


def streams_up_to_resolution(
    streams: Iterable[StreamSpec], max_resolution: Resolution
) -> List[StreamSpec]:
    """Return the subscription-feasible subset ``S_ii'``.

    Sec. 4.1: the subscriber indicates the maximum resolution ``R_ii'`` it is
    willing to accept, so ``S_ii' = {s in S_i : Res_i(s) <= R_ii'}``.
    """
    return [s for s in streams if s.resolution <= max_resolution]
