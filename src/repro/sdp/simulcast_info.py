"""The simulcastInfo negotiation message (Sec. 4.2).

The paper augments SDP negotiation: "We also send a customized
simulcastInfo message together with the SDP offer ... so that the
conference node is not only able to collect the video codec type and the
number of streams supported, but also the stream resolutions and the
maximum bitrates with respect to each resolution.  In the negotiation, we
assign a different synchronization source (SSRC) for each stream
resolution."

:class:`SimulcastInfo` is that message; :func:`build_offer` produces the
SDP offer + simulcastInfo pair a client presents when joining, and
:func:`capability_from_info` converts a negotiated simulcastInfo into the
feasible stream set (``S_i``) the GSO controller optimizes over.

The message arrives from outside, and its bitrates size the solver's DP
tables (a table is bounded by the ladder it is built from), so every
field is validated where the bytes enter: :meth:`SimulcastInfo.from_json`
returns a message whose numbers are integers within
:data:`MAX_BITRATE_KBPS` and the SSRC range, or raises ``ValueError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.ladder import qoe_utility
from ..core.types import ClientId, Resolution, StreamSpec, validate_feasible_set
from .sdp import MediaSection, SessionDescription

#: The highest bitrate a device may declare for one resolution, in kbps.
#: Far above any ladder in the repo (the 1080p ceiling is 4,000 kbps), and
#: low enough that the widest DP table a declared ladder can ask for stays
#: in the tens of MiB; a declared 10^12 kbps asked for 7 TiB.
MAX_BITRATE_KBPS = 100_000


def _is_int(value: object) -> bool:
    """A real integer: JSON ``true``, ``1.5``, ``NaN`` and ``1e999`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ResolutionCapability:
    """One resolution a device's codec can simulcast.

    Attributes:
        resolution: the encoding resolution.
        max_bitrate_kbps: the device's encoder ceiling at this resolution.
        min_bitrate_kbps: below this the encoder cannot hold the resolution.
        ssrc: the SSRC negotiated for this resolution's stream.
    """

    resolution: Resolution
    max_bitrate_kbps: int
    min_bitrate_kbps: int
    ssrc: int

    def __post_init__(self) -> None:
        for name in ("max_bitrate_kbps", "min_bitrate_kbps", "ssrc"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.min_bitrate_kbps <= 0:
            raise ValueError("min bitrate must be positive")
        if self.max_bitrate_kbps < self.min_bitrate_kbps:
            raise ValueError("max bitrate below min bitrate")
        if self.max_bitrate_kbps > MAX_BITRATE_KBPS:
            raise ValueError(
                f"max bitrate {self.max_bitrate_kbps} kbps above the "
                f"{MAX_BITRATE_KBPS} kbps any device may declare"
            )
        if not 0 <= self.ssrc < 2**32:
            raise ValueError(f"ssrc {self.ssrc} is not a 32-bit value")


@dataclass(frozen=True)
class SimulcastInfo:
    """The customized negotiation message sent with the SDP offer."""

    client: ClientId
    codec: str  # e.g. "H264", "VP8"
    max_streams: int
    resolutions: Tuple[ResolutionCapability, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.client, str) or not self.client:
            raise ValueError(f"client must be a non-empty string, got {self.client!r}")
        if not isinstance(self.codec, str):
            raise ValueError(f"codec must be a string, got {self.codec!r}")
        if not _is_int(self.max_streams):
            raise ValueError(
                f"max_streams must be an integer, got {self.max_streams!r}"
            )
        if self.max_streams < 1:
            raise ValueError("a publisher supports at least one stream")
        if len(self.resolutions) > self.max_streams:
            raise ValueError(
                f"{len(self.resolutions)} resolutions exceed "
                f"max_streams={self.max_streams}"
            )
        seen = set()
        for cap in self.resolutions:
            if cap.resolution in seen:
                raise ValueError(f"duplicate resolution {cap.resolution}")
            seen.add(cap.resolution)

    def to_json(self) -> str:
        """Serialize for the signaling channel."""
        return json.dumps(
            {
                "client": self.client,
                "codec": self.codec,
                "maxStreams": self.max_streams,
                "resolutions": [
                    {
                        "res": cap.resolution.value,
                        "maxKbps": cap.max_bitrate_kbps,
                        "minKbps": cap.min_bitrate_kbps,
                        "ssrc": cap.ssrc,
                    }
                    for cap in self.resolutions
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SimulcastInfo":
        """Parse a signaling-channel message.

        Raises:
            ValueError: on malformed JSON, missing fields, or a field of
                the wrong type or out of range (``__post_init__`` of the
                message and of :class:`ResolutionCapability`).
        """
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"malformed simulcastInfo JSON: {exc}") from exc
        try:
            return cls(
                client=doc["client"],
                codec=doc["codec"],
                max_streams=doc["maxStreams"],
                resolutions=tuple(
                    ResolutionCapability(
                        resolution=Resolution(entry["res"]),
                        max_bitrate_kbps=entry["maxKbps"],
                        min_bitrate_kbps=entry["minKbps"],
                        ssrc=entry["ssrc"],
                    )
                    for entry in doc["resolutions"]
                ),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"incomplete simulcastInfo: {exc}") from exc

    def ssrc_by_resolution(self) -> Dict[Resolution, int]:
        """Mapping resolution -> negotiated SSRC."""
        return {cap.resolution: cap.ssrc for cap in self.resolutions}


def build_offer(
    info: SimulcastInfo, session_id: int
) -> Tuple[SessionDescription, str]:
    """Build the SDP offer + simulcastInfo JSON a joining client sends.

    The SDP carries one audio section and one video section whose ``ssrc``
    attributes enumerate the per-resolution SSRCs, matching the paper's
    negotiation flow.
    """
    audio = MediaSection(media="audio", payload_types=[111])
    audio.add_attribute("rtpmap", "111 opus/48000/2")
    audio.add_attribute("sendrecv")
    video = MediaSection(media="video", payload_types=[96])
    video.add_attribute("rtpmap", f"96 {info.codec}/90000")
    video.add_attribute("sendrecv")
    for cap in info.resolutions:
        video.add_attribute(
            "ssrc", f"{cap.ssrc} label:{info.client}-{cap.resolution.value}p"
        )
    offer = SessionDescription(
        session_id=session_id,
        origin_user=info.client,
        media=[audio, video],
    )
    return offer, info.to_json()


def build_answer(
    offer: SessionDescription, accepted: SimulcastInfo
) -> SessionDescription:
    """Build the SDP answer the conference node returns to a joining client.

    The answer mirrors the offer's media sections (same payload types),
    confirms the negotiated per-resolution SSRCs, and flips directionality:
    the node receives what the client sends and vice versa.
    """
    answer = SessionDescription(
        session_id=offer.session_id,
        origin_user="conference",
        session_name=offer.session_name,
    )
    for section in offer.media:
        mirrored = MediaSection(
            media=section.media,
            port=section.port,
            protocol=section.protocol,
            payload_types=list(section.payload_types),
        )
        rtpmap = section.first_attribute("rtpmap")
        if rtpmap is not None:
            mirrored.add_attribute("rtpmap", rtpmap)
        mirrored.add_attribute("sendrecv")
        if section.media == "video":
            for cap in accepted.resolutions:
                mirrored.add_attribute(
                    "ssrc",
                    f"{cap.ssrc} label:{accepted.client}-"
                    f"{cap.resolution.value}p",
                )
        answer.media.append(mirrored)
    return answer


def capability_from_info(
    info: SimulcastInfo,
    levels_per_resolution: int = 5,
    qoe_exponent: float = 0.85,
) -> List[StreamSpec]:
    """Synthesize the feasible stream set ``S_i`` from negotiated capability.

    The controller "generate[s] vectors of fine-grained stream bitrates that
    each client is able to send" (Sec. 3): within each negotiated
    resolution's [min, max] bitrate range, ``levels_per_resolution`` rungs
    are placed evenly and weighted by the standard QoE utility curve.
    Bitrate collisions across resolutions are nudged down 1 kbps.
    """
    if levels_per_resolution < 1:
        raise ValueError("levels_per_resolution must be >= 1")
    used: set = set()
    streams: List[StreamSpec] = []
    for cap in sorted(info.resolutions, key=lambda c: -c.resolution):
        lo, hi = cap.min_bitrate_kbps, cap.max_bitrate_kbps
        if levels_per_resolution == 1 or lo == hi:
            rates = sorted({hi, lo}, reverse=True)[:levels_per_resolution]
        else:
            step = (hi - lo) / (levels_per_resolution - 1)
            rates = [round(lo + k * step) for k in range(levels_per_resolution)]
        for rate in rates:
            while rate in used:
                rate -= 1
            if rate <= 0:
                raise ValueError(
                    f"cannot derive distinct rungs for {cap.resolution}"
                )
            used.add(rate)
            streams.append(
                StreamSpec(
                    bitrate_kbps=rate,
                    resolution=cap.resolution,
                    qoe=qoe_utility(rate, qoe_exponent),
                )
            )
    return validate_feasible_set(streams)
