"""Minimal SDP offer/answer (RFC 4566 subset).

Codec capability collection happens "through the SDP negotiation process,
which is carried out before a participant joins a meeting" (Sec. 4.2).  The
reproduction implements the subset of SDP the negotiation needs: session
header, media sections with payload-type maps, direction attributes, and
free-form ``a=`` attributes (used to attach per-resolution SSRCs).

The serializer and parser round-trip through real ``\\r\\n``-terminated SDP
text so signaling fidelity is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class MediaSection:
    """One ``m=`` section of an SDP document.

    Attributes:
        media: "audio" or "video".
        port: nominal port (9 = discard convention in bundled WebRTC SDPs).
        protocol: transport token, e.g. "UDP/TLS/RTP/SAVPF".
        payload_types: the PT numbers offered.
        attributes: ordered (key, value) attribute list; value None encodes
            a flag attribute like ``a=sendrecv``.
    """

    media: str
    port: int = 9
    protocol: str = "UDP/TLS/RTP/SAVPF"
    payload_types: List[int] = field(default_factory=list)
    attributes: List[Tuple[str, Optional[str]]] = field(default_factory=list)

    def add_attribute(self, key: str, value: Optional[str] = None) -> None:
        """Append one a= attribute (value None = flag form)."""
        self.attributes.append((key, value))

    def attribute_values(self, key: str) -> List[str]:
        """All values of a repeated attribute (e.g. ``a=ssrc``)."""
        return [v for k, v in self.attributes if k == key and v is not None]

    def first_attribute(self, key: str) -> Optional[str]:
        """First value of an attribute, or None."""
        values = self.attribute_values(key)
        return values[0] if values else None

    def serialize(self) -> str:
        """Encode to wire bytes."""
        lines = [
            f"m={self.media} {self.port} {self.protocol} "
            + " ".join(str(pt) for pt in self.payload_types)
        ]
        for key, value in self.attributes:
            lines.append(f"a={key}" if value is None else f"a={key}:{value}")
        return "\r\n".join(lines)


@dataclass
class SessionDescription:
    """A full SDP document: session header plus media sections."""

    session_id: int
    origin_user: str = "-"
    session_name: str = "gso-conference"
    media: List[MediaSection] = field(default_factory=list)

    def serialize(self) -> str:
        """Encode to wire bytes."""
        lines = [
            "v=0",
            f"o={self.origin_user} {self.session_id} 1 IN IP4 0.0.0.0",
            f"s={self.session_name}",
            "t=0 0",
        ]
        for section in self.media:
            lines.append(section.serialize())
        return "\r\n".join(lines) + "\r\n"

    @classmethod
    def parse(cls, text: str) -> "SessionDescription":
        """Parse SDP text.

        Raises:
            ValueError: on structurally invalid documents.
        """
        session: Optional[SessionDescription] = None
        current: Optional[MediaSection] = None
        for raw in text.replace("\r\n", "\n").split("\n"):
            line = raw.strip()
            if not line:
                continue
            if len(line) < 2 or line[1] != "=":
                raise ValueError(f"malformed SDP line: {line!r}")
            kind, value = line[0], line[2:]
            if kind == "v":
                if value != "0":
                    raise ValueError(f"unsupported SDP version {value!r}")
                session = cls(session_id=0)
            elif session is None:
                raise ValueError("SDP must start with v=0")
            elif kind == "o":
                parts = value.split()
                if len(parts) < 2:
                    raise ValueError(f"malformed o= line: {value!r}")
                session.origin_user = parts[0]
                session.session_id = int(parts[1])
            elif kind == "s":
                session.session_name = value
            elif kind == "m":
                parts = value.split()
                if len(parts) < 3:
                    raise ValueError(f"malformed m= line: {value!r}")
                current = MediaSection(
                    media=parts[0],
                    port=int(parts[1]),
                    protocol=parts[2],
                    payload_types=[int(pt) for pt in parts[3:]],
                )
                session.media.append(current)
            elif kind == "a":
                target = current
                if target is None:
                    continue  # session-level attributes are not modelled
                if ":" in value:
                    key, attr_value = value.split(":", 1)
                    target.add_attribute(key, attr_value)
                else:
                    target.add_attribute(value, None)
            # c=, t=, b= lines are accepted and ignored.
        if session is None:
            raise ValueError("empty SDP document")
        return session

    def video_sections(self) -> List[MediaSection]:
        """The m=video sections."""
        return [m for m in self.media if m.media == "video"]
