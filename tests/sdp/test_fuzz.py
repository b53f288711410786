"""Arbitrary text into the ``sdp/`` parsers: return, or ``ValueError``.

The SDP offer and the simulcastInfo JSON are the first bytes a client
sends (Sec. 4.2), and the conference node catches ``ValueError`` around
both parsers.  Anything else (a leaked ``RecursionError``) takes the join
path down, and a message that is *accepted* with a NaN, a boolean or a
10^12 kbps ceiling in it goes on to size the solver's DP tables.  The
inputs are raw ``text()`` plus the valid documents of one join, damaged:
values swapped for hostile ones, keys dropped, tokens replaced, the text
cut and bracket-stuffed.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.control.conference_node import ConferenceNode
from repro.core.types import Resolution
from repro.sdp.sdp import SessionDescription
from repro.sdp.simulcast_info import (
    MAX_BITRATE_KBPS,
    ResolutionCapability,
    SimulcastInfo,
    build_offer,
    capability_from_info,
)

INFO = SimulcastInfo(
    client="alice",
    codec="H264",
    max_streams=3,
    resolutions=(
        ResolutionCapability(Resolution.P720, 1500, 900, ssrc=0x100),
        ResolutionCapability(Resolution.P360, 800, 400, ssrc=0x101),
        ResolutionCapability(Resolution.P180, 300, 100, ssrc=0x102),
    ),
)
OFFER_TEXT = build_offer(INFO, session_id=7)[0].serialize()

#: What a field of the JSON document can be swapped for.  ``json.dumps``
#: writes the non-finite floats as ``NaN`` / ``Infinity``, which
#: ``json.loads`` reads back.
HOSTILE = (
    float("nan"),
    float("inf"),
    float("-inf"),
    1e12,
    10**12,
    10**400,
    2**32,
    -5,
    0,
    1.5,
    0.5,
    True,
    False,
    None,
    "",
    "x",
    [],
    {},
    [[]],
    {"res": {}},
)

#: A field of the document: (resolution entry or ``None`` for the top
#: level, key).
FIELDS = [(None, key) for key in ("client", "codec", "maxStreams", "resolutions")] + [
    (entry, key)
    for entry in range(len(INFO.resolutions))
    for key in ("res", "maxKbps", "minKbps", "ssrc")
]

#: What a token of an SDP line can be replaced with.
TOKENS = ("", "x", "-1", "NaN", "1e999", "9" * 5000, "=", ":", "m=video")


def damaged_info(swaps, drops, keep, stuffing):
    """The valid simulcastInfo JSON with fields swapped and dropped, cut
    to ``keep`` characters and prefixed with ``stuffing`` brackets."""
    doc = json.loads(INFO.to_json())

    def holder(entry):
        # An earlier swap may have replaced the list or an entry of it.
        if entry is None:
            return doc
        try:
            return doc["resolutions"][entry]
        except (KeyError, IndexError, TypeError):
            return None

    for (entry, key), value in swaps:
        target = holder(entry)
        if isinstance(target, dict):
            target[key] = value
    for entry, key in drops:
        target = holder(entry)
        if isinstance(target, dict):
            target.pop(key, None)
    text = json.dumps(doc)
    return "[" * stuffing + text[: len(text) if keep is None else keep]


def damaged_offer(replacements, keep, tail):
    """The valid SDP offer with tokens replaced, cut, and ``tail`` appended."""
    lines = OFFER_TEXT.split("\r\n")
    for line, token, value in replacements:
        parts = lines[line % len(lines)].split(" ")
        parts[token % len(parts)] = value
        lines[line % len(lines)] = " ".join(parts)
    text = "\r\n".join(lines)
    return text[: len(text) if keep is None else keep] + tail


def swapped(entry, key, value):
    """One pinned case: a single hostile field in the valid document."""
    return dict(
        raw="", swaps=[((entry, key), value)], drops=[], keep=None, stuffing=0
    )


@given(
    raw=st.text(max_size=80),
    swaps=st.lists(
        st.tuples(st.sampled_from(FIELDS), st.sampled_from(HOSTILE)), max_size=3
    ),
    drops=st.lists(st.sampled_from(FIELDS), max_size=2),
    keep=st.one_of(st.none(), st.integers(0, 400)),
    stuffing=st.sampled_from([0, 0, 0, 1, 7]),
)
@settings(max_examples=1500, deadline=None)
# The ladder that asked numpy for 7 TiB, and its non-finite relatives,
# which `nan < min` let through.
@example(**swapped(0, "maxKbps", 1e12))
@example(**swapped(0, "maxKbps", float("nan")))
@example(**swapped(0, "maxKbps", float("inf")))
@example(**swapped(0, "minKbps", 0.5))
# `true == 1`: a one-resolution message makes it a plausible stream count.
@example(
    raw="",
    swaps=[
        (
            (None, "resolutions"),
            [{"res": 720, "maxKbps": 1500, "minKbps": 900, "ssrc": 1}],
        ),
        ((None, "maxStreams"), True),
    ],
    drops=[],
    keep=None,
    stuffing=0,
)
@example(**swapped(None, "maxStreams", float("inf")))  # 1e999 on the wire
@example(**swapped(0, "ssrc", -5))
@example(**swapped(0, "ssrc", 1.5))
@example(**swapped(None, "client", {}))
# Deeper than the interpreter's stack: json.loads raises RecursionError.
@example(raw="[" * 100_000, swaps=[], drops=[], keep=None, stuffing=0)
def test_simulcast_info_is_parsed_whole_or_refused(raw, swaps, drops, keep, stuffing):
    for text in (raw, damaged_info(swaps, drops, keep, stuffing)):
        try:
            info = SimulcastInfo.from_json(text)
        except ValueError:
            continue
        # Accepted: then every field is what its annotation says.
        assert type(info.client) is str and info.client
        assert type(info.codec) is str
        assert type(info.max_streams) is int and info.max_streams >= 1
        for cap in info.resolutions:
            assert type(cap.resolution) is Resolution
            for value in (cap.min_bitrate_kbps, cap.max_bitrate_kbps, cap.ssrc):
                assert type(value) is int
            assert 1 <= cap.min_bitrate_kbps <= cap.max_bitrate_kbps
            assert cap.max_bitrate_kbps <= MAX_BITRATE_KBPS
            assert 0 <= cap.ssrc < 2**32
        # ... and the ladder the controller derives from it is bounded
        # (two resolutions squeezed onto the same few kbps are refused).
        try:
            ladder = capability_from_info(info)
        except ValueError:
            continue
        for stream in ladder:
            assert type(stream.bitrate_kbps) is int
            assert 1 <= stream.bitrate_kbps <= MAX_BITRATE_KBPS


@given(
    raw=st.text(max_size=80),
    replacements=st.lists(
        st.tuples(st.integers(0, 31), st.integers(0, 7), st.sampled_from(TOKENS)),
        max_size=3,
    ),
    keep=st.one_of(st.none(), st.integers(0, 400)),
    tail=st.text(max_size=20),
)
@settings(max_examples=1500, deadline=None)
def test_session_description_is_parsed_or_refused(raw, replacements, keep, tail):
    for text in (raw, damaged_offer(replacements, keep, tail)):
        try:
            SessionDescription.parse(text)
        except ValueError:
            pass


def offer_with_ssrc_line(line):
    """One pinned case: ``line`` inserted into the valid video section."""
    lines = OFFER_TEXT.split("\r\n")
    lines.insert(next(i for i, l in enumerate(lines) if l.startswith("a=ssrc:")), line)
    return dict(raw="\r\n".join(lines), replacements=[], keep=None, tail="")


@given(
    raw=st.text(max_size=80),
    replacements=st.lists(
        st.tuples(st.integers(0, 31), st.integers(0, 7), st.sampled_from(TOKENS)),
        max_size=3,
    ),
    keep=st.one_of(st.none(), st.integers(0, 400)),
    tail=st.text(max_size=20),
)
@settings(max_examples=1500, deadline=None)
# An a=ssrc: value with nothing in it leaked IndexError from the join.
@example(**offer_with_ssrc_line("a=ssrc:"))
@example(**offer_with_ssrc_line("a=ssrc:   "))
@example(**offer_with_ssrc_line("a=ssrc:-1 label:x"))
@example(**offer_with_ssrc_line(f"a=ssrc:{2**32} label:x"))
def test_a_join_with_a_damaged_offer_is_admitted_or_refused(
    raw, replacements, keep, tail
):
    for text in (raw, damaged_offer(replacements, keep, tail)):
        try:
            ConferenceNode().join_with_offer(text, INFO.to_json(), "n0")
        except ValueError:
            pass


def test_the_undamaged_documents_are_accepted():
    # The fuzz above would pass vacuously if its base documents were refused.
    assert SimulcastInfo.from_json(damaged_info([], [], None, 0)) == INFO
    offer = SessionDescription.parse(damaged_offer([], None, ""))
    assert len(offer.video_sections()) == 1
    state, _ = ConferenceNode().join_with_offer(OFFER_TEXT, INFO.to_json(), "n0")
    assert state.client == INFO.client
