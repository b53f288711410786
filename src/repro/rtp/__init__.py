"""RTP/RTCP wire formats: RFC 3550 headers, SEMB and GSO TMMBR extensions.

Every codec here follows one idiom (:mod:`repro.rtp.rtcp` spells it
out): precompiled ``struct.Struct`` layouts read in place, one ``pack``
or ``join`` per encoded packet, fields validated when a value object is
built, and decoded objects built without re-running that validation on
what the parser has already proved.  SEMB decode and GSO TMMBR encode
run once per publisher per report and once per changed configuration,
so their cost per packet is control-plane server capacity.
"""

from .packet import (
    AUDIO_CLOCK_HZ,
    AUDIO_PAYLOAD_TYPE,
    RTP_HEADER_LEN,
    VIDEO_CLOCK_HZ,
    VIDEO_PAYLOAD_TYPE,
    RtpPacket,
    seq_distance,
    seq_less_than,
)
from .rtcp import (
    PT_APP,
    PT_RR,
    PT_RTPFB,
    AppPacket,
    ReceiverReport,
    ReportBlock,
    TwccFeedback,
    parse_common_header,
    parse_compound,
)
from .nack import GenericNack, NackTracker, RetransmissionCache, is_nack
from .remb import RembPacket, is_remb
from .semb import SembReport, decode_exp_mantissa, encode_exp_mantissa
from .ssrc import SsrcAllocator, SsrcKey
from .tmmbr import (
    GsoTmmbn,
    GsoTmmbr,
    ReliableTmmbrSender,
    TmmbrEntry,
)

__all__ = [
    "AUDIO_CLOCK_HZ",
    "AUDIO_PAYLOAD_TYPE",
    "AppPacket",
    "GenericNack",
    "GsoTmmbn",
    "GsoTmmbr",
    "NackTracker",
    "RembPacket",
    "RetransmissionCache",
    "PT_APP",
    "PT_RR",
    "PT_RTPFB",
    "RTP_HEADER_LEN",
    "ReceiverReport",
    "ReliableTmmbrSender",
    "ReportBlock",
    "RtpPacket",
    "SembReport",
    "SsrcAllocator",
    "SsrcKey",
    "TmmbrEntry",
    "TwccFeedback",
    "VIDEO_CLOCK_HZ",
    "VIDEO_PAYLOAD_TYPE",
    "decode_exp_mantissa",
    "encode_exp_mantissa",
    "is_nack",
    "is_remb",
    "parse_common_header",
    "parse_compound",
    "seq_distance",
    "seq_less_than",
]
