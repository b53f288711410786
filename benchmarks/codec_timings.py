"""Microseconds per packet for every ``repro.rtp`` decoder and encoder.

Run from the repo root::

    PYTHONPATH=src python benchmarks/codec_timings.py [--repeat 7] [--number 20000]

Each row times one call on a fixed, representative packet: the best of
``--repeat`` runs of ``--number`` calls (``timeit``), so a row reads the
codec's own cost, not the host's noise.  The ``fleet_mix`` rows are the
calls the benchmark harness makes per SEMB packet and per GSO TMMBR
push; the rest are the packet-level meeting path.  Only public API is
used, so the script runs unchanged against an older checkout.
"""

from __future__ import annotations

import argparse
import timeit

from repro.core.types import Resolution
from repro.rtp.nack import GenericNack
from repro.rtp.packet import RtpPacket
from repro.rtp.remb import RembPacket
from repro.rtp.rtcp import (
    AppPacket,
    ReceiverReport,
    ReportBlock,
    TwccFeedback,
    parse_compound,
)
from repro.rtp.semb import SembReport, encode_exp_mantissa
from repro.rtp.ssrc import SsrcAllocator
from repro.rtp.tmmbr import GsoTmmbr, TmmbrEntry


def _cases():
    semb = SembReport(0x10005, 2_400_000).to_app_packet().serialize()
    semb_ssrcs = SembReport(5, 2_400_000, (7, 8, 9)).to_app_packet().serialize()
    compound = semb * 8
    entries = tuple(
        TmmbrEntry(ssrc=0x10000 + k, bitrate_bps=rate)
        for k, rate in enumerate((0, 350_000, 1_200_000))
    )
    gtbr = GsoTmmbr(1, 42, entries).to_app_packet().serialize()
    rr = ReceiverReport(1, (ReportBlock(2, 12, 345, 6789, 10),)).serialize()
    twcc = TwccFeedback(1, 2, tuple((k, 1000 * k) for k in range(2, 18))).serialize()
    nack = GenericNack(1, 2, (10, 11, 30, 31, 90)).serialize()
    remb = RembPacket(1, 2_500_000, (3, 4)).serialize()
    rtp = RtpPacket(1, 2, 3, payload=b"x" * 1000, twcc_seq=77).serialize()
    allocator = SsrcAllocator()
    for k in range(64):
        allocator.allocate(f"m0001/c{k:02d}", Resolution.P720)

    def semb_decode():
        for raw in parse_compound(semb):
            SembReport.from_app_packet(AppPacket.parse(raw))

    def tmmbr_encode():
        GsoTmmbr(
            1,
            42,
            tuple(
                TmmbrEntry(ssrc=allocator.allocate("m0001/c07", res), bitrate_bps=rate)
                for res, rate in (
                    (Resolution.P180, 0),
                    (Resolution.P360, 350_000),
                    (Resolution.P720, 1_200_000),
                )
            ),
        ).to_app_packet().serialize()

    def semb_encode():
        SembReport(5, 2_400_000).to_app_packet().serialize()

    def decode_app(cls, wire):
        app = AppPacket.parse(wire)
        return lambda: cls.from_app_packet(app)

    def hit():
        return allocator.allocate("m0001/c07", Resolution.P720)

    return (
        ("fleet_mix", "SEMB decode (parse_compound + APP + SEMB)", semb_decode),
        ("fleet_mix", "GSO TMMBR build + encode (3 entries)", tmmbr_encode),
        ("decode", "parse_compound, 8 SEMB packets", lambda: parse_compound(compound)),
        ("decode", "AppPacket.parse", lambda: AppPacket.parse(semb)),
        ("decode", "SembReport.from_app_packet", decode_app(SembReport, semb)),
        ("decode", "SembReport.from_app_packet, 3 SSRCs", decode_app(SembReport, semb_ssrcs)),
        ("decode", "GsoTmmbr.from_app_packet, 3 entries", decode_app(GsoTmmbr, gtbr)),
        ("decode", "ReceiverReport.parse, 1 block", lambda: ReceiverReport.parse(rr)),
        ("decode", "TwccFeedback.parse, 16 arrivals", lambda: TwccFeedback.parse(twcc)),
        ("decode", "GenericNack.parse, 5 seqs", lambda: GenericNack.parse(nack)),
        ("decode", "RembPacket.parse, 2 SSRCs", lambda: RembPacket.parse(remb)),
        ("decode", "RtpPacket.parse, TWCC extension", lambda: RtpPacket.parse(rtp)),
        ("encode", "encode_exp_mantissa, 17 bits", lambda: encode_exp_mantissa(1_200_000, 17)),
        ("encode", "TmmbrEntry.serialize", entries[2].serialize),
        ("encode", "GsoTmmbr.to_app_packet, 3 entries", GsoTmmbr(1, 42, entries).to_app_packet),
        ("encode", "AppPacket.serialize", AppPacket.parse(gtbr).serialize),
        ("encode", "SembReport(...).to_app_packet().serialize()", semb_encode),
        ("encode", "ReceiverReport.serialize, 1 block", ReceiverReport.parse(rr).serialize),
        ("encode", "TwccFeedback.serialize, 16 arrivals", TwccFeedback.parse(twcc).serialize),
        ("encode", "GenericNack.serialize, 5 seqs", GenericNack.parse(nack).serialize),
        ("encode", "RembPacket.serialize, 2 SSRCs", RembPacket.parse(remb).serialize),
        ("encode", "RtpPacket.serialize, TWCC extension", RtpPacket.parse(rtp).serialize),
        ("ssrc", "SsrcAllocator.allocate, hit", hit),
        ("ssrc", "SsrcAllocator.lookup, hit", lambda: allocator.lookup(0x10007)),
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--number", type=int, default=20_000)
    args = parser.parse_args(argv)
    for group, label, call in _cases():
        best = min(timeit.repeat(call, repeat=args.repeat, number=args.number))
        print(f"{group:<10} {label:<46} {1e6 * best / args.number:7.2f} us")


if __name__ == "__main__":
    main()
