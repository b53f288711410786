"""End-to-end test: the dead-stream detector against a net/ loss burst.

Publisher "pub" simulcasts two streams (P720 + P180) into its accessing
node over two simulated links.  Mid-run the P720 stream suffers a
blackout (its sender skips every send inside the window, a loss burst)
while P180 keeps flowing — exactly the Sec. 7 condition: "a server instructs a client to
send multiple streams, however, only a low bitrate stream is received".
:meth:`~repro.control.feedback.FeedbackExecutor.dead_configured_streams`
must flag the high stream while the burst lasts and clear it once the
stream recovers.
"""

from repro.core.types import Resolution
from repro.net.link import Link
from repro.net.packet import packet_for_bytes
from repro.net.simulator import PeriodicTask
from repro.rtp.packet import RtpPacket

from .test_watchdog_executor import build, install_config

BLACKOUT = (4.0, 8.0)
DURATION = 12.0
HIGH_SSRC = 0x70
LOW_SSRC = 0x18


def run_meeting(dark_links=("high",), probes=(3.5, 6.8, 10.8)):
    """Returns the detector's answer at each probe time."""
    sim, _, node, executor = build()
    install_config(executor, {Resolution.P720: 1200, Resolution.P180: 200})

    def deliver(packet, now_s):
        node.on_packet_from_client("pub", packet, now_s)

    skipped = {}
    for label, ssrc, size in (
        ("high", HIGH_SSRC, 1200),
        ("low", LOW_SSRC, 300),
    ):
        link = Link(sim, 5000.0, name=f"pub-{label}")
        link.connect(deliver)
        skipped[label] = 0
        seq = iter(range(1_000_000))

        def send(link=link, label=label, ssrc=ssrc, size=size, seq=seq):
            n = next(seq)
            if label in dark_links and BLACKOUT[0] <= sim.now < BLACKOUT[1]:
                skipped[label] += 1
                return
            rtp = RtpPacket(
                ssrc=ssrc,
                seq=n,
                timestamp=n * 3000,
                marker=True,
                payload=bytes(size),
            )
            link.send(packet_for_bytes(rtp.serialize(), src="pub"))

        PeriodicTask(sim, 0.1, send, start_offset=0.05)

    observations = {}
    for at in probes:
        sim.schedule_at(
            at,
            lambda at=at: observations.__setitem__(
                at, executor.dead_configured_streams(sim.now)
            ),
        )
    sim.run_until(DURATION)
    return observations, skipped


class TestWatchdogEndToEnd:
    def test_downgrade_fires_during_burst_and_unfires_after(self):
        obs, skipped = run_meeting()
        assert obs[3.5] == []
        assert obs[6.8] == [("pub", Resolution.P720)]
        assert obs[10.8] == []
        # The blackout hit the high stream only: the 10 Hz sends at
        # 4.05 .. 7.95 s, and none of the low stream's.
        assert skipped == {"high": 40, "low": 0}

    def test_no_downgrade_when_low_stream_also_dark(self):
        """A publisher gone entirely silent is an outage, not a downgrade
        case: no sibling is alive to carry the subscribers."""
        obs, _ = run_meeting(dark_links=("high", "low"))
        assert obs == {3.5: [], 6.8: [], 10.8: []}

    def test_a_fresh_burst_waits_out_the_stale_window(self):
        # 0.5 s into the burst the last high packet is younger than the
        # detector's 0.8 s staleness bound; 1.5 s in, it is not.
        obs, _ = run_meeting(probes=(4.5, 5.5))
        assert obs[4.5] == []
        assert obs[5.5] == [("pub", Resolution.P720)]
