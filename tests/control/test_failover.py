"""Unit tests for the design-for-failure mechanisms (Sec. 7)."""

from repro.control.failover import single_stream_fallback
from repro.core import Bandwidth, Resolution, StreamSpec, paper_ladder
from repro.core.constraints import Problem, Subscription


class TestSingleStreamFallback:
    def mesh(self, bandwidths):
        ladder = paper_ladder()
        clients = list(bandwidths)
        return Problem(
            {c: ladder for c in clients},
            {c: Bandwidth(*bw) for c, bw in bandwidths.items()},
            [
                Subscription(a, b)
                for a in clients
                for b in clients
                if a != b
            ],
        )

    def test_every_publisher_drops_to_smallest_stream(self):
        p = self.mesh({"A": (5000, 5000), "B": (5000, 5000)})
        s = single_stream_fallback(p)
        s.validate(p)
        for pub in ("A", "B"):
            streams = s.published_streams(pub)
            assert len(streams) == 1
            assert streams[0].bitrate_kbps == 100  # ladder minimum

    def test_fallback_respects_downlink(self):
        p = self.mesh({"A": (5000, 150), "B": (5000, 5000), "C": (5000, 5000)})
        s = single_stream_fallback(p)
        s.validate(p)
        # A's 150 kbps downlink fits one 100 kbps stream, not two.
        assert len(s.assignments.get("A", {})) == 1

    def test_fallback_respects_uplink(self):
        p = self.mesh({"A": (50, 5000), "B": (5000, 5000)})
        s = single_stream_fallback(p)
        s.validate(p)
        assert s.policies.get("A", {}) == {}

    def test_tie_break_picks_lowest_resolution_regardless_of_order(self):
        # Two streams at the same bitrate: the fallback must choose by
        # (bitrate, resolution), not by feasible-set ordering.  Equal
        # bitrates cannot pass Problem validation, so the tie is staged
        # by overriding the feasible set after construction.
        tie = [
            StreamSpec(100, Resolution.P360, 60.0),
            StreamSpec(100, Resolution.P90, 20.0),
        ]
        p = self.mesh({"A": (5000, 5000), "B": (5000, 5000)})
        for order in (list(tie), list(reversed(tie))):
            p.feasible_streams["A"] = order
            s = single_stream_fallback(p)
            streams = s.published_streams("A")
            assert len(streams) == 1
            assert streams[0].resolution == Resolution.P90
            assert streams[0].bitrate_kbps == 100

    def test_fallback_respects_subscription_caps(self):
        ladder = [StreamSpec(500, Resolution.P360, 100.0)]
        p = Problem(
            {"A": ladder},
            {"A": Bandwidth(5000, 100), "B": Bandwidth(100, 5000)},
            [Subscription("B", "A", Resolution.P180)],
        )
        s = single_stream_fallback(p)
        s.validate(p)
        assert s.assignments.get("B", {}) == {}

    def test_empty_problem(self):
        s = single_stream_fallback(Problem({}, {}, []))
        assert s.policies == {}


class TestControllerFallbackIntegration:
    def test_solver_exception_engages_fallback(self):
        """A poisoned solver must not take the meeting down."""
        from repro.control.conference_node import ConferenceNode
        from repro.control.feedback import FeedbackExecutor
        from repro.control.gso_controller import conference_plane
        from repro.media.sfu import AccessingNode
        from repro.net.simulator import Simulator
        from repro.sdp.simulcast_info import (
            ResolutionCapability,
            SimulcastInfo,
        )

        sim = Simulator()
        conference = ConferenceNode()
        node = AccessingNode(sim, "n0")
        for name, base in (("A", 0x100), ("B", 0x200)):
            conference.join(
                SimulcastInfo(
                    client=name,
                    codec="H264",
                    max_streams=1,
                    resolutions=(
                        ResolutionCapability(Resolution.P360, 800, 400, base),
                    ),
                ),
                "n0",
            )
        conference.subscribe("B", "A")
        executor = FeedbackExecutor(sim, conference, {"n0": node})
        plane = conference_plane(sim, conference, executor)

        class Boom:
            def solve(self, problem, incumbent=None):
                raise RuntimeError("poisoned")

        plane.backend._solver = Boom()
        sim.run_until(1.5)
        assert [d.source for d in plane.decisions] == ["fallback"]
        assert plane.backend.guards.fallbacks == 1
        # The fallback solution is served and executed.
        assert plane.backend.last_solution is plane.decisions[0].solution
        assert executor.stats.executions == 1
