"""Unit tests for the conference node (signaling + global picture)."""

import pytest

from repro.control.conference_node import ConferenceNode, ConferenceNodeConfig
from repro.core.types import Resolution
from repro.core.virtual import screen_id
from repro.rtp.semb import SembReport
from repro.sdp.simulcast_info import ResolutionCapability, SimulcastInfo


def info_for(client, base_ssrc=0x100):
    return SimulcastInfo(
        client=client,
        codec="H264",
        max_streams=3,
        resolutions=(
            ResolutionCapability(Resolution.P720, 1500, 900, base_ssrc),
            ResolutionCapability(Resolution.P360, 800, 400, base_ssrc + 1),
            ResolutionCapability(Resolution.P180, 300, 100, base_ssrc + 2),
        ),
    )


def make_node(**cfg):
    return ConferenceNode(ConferenceNodeConfig(**cfg)) if cfg else ConferenceNode()


class TestJoinLeave:
    def test_join_registers_capability(self):
        node = make_node()
        state = node.join(info_for("A"), node_name="n0")
        assert state.client == "A"
        assert len(state.feasible_streams) == 15  # 3 res x 5 levels
        assert node.participants() == ["A"]

    def test_duplicate_join_rejected(self):
        node = make_node()
        node.join(info_for("A"), "n0")
        with pytest.raises(ValueError, match="already joined"):
            node.join(info_for("A", base_ssrc=0x200), "n0")

    def test_leave_cleans_everything(self):
        node = make_node()
        node.join(info_for("A"), "n0")
        node.join(info_for("B", 0x200), "n0")
        node.subscribe("B", "A")
        node.leave("A")
        assert node.participants() == ["B"]
        problem = node.snapshot()
        assert problem.subscriptions == []

    def test_join_bumps_version(self):
        node = make_node()
        v0 = node.version
        node.join(info_for("A"), "n0")
        assert node.version > v0

    def test_ssrc_lookup(self):
        node = make_node()
        node.join(info_for("A"), "n0")
        assert node.ssrc_for("A", Resolution.P720) == 0x100
        assert node.ssrc_for("A", Resolution.P90) is None
        assert node.ssrc_for("ghost", Resolution.P720) is None


class TestSubscriptions:
    def test_subscribe_requires_known_parties(self):
        node = make_node()
        node.join(info_for("A"), "n0")
        with pytest.raises(ValueError, match="unknown subscriber"):
            node.subscribe("ghost", "A")
        node.join(info_for("B", 0x200), "n0")
        with pytest.raises(ValueError, match="unknown publisher"):
            node.subscribe("B", "ghost")

    def test_unsubscribe(self):
        node = make_node()
        node.join(info_for("A"), "n0")
        node.join(info_for("B", 0x200), "n0")
        node.subscribe("B", "A")
        node.unsubscribe("B", "A")
        assert node.snapshot().subscriptions == []

    def test_resubscribe_replaces_the_edge(self):
        # A layout change (thumbnail -> speaker tile) re-subscribes the
        # pair; it used to append a second edge, and every later
        # snapshot() raised "duplicate subscription".
        from repro.core import solve

        node = make_node()
        node.join(info_for("A"), "n0")
        node.join(info_for("B", 0x200), "n0")
        node.subscribe("B", "A", Resolution.P180)
        first = node.snapshot()
        assert first.edge("B", "A").max_resolution == Resolution.P180
        node.subscribe("B", "A", Resolution.P720)
        second = node.snapshot()
        assert [e.max_resolution for e in second.subscriptions] == [Resolution.P720]
        thumbnail = solve(first).assignments["B"]["A"]
        tile = solve(second).assignments["B"]["A"]
        assert thumbnail.resolution == Resolution.P180
        assert tile.resolution > Resolution.P180

    def test_resubscribe_bumps_version_only_when_the_cap_changed(self):
        node = make_node()
        node.join(info_for("A"), "n0")
        node.join(info_for("B", 0x200), "n0")
        node.subscribe("B", "A", Resolution.P360)
        v0 = node.version
        node.subscribe("B", "A", Resolution.P360)
        assert node.version == v0
        node.subscribe("B", "A", Resolution.P180)
        assert node.version == v0 + 1

    def test_resubscribe_keeps_the_edge_order(self):
        node = make_node()
        for k, client in enumerate("ABC"):
            node.join(info_for(client, 0x100 * (k + 1)), "n0")
        node.subscribe("C", "A")
        node.subscribe("C", "B")
        node.subscribe("C", "A", Resolution.P180)
        assert [e.publisher for e in node.snapshot().subscriptions] == ["A", "B"]

    @pytest.mark.parametrize("cap", [1234, "720", None])
    def test_subscribe_rejects_a_cap_that_is_not_a_rung(self, cap):
        node = make_node()
        node.join(info_for("A"), "n0")
        node.join(info_for("B", 0x200), "n0")
        v0 = node.version
        with pytest.raises(ValueError):
            node.subscribe("B", "A", cap)
        assert node.version == v0
        assert node.snapshot().subscriptions == []

    def test_subscribe_coerces_a_bare_int_cap(self):
        # 720 off the wire used to ride through to Problem.fingerprint,
        # which died on ``.value``.
        node = make_node()
        node.join(info_for("A"), "n0")
        node.join(info_for("B", 0x200), "n0")
        node.subscribe("B", "A", 360)
        problem = node.snapshot()
        assert problem.subscriptions[0].max_resolution is Resolution.P360
        assert problem.fingerprint().startswith("repro.problem_fp/")

    def test_dual_subscription_creates_alias(self):
        node = make_node()
        node.join(info_for("A"), "n0")
        node.join(info_for("B", 0x200), "n0")
        vid = node.subscribe_dual("B", "A")
        problem = node.snapshot()
        assert problem.canonical(vid) == "A"
        assert len(problem.followed_by("B")) == 2

    def test_screen_share_join(self):
        node = make_node()
        node.join(info_for("A"), "n0")
        node.join(info_for("B", 0x200), "n0")
        sid = screen_id("A")
        node.join_screen_share("A", info_for(sid, 0x300), "n0")
        node.subscribe("B", sid)
        problem = node.snapshot()
        assert problem.owner(sid) == "A"

    def test_screen_share_id_enforced(self):
        node = make_node()
        node.join(info_for("A"), "n0")
        with pytest.raises(ValueError, match="must use id"):
            node.join_screen_share("A", info_for("wrong-id", 0x300), "n0")


class TestBandwidthIngestion:
    def test_semb_updates_uplink(self):
        node = make_node()
        node.join(info_for("A"), "n0")
        node.on_semb_report("A", SembReport(1, 2_000_000), now_s=1.0)
        assert node.participant("A").uplink_kbps == 2000

    def test_downlink_update(self):
        node = make_node()
        node.join(info_for("A"), "n0")
        node.update_downlink("A", 3000)
        assert node.participant("A").downlink_kbps == 3000

    def test_unknown_client_reports_ignored(self):
        node = make_node()
        node.on_semb_report("ghost", SembReport(1, 1_000_000), 0.0)
        node.update_downlink("ghost", 1000)  # no exception

    def test_insignificant_change_does_not_bump_version(self):
        node = make_node(significant_change=0.15)
        node.join(info_for("A"), "n0")
        node.update_downlink("A", 1000)
        v = node.version
        node.update_downlink("A", 1100)  # +10% < 15%
        assert node.version == v
        # ...but the stored value still advanced (for the periodic solve).
        assert node.participant("A").downlink_kbps == 1100

    def test_significant_change_bumps_version(self):
        node = make_node(significant_change=0.15)
        node.join(info_for("A"), "n0")
        node.update_downlink("A", 1000)
        v = node.version
        node.update_downlink("A", 600)
        assert node.version > v

    def test_upgrade_damping_applied(self):
        node = make_node()
        node.join(info_for("A"), "n0")
        node.update_downlink("A", 1000)
        node.update_downlink("A", 600)  # downgrade passes
        node.update_downlink("A", 650)  # small upgrade clamped
        assert node.participant("A").downlink_kbps == 600


class TestSnapshot:
    def build_pair(self, **cfg):
        node = make_node(**cfg)
        node.join(info_for("A"), "n0")
        node.join(info_for("B", 0x200), "n0")
        node.subscribe("B", "A", Resolution.P720)
        return node

    def test_defaults_used_before_measurements(self):
        node = self.build_pair(default_bandwidth_kbps=1000, headroom_fraction=1.0,
                               bandwidth_quantum_kbps=1, audio_protection_kbps=0)
        problem = node.snapshot()
        assert problem.bandwidth["A"].uplink_kbps == 1000

    def test_headroom_and_quantization(self):
        node = self.build_pair(headroom_fraction=0.9, bandwidth_quantum_kbps=50)
        node.update_downlink("B", 1037)
        problem = node.snapshot()
        # 1037 * 0.9 = 933.3 -> floor to 900.
        assert problem.bandwidth["B"].downlink_kbps == 900

    def test_snapshot_solves(self):
        from repro.core import solve

        node = self.build_pair()
        node.on_semb_report("A", SembReport(1, 3_000_000), 0.0)
        node.update_downlink("B", 2000)
        problem = node.snapshot()
        solution = solve(problem)
        solution.validate(problem)
        assert solution.assignments["B"]["A"].bitrate_kbps > 0

    def test_priority_weights_flow_into_snapshot(self):
        node = self.build_pair()
        node.priority.speaker = "A"
        problem = node.snapshot()
        plain = self.build_pair().snapshot()
        boosted = {s.bitrate_kbps: s.qoe for s in problem.feasible_streams["A"]}
        base = {s.bitrate_kbps: s.qoe for s in plain.feasible_streams["A"]}
        for rate, qoe in base.items():
            assert boosted[rate] > qoe
