"""Tests for the Table 2 scenario matrix."""

from repro.conference.scenarios import (
    DUT,
    HEALTHY_DOWN_KBPS,
    HEALTHY_UP_KBPS,
    SlowLinkCase,
    affected_views,
    slow_link_cases,
    slow_link_meeting,
)


class TestMatrix:
    def test_full_matrix_has_15_cases(self):
        cases = slow_link_cases()
        assert len(cases) == 15  # normal + 7 per direction

    def test_paper_case_names_present(self):
        names = {c.name for c in slow_link_cases()}
        for expected in (
            "normal",
            "up-30%", "up-50%", "up-50ms", "up-100ms",
            "up-0.5M", "up-1M", "up-1.5M",
            "down-30%", "down-50%", "down-50ms", "down-100ms",
            "down-0.5M", "down-1M", "down-1.5M",
        ):
            assert expected in names

    def test_case_parameters(self):
        cases = {c.name: c for c in slow_link_cases()}
        assert cases["up-30%"].loss_rate == 0.30
        assert cases["down-100ms"].jitter_ms == 100.0
        assert cases["up-0.5M"].bandwidth_kbps == 500.0
        assert cases["down-1.5M"].direction == "downlink"


class TestMeetingConstruction:
    def test_uplink_limit_applies_to_dut_uplink_only(self):
        case = SlowLinkCase("up-1M", "uplink", bandwidth_kbps=1000.0)
        spec = slow_link_meeting(case, "gso")
        dut = next(c for c in spec.clients if c.client_id == DUT)
        assert dut.uplink_kbps == 1000.0
        assert dut.downlink_kbps == HEALTHY_DOWN_KBPS

    def test_downlink_limit_applies_to_dut_downlink_only(self):
        case = SlowLinkCase("down-1M", "downlink", bandwidth_kbps=1000.0)
        spec = slow_link_meeting(case, "gso")
        dut = next(c for c in spec.clients if c.client_id == DUT)
        assert dut.downlink_kbps == 1000.0
        assert dut.uplink_kbps == HEALTHY_UP_KBPS

    def test_peers_are_healthy(self):
        case = SlowLinkCase("up-50%", "uplink", loss_rate=0.5)
        spec = slow_link_meeting(case, "nongso", n_peers=3)
        peers = [c for c in spec.clients if c.client_id != DUT]
        assert len(peers) == 3
        assert all(p.loss_rate == 0.0 for p in peers)

    def test_modes_pass_through(self):
        case = slow_link_cases()[0]
        assert slow_link_meeting(case, "competitor1").mode == "competitor1"


class TestAffectedViews:
    def test_uplink_cases_hit_views_of_dut(self):
        case = SlowLinkCase("up-30%", "uplink", loss_rate=0.3)
        hit = affected_views(case)
        assert hit("peer0", DUT)
        assert not hit(DUT, "peer0")

    def test_downlink_cases_hit_duts_views(self):
        case = SlowLinkCase("down-30%", "downlink", loss_rate=0.3)
        hit = affected_views(case)
        assert hit(DUT, "peer0")
        assert not hit("peer0", DUT)

    def test_normal_hits_everything(self):
        case = SlowLinkCase("normal", "downlink")
        hit = affected_views(case)
        assert hit("a", "b") and hit(DUT, "peer0")
