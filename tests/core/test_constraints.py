"""Unit tests for repro.core.constraints."""

import pytest

from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.ladder import paper_ladder
from repro.core.types import Resolution, StreamSpec


def two_client_problem(**kwargs):
    ladder = paper_ladder()
    return Problem(
        feasible_streams={"A": ladder, "B": ladder},
        bandwidth={"A": Bandwidth(5000, 5000), "B": Bandwidth(5000, 5000)},
        subscriptions=[Subscription("B", "A"), Subscription("A", "B")],
        **kwargs,
    )


class TestBandwidth:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Bandwidth(-1, 100)
        with pytest.raises(ValueError):
            Bandwidth(100, -1)
        with pytest.raises(ValueError):
            Bandwidth(100, 100, audio_protection_kbps=-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        # NaN used to be accepted (it fails every `< 0` comparison) and
        # "solved" silently; inf died deep inside the DP.
        for args in ((bad, 1000), (1000, bad), (1000, 1000, bad)):
            with pytest.raises(ValueError, match="finite"):
                Bandwidth(*args)

    def test_audio_protection_subtracts(self):
        bw = Bandwidth(1000, 2000, audio_protection_kbps=64)
        assert bw.effective_uplink_kbps == 936
        assert bw.effective_downlink_kbps == 1936

    def test_audio_protection_floors_at_zero(self):
        bw = Bandwidth(50, 50, audio_protection_kbps=64)
        assert bw.effective_uplink_kbps == 0
        assert bw.effective_downlink_kbps == 0


class TestSubscription:
    def test_rejects_self_subscription(self):
        with pytest.raises(ValueError, match="itself"):
            Subscription("A", "A")

    def test_default_cap_is_720(self):
        assert Subscription("A", "B").max_resolution == Resolution.P720


class TestProblemValidation:
    def test_valid_problem_builds(self):
        p = two_client_problem()
        assert p.publishers == ["A", "B"]
        assert p.subscribers == ["A", "B"]

    def test_rejects_duplicate_edges(self):
        ladder = paper_ladder()
        with pytest.raises(ValueError, match="duplicate"):
            Problem(
                {"A": ladder},
                {"A": Bandwidth(1, 1), "B": Bandwidth(1, 1)},
                [Subscription("B", "A"), Subscription("B", "A")],
            )

    def test_rejects_unknown_publisher(self):
        with pytest.raises(ValueError, match="unknown publisher"):
            Problem(
                {},
                {"B": Bandwidth(1, 1)},
                [Subscription("B", "A")],
            )

    def test_rejects_subscriber_without_bandwidth(self):
        ladder = paper_ladder()
        with pytest.raises(ValueError, match="no bandwidth"):
            Problem(
                {"A": ladder},
                {"A": Bandwidth(1, 1)},
                [Subscription("B", "A")],
            )

    def test_rejects_publisher_without_bandwidth(self):
        ladder = paper_ladder()
        with pytest.raises(ValueError, match="no bandwidth"):
            Problem({"A": ladder}, {}, [])

    def test_rejects_alias_with_own_feasible_set(self):
        ladder = paper_ladder()
        with pytest.raises(ValueError, match="feasible set"):
            Problem(
                {"A": ladder, "A#v": ladder},
                {"A": Bandwidth(1, 1)},
                [],
                aliases={"A#v": "A"},
            )

    def test_rejects_alias_to_unknown_target(self):
        with pytest.raises(ValueError, match="unknown publisher"):
            Problem(
                {},
                {"A": Bandwidth(1, 1)},
                [],
                aliases={"A#v": "X"},
            )

    def test_rejects_subscribing_own_alias(self):
        ladder = paper_ladder()
        with pytest.raises(ValueError, match="own alias"):
            Problem(
                {"A": ladder},
                {"A": Bandwidth(1, 1)},
                [Subscription("A", "A#v")],
                aliases={"A#v": "A"},
            )

    def test_rejects_owner_without_bandwidth(self):
        ladder = paper_ladder()
        with pytest.raises(ValueError, match="no bandwidth"):
            Problem(
                {"A:screen": ladder},
                {},
                [],
                owners={"A:screen": "A"},
            )


class TestTopologyAccessors:
    def test_followed_and_served(self):
        p = two_client_problem()
        assert [e.publisher for e in p.followed_by("A")] == ["B"]
        assert [e.subscriber for e in p.served_by("A")] == ["B"]

    def test_edge_lookup(self):
        p = two_client_problem()
        assert p.edge("A", "B") is not None
        assert p.edge("A", "nope") is None

    def test_feasible_for_edge_caps_resolution(self):
        ladder = paper_ladder()
        p = Problem(
            {"A": ladder},
            {"A": Bandwidth(1, 1), "B": Bandwidth(1, 1)},
            [Subscription("B", "A", Resolution.P180)],
        )
        edge = p.edge("B", "A")
        feasible = p.feasible_for_edge(edge)
        assert all(s.resolution <= Resolution.P180 for s in feasible)

    def test_feasible_for_edge_uses_restriction(self):
        p = two_client_problem()
        edge = p.edge("B", "A")
        restricted = {"A": [], "B": []}
        assert p.feasible_for_edge(edge, restricted=restricted) == []

    def test_canonical_and_owner_identity_by_default(self):
        p = two_client_problem()
        assert p.canonical("A") == "A"
        assert p.owner("A") == "A"

    def test_alias_resolution(self):
        ladder = paper_ladder()
        p = Problem(
            {"A": ladder},
            {"A": Bandwidth(1, 1), "B": Bandwidth(1, 1)},
            [Subscription("B", "A#v")],
            aliases={"A#v": "A"},
        )
        assert p.canonical("A#v") == "A"
        assert [e.subscriber for e in p.served_by("A")] == ["B"]

    def test_owner_and_entities(self):
        ladder = paper_ladder()
        p = Problem(
            {"A": ladder, "A:screen": ladder},
            {"A": Bandwidth(1, 1), "B": Bandwidth(1, 1)},
            [Subscription("B", "A:screen")],
            owners={"A:screen": "A"},
        )
        assert p.owner("A:screen") == "A"
        assert p.entities_of("A") == ["A", "A:screen"]
        assert "A" in p.clients and "B" in p.clients

    def test_budgets_respect_audio_protection(self):
        ladder = paper_ladder()
        p = Problem(
            {"A": ladder},
            {"A": Bandwidth(1000, 2000, audio_protection_kbps=100)},
            [],
        )
        assert p.uplink_budget("A") == 900
        assert p.downlink_budget("A") == 1900
