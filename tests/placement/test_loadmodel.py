"""The deterministic per-shard load model."""

from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.ladder import paper_ladder
from repro.core.types import Resolution
from repro.placement.loadmodel import (
    DEFAULT_MEETING_COST,
    ShardLoadModel,
    meeting_cost,
)


def mesh(n):
    ids = [f"c{k}" for k in range(n)]
    ladder = paper_ladder()
    return Problem(
        feasible_streams={cid: ladder for cid in ids},
        bandwidth={cid: Bandwidth(5000, 3000) for cid in ids},
        subscriptions=[
            Subscription(a, b, Resolution.P720)
            for a in ids
            for b in ids
            if a != b
        ],
    )


class TestCosts:
    def test_meeting_cost_counts_edges_plus_publishers(self):
        # n=3 full mesh: 6 subscriptions + 3 publishers.
        assert meeting_cost(mesh(3)) == 9.0

    def test_meeting_cost_is_n_squared_on_meshes(self):
        for n in (2, 3, 5, 8):
            assert meeting_cost(mesh(n)) == float(n * n)


class TestShardLoadModel:
    def test_assign_and_loads(self):
        model = ShardLoadModel(["s0", "s1"])
        model.assign("m0", "s0", 9.0)
        model.assign("m1", "s1", 4.0)
        assert model.loads() == {"s0": 9.0, "s1": 4.0}
        assert model.load("s0") == 9.0
        assert model.load("unknown") == 0.0

    def test_assign_is_idempotent_reassign(self):
        model = ShardLoadModel(["s0", "s1"])
        model.assign("m0", "s0", 9.0)
        model.assign("m0", "s1", 9.0)  # release-then-add, no double count
        assert model.loads() == {"s0": 0.0, "s1": 9.0}

    def test_update_cost_moves_the_delta(self):
        model = ShardLoadModel(["s0"])
        model.assign("m0", "s0", 4.0)
        model.update_cost("m0", 25.0)
        assert model.load("s0") == 25.0
        assert model.cost_of("m0") == 25.0

    def test_update_cost_ignores_untracked(self):
        model = ShardLoadModel(["s0"])
        model.update_cost("ghost", 10.0)
        assert model.loads() == {"s0": 0.0}

    def test_move_transfers_cost(self):
        model = ShardLoadModel(["s0", "s1"])
        model.assign("m0", "s0", 9.0)
        model.move("m0", "s1")
        assert model.loads() == {"s0": 0.0, "s1": 9.0}
        assert model.shard_of("m0") == "s1"

    def test_release_forgets(self):
        model = ShardLoadModel(["s0"])
        model.assign("m0", "s0", 9.0)
        model.release("m0")
        assert model.load("s0") == 0.0
        assert model.shard_of("m0") is None
        assert model.cost_of("m0") == DEFAULT_MEETING_COST

    def test_remove_shard_only_when_empty(self):
        model = ShardLoadModel(["s0", "s1"])
        model.assign("m0", "s0", 9.0)
        model.remove_shard("s0")  # refused: still loaded
        assert "s0" in model.loads()
        model.remove_shard("s1")
        assert "s1" not in model.loads()

    def test_meetings_on_sorted_by_id(self):
        model = ShardLoadModel(["s0"])
        model.assign("m2", "s0", 1.0)
        model.assign("m0", "s0", 2.0)
        model.assign("m1", "s0", 3.0)
        assert model.meetings_on("s0") == [
            ("m0", 2.0),
            ("m1", 3.0),
            ("m2", 1.0),
        ]

    def test_loads_restricted_to_requested_shards(self):
        model = ShardLoadModel(["s0", "s1"])
        model.assign("m0", "s0", 9.0)
        assert model.loads(["s1", "s2"]) == {"s1": 0.0, "s2": 0.0}

    def test_snapshot_shape(self):
        model = ShardLoadModel(["s1", "s0"])
        model.assign("m0", "s0", 9.0)
        snap = model.snapshot()
        assert snap == {
            "loads": {"s0": 9.0, "s1": 0.0},
            "meetings": 1,
            "total_cost": 9.0,
        }
        assert list(snap["loads"]) == ["s0", "s1"]  # sorted
