"""The deterministic per-meeting solve-cost estimate."""

from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.ladder import paper_ladder
from repro.core.types import Resolution
from repro.placement.loadmodel import meeting_cost


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
