"""Hot-shard detection and live drain: Tetris's defrag loop.

Packing only helps if placements stay good after churn: meetings grow
(screen shares start, galleries fill) and a shard that fit yesterday
can breach its budget today.  :class:`HotShardDetector` watches the
deterministic per-shard load model and *drains* over-budget shards by
live-migrating their heaviest meetings onto the emptiest peers, through
:meth:`~repro.cluster.cluster.ControllerCluster.migrate_meeting` — the
fallback-then-reconverge path, so no meeting goes dark mid-move.

Moves are accepted only when they strictly reduce the source shard's
load below what the target would reach, which makes each rebalance round
a monotone improvement: the loop cannot ping-pong a meeting between two
shards, and it terminates at a fixpoint where either every shard is
within budget or no single move helps (e.g. one meeting alone exceeds
the budget).  Everything derives from the deterministic load model, so
seeded runs rebalance identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..obs import names as obs_names
from ..obs.spans import span

if TYPE_CHECKING:  # placement -> cluster is typing-only (no runtime cycle)
    from ..cluster.cluster import ControllerCluster, ServedSolution


@dataclass
class RebalanceResult:
    """What one :meth:`HotShardDetector.rebalance` round did."""

    #: (meeting_id, source_shard, target_shard, cost) per migration.
    moves: List[Tuple[str, str, str, float]] = field(default_factory=list)
    #: Degraded (single-stream fallback) solutions served mid-move, in
    #: move order — callers deliver these like any other served batch.
    served: List["ServedSolution"] = field(default_factory=list)
    #: Shards still over budget at the fixpoint (no improving move left).
    hot_after: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "moves": [
                {
                    "meeting": mid,
                    "from": src,
                    "to": dst,
                    "cost": round(cost, 3),
                }
                for mid, src, dst, cost in self.moves
            ],
            "served": len(self.served),
            "hot_after": list(self.hot_after),
        }


class HotShardDetector:
    """Drains shards whose assigned cost exceeds the budget.

    Args:
        budget: per-shard assigned-cost budget; ``<= 0`` disables the
            detector (every :meth:`rebalance` is a no-op).
        max_moves_per_round: cap on migrations per rebalance call, so a
            badly skewed fleet drains over several rounds instead of
            serving one giant fallback burst.
    """

    def __init__(self, budget: float, max_moves_per_round: int = 8) -> None:
        if max_moves_per_round < 1:
            raise ValueError("max_moves_per_round must be >= 1")
        self.budget = float(budget)
        self.max_moves_per_round = int(max_moves_per_round)

    # ------------------------------------------------------------------ #

    def hot_shards(self, cluster: "ControllerCluster") -> List[str]:
        """Live shards currently over budget, hottest first."""
        if self.budget <= 0:
            return []
        loads = cluster.load_model.loads(cluster.live_shards)
        return [
            s
            for s, load in sorted(loads.items(), key=lambda kv: (-kv[1], kv[0]))
            if load > self.budget
        ]

    def _best_move(
        self, cluster: "ControllerCluster", source: str
    ) -> Optional[Tuple[str, str, float]]:
        """The best single migration off ``source``: move the largest
        meeting whose transfer strictly improves the packing, to the
        least-loaded other shard.  None when no move helps."""
        live = cluster.live_shards
        others = [s for s in live if s != source]
        if not others:
            return None
        loads = cluster.load_model.loads(live)
        target = min(others, key=lambda s: (loads[s], s))
        # Largest-first drains fastest; require strict improvement so the
        # round converges (the target must end up below where the source
        # started).
        for mid, cost in sorted(
            cluster.load_model.meetings_on(source),
            key=lambda mc: (-mc[1], mc[0]),
        ):
            if loads[target] + cost < loads[source]:
                return (mid, target, cost)
        return None

    def rebalance(
        self,
        cluster: "ControllerCluster",
        now_s: float,
        reason: str = "hot_shard",
    ) -> RebalanceResult:
        """Run one drain round: migrate up to ``max_moves_per_round``
        meetings off over-budget shards, hottest shard first."""
        result = RebalanceResult()
        if self.budget <= 0:
            return result
        with span(obs_names.SPAN_PLACEMENT_REBALANCE):
            while len(result.moves) < self.max_moves_per_round:
                moved = False
                for source in self.hot_shards(cluster):
                    best = self._best_move(cluster, source)
                    if best is None:
                        continue
                    mid, target, cost = best
                    served = cluster.migrate_meeting(
                        mid, target, now_s, reason=reason
                    )
                    result.moves.append((mid, source, target, cost))
                    if served is not None:
                        result.served.append(served)
                    moved = True
                    break
                if not moved:
                    break
            result.hot_after = self.hot_shards(cluster)
        return result

    def drainable(self, cluster: "ControllerCluster", shard: str) -> bool:
        """True when ``shard`` still has an improving move available —
        i.e. a further :meth:`rebalance` round would keep draining it."""
        return self._best_move(cluster, shard) is not None
