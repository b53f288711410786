"""The fault vocabulary: what chaos can do to the orchestration stack.

Sec. 7 of the paper ("design for failure") names the conditions a
production controller must survive — crashed controller instances, lost
or delayed feedback messages, bandwidth collapses, churning publishers.
This module turns each of them into a first-class, *deterministic* value:
a :class:`Fault` says what breaks, when, and how badly; a
:class:`FaultSchedule` composes faults into a reproducible timeline that
the :class:`~repro.chaos.runner.ChaosRunner` replays against the live
cluster.  Identical schedules (same seed) must produce byte-identical
run reports — determinism is itself one of the checked invariants.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

# --------------------------------------------------------------------- #
# Fault kinds
# --------------------------------------------------------------------- #

#: Take a controller shard down mid-round (PR 2's ``kill_shard`` path).
KILL_SHARD = "kill_shard"
#: Bring a previously-killed shard back (ring re-grows, meetings re-home).
RESTART_SHARD = "restart_shard"
#: Grow the ring by a brand-new shard.
ADD_SHARD = "add_shard"
#: Lose a meeting's SEMB (RTCP APP-204) reports on the wire for ``factor``
#: report intervals (at least one): the pending solve demand evaporates.
DROP_REPORT = "drop_report"
#: Delay the meeting's SEMB reports of the next report interval by
#: ``factor`` intervals (at least one; control-channel congestion):
#: pending demand is deferred, the reports arrive late.
DELAY_REPORT = "delay_report"
#: Lose the TMMBR configuration push to a meeting's clients: the solved
#: configuration is computed but never applied; the next delivery heals.
LOSE_TMMBR = "lose_tmmbr"
#: Collapse one client's downlink budget to ``factor`` x nominal.
DOWNLINK_COLLAPSE = "downlink_collapse"
#: Collapse one client's uplink budget to ``factor`` x nominal.
UPLINK_COLLAPSE = "uplink_collapse"
#: Restore a client's bandwidth to nominal (heals either collapse).
BANDWIDTH_RECOVER = "bandwidth_recover"
#: A publisher leaves the meeting (membership churn).
PUBLISHER_LEAVE = "publisher_leave"
#: A new publisher joins the meeting (membership churn).
PUBLISHER_JOIN = "publisher_join"
#: Deliver a stale global-picture snapshot: the meeting reports the
#: problem as it looked ``factor`` snapshot versions ago.
STALE_SNAPSHOT = "stale_snapshot"
#: Poison the solve service for one meeting: every solve attempt raises
#: until :data:`CLEAR_SOLVER_FAULT` — the canonical *unfixable* fault.
SOLVER_FAULT = "solver_fault"
#: Heal a :data:`SOLVER_FAULT`.
CLEAR_SOLVER_FAULT = "clear_solver_fault"

#: Every known fault kind.
FAULT_KINDS: Tuple[str, ...] = (
    KILL_SHARD,
    RESTART_SHARD,
    ADD_SHARD,
    DROP_REPORT,
    DELAY_REPORT,
    LOSE_TMMBR,
    DOWNLINK_COLLAPSE,
    UPLINK_COLLAPSE,
    BANDWIDTH_RECOVER,
    PUBLISHER_LEAVE,
    PUBLISHER_JOIN,
    STALE_SNAPSHOT,
    SOLVER_FAULT,
    CLEAR_SOLVER_FAULT,
)

#: Kinds whose ``target`` names a shard; all others target a meeting.
SHARD_KINDS: Tuple[str, ...] = (
    KILL_SHARD,
    RESTART_SHARD,
    ADD_SHARD,
)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    Attributes:
        at_s: simulated time the fault fires.
        kind: one of :data:`FAULT_KINDS`.
        target: the shard name (for :data:`SHARD_KINDS`) or meeting id
            this fault hits; ``""`` lets the runner pick deterministically
            (first live shard / first meeting).
        client: for bandwidth and churn faults, the client inside the
            meeting; ``""`` picks deterministically (lexicographically
            first for collapses, last joiner for leaves).
        factor: kind-dependent magnitude — bandwidth scale for collapses,
            report intervals of hold for :data:`DELAY_REPORT` and of
            loss for :data:`DROP_REPORT`, version age for
            :data:`STALE_SNAPSHOT`.
    """

    at_s: float
    kind: str
    target: str = ""
    client: str = ""
    factor: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.at_s) and self.at_s >= 0):
            raise ValueError("fault time must be finite and non-negative")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not (math.isfinite(self.factor) and self.factor >= 0):
            raise ValueError("fault factor must be finite and non-negative")

    def shifted(self, dt_s: float) -> "Fault":
        """The same fault, ``dt_s`` seconds later."""
        return replace(self, at_s=self.at_s + dt_s)

    def to_dict(self) -> dict:
        """JSON-friendly encoding (run-report events)."""
        return {
            "at_s": self.at_s,
            "kind": self.kind,
            "target": self.target,
            "client": self.client,
            "factor": self.factor,
        }

    @property
    def sort_key(self) -> Tuple[float, str, str, str, float]:
        """Total deterministic order of faults."""
        return (self.at_s, self.kind, self.target, self.client, self.factor)


class FaultSchedule:
    """A composable, deterministic timeline of faults.

    Schedules are value-like: :meth:`add` returns ``self`` for chaining,
    while :meth:`merge` and :meth:`shifted` return new schedules, so
    scenario builders can compose primitive outage patterns::

        schedule = (
            FaultSchedule()
            .add(Fault(4.0, KILL_SHARD))
            .merge(feedback_outage.shifted(6.0))
        )
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._faults: List[Fault] = sorted(faults, key=lambda f: f.sort_key)

    # -- composition ----------------------------------------------------- #

    def add(self, fault: Fault) -> "FaultSchedule":
        """Insert one fault (keeps the timeline sorted); returns self."""
        self._faults.append(fault)
        self._faults.sort(key=lambda f: f.sort_key)
        return self

    def merge(self, other: "FaultSchedule") -> "FaultSchedule":
        """A new schedule containing both timelines."""
        return FaultSchedule([*self._faults, *other._faults])

    def shifted(self, dt_s: float) -> "FaultSchedule":
        """A new schedule with every fault ``dt_s`` seconds later."""
        return FaultSchedule(f.shifted(dt_s) for f in self._faults)

    def until(self, t_end_s: float) -> "FaultSchedule":
        """A new schedule truncated to faults at or before ``t_end_s``."""
        return FaultSchedule(f for f in self._faults if f.at_s <= t_end_s)

    # -- access ---------------------------------------------------------- #

    @property
    def faults(self) -> List[Fault]:
        """The timeline, sorted by (time, kind, target, client, factor)."""
        return list(self._faults)

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self._faults)

    def to_dicts(self) -> List[dict]:
        """JSON-friendly encoding of the whole timeline."""
        return [f.to_dict() for f in self._faults]

    # -- generation ------------------------------------------------------ #

    @classmethod
    def seeded(
        cls,
        seed: int,
        duration_s: float,
        meeting_ids: Sequence[str],
        shard_names: Sequence[str],
        faults: int = 8,
        kinds: Optional[Sequence[str]] = None,
    ) -> "FaultSchedule":
        """Draw a random-but-reproducible schedule.

        Uses a string-seeded private RNG (stable across processes) so the
        same ``seed`` always yields the same timeline — the determinism
        invariant depends on it.

        Args:
            seed: schedule seed.
            duration_s: faults land uniformly in ``[0.1, duration_s)``.
            meeting_ids: meeting targets to draw from.
            shard_names: shard targets to draw from.
            faults: how many faults to draw.
            kinds: restrict the kind pool (default: every kind except the
                shard-destroying ones when only one shard exists).
        """
        rng = random.Random(f"chaos-schedule:{seed}")
        pool = list(kinds if kinds is not None else FAULT_KINDS)
        if len(shard_names) <= 1:
            pool = [k for k in pool if k not in (KILL_SHARD, RESTART_SHARD)]
        drawn: List[Fault] = []
        for _ in range(faults):
            kind = rng.choice(pool)
            at_s = round(rng.uniform(0.1, max(0.2, duration_s - 0.1)), 3)
            if kind in SHARD_KINDS:
                target = rng.choice(list(shard_names)) if shard_names else ""
                drawn.append(Fault(at_s, kind, target=target))
                continue
            target = rng.choice(list(meeting_ids)) if meeting_ids else ""
            factor = 0.0
            if kind in (DOWNLINK_COLLAPSE, UPLINK_COLLAPSE):
                factor = round(rng.uniform(0.05, 0.4), 3)
            elif kind == DELAY_REPORT:
                factor = round(rng.uniform(0.5, 2.5), 3)
            elif kind == DROP_REPORT:
                factor = float(rng.randint(1, 3))
            elif kind == STALE_SNAPSHOT:
                factor = float(rng.randint(1, 4))
            drawn.append(Fault(at_s, kind, target=target, factor=factor))
        return cls(drawn)
