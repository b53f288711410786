"""Named chaos scenarios: curated fault timelines for the soak runner.

Each scenario is a pure function from ``(seed, config)`` to a
:class:`~repro.chaos.faults.FaultSchedule` — no hidden state, so the same
seed always builds the same timeline.  Timings are fractions of the run
duration, which keeps every scenario meaningful for any reasonable
``ChaosConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping

from . import faults as F
from .faults import Fault, FaultSchedule
from .runner import ChaosConfig

BuildFn = Callable[[int, ChaosConfig], FaultSchedule]


@dataclass(frozen=True)
class Scenario:
    """One named fault pattern."""

    name: str
    description: str
    build: BuildFn
    #: ChaosConfig fields this scenario requires (e.g. a placement
    #: policy or a shard budget); applied on top of the caller's config
    #: by :func:`~repro.chaos.soak.run_scenario`.
    config_overrides: Mapping[str, object] = field(default_factory=dict)


def _mid(config: ChaosConfig, k: int = 0) -> str:
    """The k-th meeting id (world ids are ``chaos-0`` .. sorted)."""
    return f"chaos-{k % config.meetings}"


def _healthy(seed: int, config: ChaosConfig) -> FaultSchedule:
    return FaultSchedule()


def _shard_churn(seed: int, config: ChaosConfig) -> FaultSchedule:
    """Kill a shard mid-run, restart it, then grow the ring."""
    third = config.duration_s / 3.0
    return (
        FaultSchedule()
        .add(Fault(round(third, 3), F.KILL_SHARD))
        .add(Fault(round(2 * third, 3), F.RESTART_SHARD))
        .add(Fault(round(2.5 * third, 3), F.ADD_SHARD))
    )


def _feedback_loss(seed: int, config: ChaosConfig) -> FaultSchedule:
    """Lose and delay control-channel feedback in both directions."""
    t = config.duration_s
    return (
        FaultSchedule()
        .add(Fault(round(0.2 * t, 3), F.DROP_REPORT, target=_mid(config, 0), factor=2))
        .add(Fault(round(0.35 * t, 3), F.DELAY_REPORT, target=_mid(config, 1), factor=1.2))
        .add(Fault(round(0.5 * t, 3), F.LOSE_TMMBR, target=_mid(config, 0)))
        .add(Fault(round(0.65 * t, 3), F.LOSE_TMMBR, target=_mid(config, 2)))
    )


def _bandwidth_collapse(seed: int, config: ChaosConfig) -> FaultSchedule:
    """Collapse a downlink and an uplink, then let them recover."""
    t = config.duration_s
    return (
        FaultSchedule()
        .add(Fault(round(0.25 * t, 3), F.DOWNLINK_COLLAPSE, target=_mid(config, 0), factor=0.15))
        .add(Fault(round(0.4 * t, 3), F.UPLINK_COLLAPSE, target=_mid(config, 1), factor=0.2))
        .add(Fault(round(0.7 * t, 3), F.BANDWIDTH_RECOVER, target=_mid(config, 0)))
        .add(Fault(round(0.8 * t, 3), F.BANDWIDTH_RECOVER, target=_mid(config, 1)))
    )


def _publisher_churn(seed: int, config: ChaosConfig) -> FaultSchedule:
    """Participants leave and join mid-conference."""
    t = config.duration_s
    return (
        FaultSchedule()
        .add(Fault(round(0.3 * t, 3), F.PUBLISHER_LEAVE, target=_mid(config, 0)))
        .add(Fault(round(0.45 * t, 3), F.PUBLISHER_JOIN, target=_mid(config, 1)))
        .add(Fault(round(0.6 * t, 3), F.PUBLISHER_JOIN, target=_mid(config, 0)))
        .add(Fault(round(0.75 * t, 3), F.PUBLISHER_LEAVE, target=_mid(config, 1)))
    )


def _stale_snapshot(seed: int, config: ChaosConfig) -> FaultSchedule:
    """Deliver out-of-date global pictures after real changes landed."""
    t = config.duration_s
    return (
        FaultSchedule()
        .add(Fault(round(0.25 * t, 3), F.DOWNLINK_COLLAPSE, target=_mid(config, 0), factor=0.2))
        .add(Fault(round(0.45 * t, 3), F.STALE_SNAPSHOT, target=_mid(config, 0), factor=1))
        .add(Fault(round(0.65 * t, 3), F.STALE_SNAPSHOT, target=_mid(config, 0), factor=3))
    )


def _unfixable(seed: int, config: ChaosConfig) -> FaultSchedule:
    """Poison one meeting's solver permanently — never cleared.

    The acceptance scenario: the meeting must degrade to the Sec. 7
    single-stream fallback within one report interval plus one decision
    window and stay served by it for the rest of the run, with zero
    invariant violations.
    """
    return FaultSchedule().add(
        Fault(
            round(0.4 * config.duration_s, 3),
            F.SOLVER_FAULT,
            target=_mid(config, 0),
        )
    )


def _hot_shard(seed: int, config: ChaosConfig) -> FaultSchedule:
    """Skewed meeting growth overloads one shard, twice.

    Runs with best_fit placement and a per-shard cost budget (see the
    scenario's ``config_overrides``): every meeting on the busiest shard
    gains participants mid-run, pushing the shard over budget; the
    hot-shard detector must drain it back inside the budget through the
    fallback-then-reconverge migration path, with zero invariant
    violations (the ``shard_budget`` invariant checks the end state).
    """
    t = config.duration_s
    return (
        FaultSchedule()
        .add(Fault(round(0.3 * t, 3), F.OVERLOAD_SHARD, factor=2))
        .add(Fault(round(0.55 * t, 3), F.OVERLOAD_SHARD, factor=3))
    )


def _kitchen_sink(seed: int, config: ChaosConfig) -> FaultSchedule:
    """A seeded random mix of every fault kind."""
    shard_names = [f"shard-{k}" for k in range(config.shards)]
    meeting_ids = [_mid(config, k) for k in range(config.meetings)]
    return FaultSchedule.seeded(
        seed=seed,
        duration_s=config.duration_s,
        meeting_ids=meeting_ids,
        shard_names=shard_names,
        faults=8,
    )


_SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("healthy", "no faults: the control baseline", _healthy),
        Scenario(
            "shard_churn",
            "kill a controller shard mid-run, restart it, grow the ring",
            _shard_churn,
        ),
        Scenario(
            "feedback_loss",
            "drop/delay SEMB reports and lose TMMBR pushes",
            _feedback_loss,
        ),
        Scenario(
            "bandwidth_collapse",
            "collapse downlink/uplink budgets, then recover",
            _bandwidth_collapse,
        ),
        Scenario(
            "publisher_churn",
            "publishers leave and join mid-conference",
            _publisher_churn,
        ),
        Scenario(
            "stale_snapshot",
            "deliver out-of-date global pictures after real changes",
            _stale_snapshot,
        ),
        Scenario(
            "unfixable",
            "permanently poison one meeting's solver (never heals)",
            _unfixable,
        ),
        Scenario(
            "hot_shard",
            "skewed meeting growth overloads one shard; the detector "
            "drains it back inside the budget",
            _hot_shard,
            config_overrides={
                "placement": "best_fit",
                "shard_cost_budget": 60.0,
                "shards": 3,
                "meetings": 6,
            },
        ),
        Scenario(
            "kitchen_sink",
            "a seeded random mix of every fault kind",
            _kitchen_sink,
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look up one scenario by name.

    Raises:
        KeyError: for an unknown scenario name (message lists the
            known ones).
    """
    try:
        return _SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def list_scenarios() -> List[Scenario]:
    """Every registered scenario, sorted by name."""
    return [_SCENARIOS[name] for name in sorted(_SCENARIOS)]
