"""Deterministic fault injection + invariant checking (Sec. 7 hardening).

The chaos subsystem drives the discrete-event simulator clock and the
controller cluster through seeded fault schedules, and validates after
every delivered configuration that the orchestration stack kept its
safety invariants.  See ``docs/RESILIENCE.md``.
"""

from .faults import (
    FAULT_KINDS,
    SHARD_KINDS,
    Fault,
    FaultSchedule,
)
from .invariants import (
    ALL_INVARIANTS,
    INV_AVAILABILITY,
    INV_CONSTRAINTS,
    INV_CONVERGENCE,
    INV_DETERMINISM,
    InvariantChecker,
    Violation,
    kmr_iteration_bound,
)
from .report import REPORT_SCHEMA, RunReport, solution_digest, write_jsonl
from .runner import ChaosConfig, ChaosRunner, InjectedSolverFault
from .scenarios import Scenario, get_scenario, list_scenarios
from .soak import SoakResult, run_scenario, soak
from .world import ChaosWorld, ClientState, MeetingState

__all__ = [
    "ALL_INVARIANTS",
    "FAULT_KINDS",
    "INV_AVAILABILITY",
    "INV_CONSTRAINTS",
    "INV_CONVERGENCE",
    "INV_DETERMINISM",
    "REPORT_SCHEMA",
    "SHARD_KINDS",
    "ChaosConfig",
    "ChaosRunner",
    "ChaosWorld",
    "ClientState",
    "Fault",
    "FaultSchedule",
    "InjectedSolverFault",
    "InvariantChecker",
    "MeetingState",
    "RunReport",
    "Scenario",
    "SoakResult",
    "Violation",
    "get_scenario",
    "kmr_iteration_bound",
    "list_scenarios",
    "run_scenario",
    "soak",
    "solution_digest",
    "write_jsonl",
]
