"""Safety invariants checked after every chaos-driven solve.

Fault injection is only half a chaos subsystem; the other half is the
oracle that says what "survived" means.  Four invariant families are
checked (violating any one is a bug in the orchestration stack, never an
acceptable consequence of the injected fault):

* **constraints** — every configuration delivered to a meeting satisfies
  the three Sec. 4.1 constraint families (network bandwidth Eqs. 14-15,
  codec capability Eqs. 10-13, subscription Eq. 16), via the solution's
  own :meth:`~repro.core.solution.Solution.validate`;
* **kmr_convergence** — the KMR loop converged within the paper's bound
  (|publishers| x |resolutions|, plus the final solved iteration);
* **fallback_availability** — a meeting that ever held a configuration
  always holds *some* serviceable configuration, including across shard
  death and re-homing (Sec. 7: "the service could continue");
* **determinism** — identical seeds produce byte-identical run reports
  (checked at the soak level by comparing report digests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..core.constraints import Problem
from ..core.solution import Solution
from ..obs import names as obs_names
from ..obs.registry import get_registry

#: Invariant names (the ``invariant`` label of the chaos metrics).
INV_CONSTRAINTS = "constraints"
INV_CONVERGENCE = "kmr_convergence"
INV_AVAILABILITY = "fallback_availability"
INV_DETERMINISM = "determinism"

#: Every checked invariant.
ALL_INVARIANTS = (
    INV_CONSTRAINTS,
    INV_CONVERGENCE,
    INV_AVAILABILITY,
    INV_DETERMINISM,
)


def kmr_iteration_bound(problem: Problem) -> int:
    """The paper's convergence bound for one problem.

    Every KMR iteration either terminates or deletes one whole resolution
    from one publisher's feasible set, so iterations are bounded by the
    total resolution count across publishers, plus the final solved pass.
    """
    total = sum(
        len({s.resolution for s in problem.feasible_streams[pub]})
        for pub in problem.publishers
    )
    return max(1, total + 1)


@dataclass(frozen=True)
class Violation:
    """One failed invariant evaluation."""

    invariant: str
    at_s: float
    meeting_id: str
    detail: str

    def to_dict(self) -> dict:
        """JSON-friendly encoding (run-report verdicts)."""
        return {
            "invariant": self.invariant,
            "at_s": self.at_s,
            "meeting_id": self.meeting_id,
            "detail": self.detail,
        }


class InvariantChecker:
    """Accumulates invariant evaluations and violations for one run."""

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.checks: Dict[str, int] = {name: 0 for name in ALL_INVARIANTS}

    @property
    def ok(self) -> bool:
        """True while no invariant has failed."""
        return not self.violations

    # -- recording ------------------------------------------------------- #

    def _record(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1
        reg = get_registry()
        if reg.enabled:
            reg.counter(obs_names.CHAOS_CHECKS, invariant=invariant).inc()

    def _violate(
        self, invariant: str, at_s: float, meeting_id: str, detail: str
    ) -> None:
        self.violations.append(
            Violation(invariant, at_s, meeting_id, detail)
        )
        reg = get_registry()
        if reg.enabled:
            reg.counter(
                obs_names.CHAOS_VIOLATIONS, invariant=invariant
            ).inc()

    # -- the checks ------------------------------------------------------ #

    def check_solution(
        self,
        meeting_id: str,
        problem: Problem,
        solution: Solution,
        at_s: float,
    ) -> bool:
        """Constraint families + convergence bound for one delivered
        configuration; returns True when both hold."""
        before = len(self.violations)
        self._record(INV_CONSTRAINTS)
        try:
            solution.validate(problem)
        except AssertionError as exc:
            self._violate(INV_CONSTRAINTS, at_s, meeting_id, str(exc))
        self._record(INV_CONVERGENCE)
        bound = kmr_iteration_bound(problem)
        if solution.iterations > bound:
            self._violate(
                INV_CONVERGENCE,
                at_s,
                meeting_id,
                f"{solution.iterations} iterations exceed the "
                f"|publishers| x |resolutions| bound of {bound}",
            )
        return len(self.violations) == before

    def check_availability(
        self,
        served_meetings: Iterable[str],
        holds_configuration: Dict[str, bool],
        at_s: float,
    ) -> bool:
        """Every meeting the service ever configured still holds *some*
        configuration (full solution, cached, or Sec. 7 fallback).

        Args:
            served_meetings: meetings that received at least one
                configuration so far in the run.
            holds_configuration: per meeting, whether a configuration is
                currently held (runner-side applied state AND the
                cluster-side record both count — losing either during
                re-homing is the bug this invariant exists to catch).
            at_s: current simulated time.
        """
        before = len(self.violations)
        for meeting_id in served_meetings:
            self._record(INV_AVAILABILITY)
            if not holds_configuration.get(meeting_id, False):
                self._violate(
                    INV_AVAILABILITY,
                    at_s,
                    meeting_id,
                    "meeting holds no serviceable configuration",
                )
        return len(self.violations) == before

    def check_determinism(
        self, digest_a: str, digest_b: str, seed: int
    ) -> bool:
        """Two runs of the same seed must produce identical reports."""
        self._record(INV_DETERMINISM)
        if digest_a != digest_b:
            self._violate(
                INV_DETERMINISM,
                0.0,
                "",
                f"seed {seed}: report digests differ "
                f"({digest_a[:16]}... vs {digest_b[:16]}...)",
            )
            return False
        return True

    # -- export ---------------------------------------------------------- #

    def to_dict(self) -> dict:
        """JSON-friendly snapshot of checks and violations."""
        return {
            "checks": dict(sorted(self.checks.items())),
            "violations": [v.to_dict() for v in self.violations],
        }
