"""The soak runner: sweep scenarios x seeds, enforce every invariant.

Each (scenario, seed) cell runs **twice**: once for the verdict and once
to check the determinism invariant — the two runs must produce
byte-identical report digests.  Verdicts stream to a JSONL file (one
canonical report per line) and obs counters, and :func:`soak` returns a
:class:`SoakResult` whose ``ok`` is the CI gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .invariants import InvariantChecker
from .report import RunReport, write_jsonl
from .runner import ChaosConfig, ChaosRunner
from .scenarios import Scenario, get_scenario, list_scenarios


@dataclass
class SoakResult:
    """The outcome of one soak sweep."""

    reports: List[RunReport] = field(default_factory=list)
    #: Determinism failures: ``{"scenario", "seed", "detail"}`` dicts.
    determinism_failures: List[dict] = field(default_factory=list)

    @property
    def runs(self) -> int:
        """Verdict runs executed (each also ran a determinism re-run)."""
        return len(self.reports)

    @property
    def violations(self) -> int:
        """Total invariant violations across every report."""
        return sum(len(r.violations) for r in self.reports) + len(
            self.determinism_failures
        )

    @property
    def ok(self) -> bool:
        """True when every run passed every invariant, twice."""
        return self.violations == 0

    def summary(self) -> str:
        """Human-readable sweep summary."""
        by_scenario: Dict[str, List[RunReport]] = {}
        for report in self.reports:
            by_scenario.setdefault(report.scenario, []).append(report)
        lines = [
            f"chaos soak: {self.runs} runs x 2 (determinism re-runs) -> "
            f"{'OK' if self.ok else f'{self.violations} VIOLATIONS'}"
        ]
        for name in sorted(by_scenario):
            group = by_scenario[name]
            bad = sum(1 for r in group if not r.ok)
            serves = sum(len(r.serves) for r in group)
            faults = sum(len(r.faults) for r in group)
            lines.append(
                f"  {name}: {len(group)} seeds, {faults} faults, "
                f"{serves} serves, "
                f"{'all OK' if not bad else f'{bad} FAILED'}"
            )
        for failure in self.determinism_failures:
            lines.append(
                f"  DETERMINISM FAILURE {failure['scenario']} "
                f"seed={failure['seed']}: {failure['detail']}"
            )
        return "\n".join(lines)


def run_scenario(
    scenario: Union[str, Scenario],
    seed: int,
    config: Optional[ChaosConfig] = None,
) -> RunReport:
    """Run one scenario once at one seed; returns its report."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    cfg = config or ChaosConfig()
    if cfg.seed != seed:
        cfg = ChaosConfig(**{**cfg.to_dict(), "seed": seed})
    schedule = scenario.build(seed, cfg)
    return ChaosRunner(cfg, schedule, scenario=scenario.name).run()


def soak(
    seeds: int = 20,
    scenarios: Optional[Sequence[str]] = None,
    config: Optional[ChaosConfig] = None,
    out: Optional[Union[str, Path]] = None,
    base_seed: int = 0,
) -> SoakResult:
    """Sweep every requested scenario across ``seeds`` seeds.

    Args:
        seeds: seeds per scenario (``base_seed .. base_seed + seeds - 1``).
        scenarios: scenario names (default: every registered scenario).
        config: sizing template; its seed field is overridden per run.
        out: optional JSONL path for the verdict stream.
        base_seed: first seed of the sweep.

    Returns:
        The accumulated :class:`SoakResult`.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    chosen = (
        [get_scenario(name) for name in scenarios]
        if scenarios is not None
        else list_scenarios()
    )
    result = SoakResult()
    for scenario in chosen:
        for seed in range(base_seed, base_seed + seeds):
            report = run_scenario(scenario, seed, config)
            result.reports.append(report)
            # Determinism is invariant #4: replay the identical run and
            # require a byte-identical report.
            replay = run_scenario(scenario, seed, config)
            checker = InvariantChecker()
            if not checker.check_determinism(
                report.digest(), replay.digest(), seed
            ):
                result.determinism_failures.append(
                    {
                        "scenario": scenario.name,
                        "seed": seed,
                        "detail": checker.violations[-1].detail,
                    }
                )
    if out is not None:
        write_jsonl(result.reports, out)
    return result
