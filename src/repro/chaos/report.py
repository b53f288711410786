"""Canonical run reports: the byte-identical evidence of a chaos run.

Determinism is an invariant, so the report format must itself be
deterministic: canonical JSON (sorted keys, fixed separators), simulated
time only (never wall clock), and content-addressed solution digests.
Two runs of the same scenario and seed must produce the same
:meth:`RunReport.digest` — the soak runner enforces it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Union

from ..core.solution import solution_digest  # noqa: F401 - part of this module's API
from ..obs.slo import verdict_word

#: Report schema tag; bump on any encoding change.
#: v2: serves carry correlation ids, and the report embeds deterministic
#: SLO verdicts plus the event-log digest.
#: v3: the report embeds the assembled trace-plane digest, and the SLO
#: block includes per-stage latency-budget verdicts.
#: v4: no trace-plane digest (a run assembles no trees).
REPORT_SCHEMA = "repro.chaos_report/v4"


@dataclass
class RunReport:
    """Everything one chaos run observed, in canonical form.

    Attributes:
        scenario: scenario name driving the run.
        seed: world + schedule seed.
        duration_s: simulated run length.
        config: the runner's sizing knobs (for reproduction).
        faults: fault-application events, in order — each carries the
            fault dict plus an ``applied``/``skipped`` outcome.
        serves: every configuration delivery, in order: time, meeting,
            source, trigger, solution digest, delivered.
        checks: invariant evaluation counts.
        violations: failed invariant evaluations (empty on a healthy run).
        meetings: per-meeting closing summary.
        slo: deterministic SLO verdicts (simulated-time measures only —
            part of the digested canonical encoding).
        slo_informational: wall-clock SLO verdicts (solve latency).
            Reported by :meth:`summary` but **never digested**: wall time
            varies between identical seeded runs.
        events_total: structured events emitted during the run.
        event_digest: SHA-256 of the run's canonical event-log JSONL
            (two same-seed runs must match byte-for-byte).
    """

    scenario: str
    seed: int
    duration_s: float
    config: Dict[str, Union[int, float, str]] = field(default_factory=dict)
    faults: List[dict] = field(default_factory=list)
    serves: List[dict] = field(default_factory=list)
    checks: Dict[str, int] = field(default_factory=dict)
    violations: List[dict] = field(default_factory=list)
    meetings: Dict[str, dict] = field(default_factory=dict)
    slo: List[dict] = field(default_factory=list)
    slo_informational: List[dict] = field(default_factory=list)
    events_total: int = 0
    event_digest: str = ""

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    @property
    def slo_ok(self) -> bool:
        """True when every deterministic SLO verdict passed."""
        return all(v.get("ok", True) for v in self.slo)

    @property
    def served_by_source(self) -> Dict[str, int]:
        """Delivery counts per source (solve / cache / fallback / shed)."""
        out: Dict[str, int] = {}
        for serve in self.serves:
            out[serve["source"]] = out.get(serve["source"], 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> dict:
        """The full canonical encoding."""
        return {
            "schema": REPORT_SCHEMA,
            "scenario": self.scenario,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "config": dict(sorted(self.config.items())),
            "faults": self.faults,
            "serves": self.serves,
            "served_by_source": self.served_by_source,
            "checks": dict(sorted(self.checks.items())),
            "violations": self.violations,
            "meetings": {k: self.meetings[k] for k in sorted(self.meetings)},
            "slo": self.slo,
            "slo_ok": self.slo_ok,
            "events_total": self.events_total,
            "event_digest": self.event_digest,
            "ok": self.ok,
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, fixed separators, no whitespace
        variance — the byte string the digest is computed over."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """SHA-256 over the canonical JSON encoding."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def summary(self) -> str:
        """Human-readable one-screen summary."""
        lines = [
            f"chaos run: scenario={self.scenario} seed={self.seed} "
            f"duration={self.duration_s:g}s -> "
            f"{'OK' if self.ok else 'VIOLATIONS'}",
            f"  faults injected: {len(self.faults)}",
            f"  configurations served: {len(self.serves)} "
            f"{self.served_by_source}",
            f"  invariant checks: {dict(sorted(self.checks.items()))}",
        ]
        if self.events_total:
            lines.append(
                f"  events: {self.events_total} "
                f"(digest {self.event_digest[:16]})"
            )
        for verdict in self.slo + self.slo_informational:
            value = verdict.get("value")
            shown = "n/a" if value is None else f"{value:.3f}"
            word = verdict_word(verdict)
            det = "" if verdict.get("deterministic", True) else " (wall-clock)"
            lines.append(
                f"  SLO {word} {verdict['name']}: {shown} "
                f"{verdict.get('comparator', '<=')} "
                f"{verdict.get('threshold')}{det}"
            )
        for violation in self.violations:
            lines.append(
                f"  VIOLATION [{violation['invariant']}] "
                f"t={violation['at_s']:g} {violation['meeting_id']}: "
                f"{violation['detail']}"
            )
        lines.append(f"  report digest: {self.digest()}")
        return "\n".join(lines)


def write_jsonl(
    reports: Iterable[RunReport], path: Union[str, Path]
) -> Path:
    """Write one canonical JSON report per line; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for report in reports:
            handle.write(report.to_json())
            handle.write("\n")
    return target
