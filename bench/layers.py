"""Per-layer metrics of one traced round, and the load-model audit.

Layers are the repo's modules on the control path: ``rtp``, ``ingress``,
``net`` (the simulator heap under ``ingress.aio``), ``placement``,
``cluster``, ``core``, ``obs``; ``world`` is the bench-owned client
state (its cost is mostly ``Problem`` construction).  A value is
``None`` when the probe it needs found no target.
"""

from __future__ import annotations

import csv
from typing import Dict, List, Optional

import harness
import spans

SHARE_LAYERS = ("rtp", "ingress", "world", "placement", "cluster", "core", "obs")
COST_FIT_FIELDS = (
    "workload", "meeting", "clients", "publishers", "meeting_cost", "solve_ms", "kmr_iterations"
)


def _ratio(num, den) -> Optional[float]:
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def cost_rows(workload: str, r: harness.Round, tracer: spans.Tracer) -> List[dict]:
    slowdown = r.backend.host.slowdown
    """One row per cache-miss decision: the hand-set cost model's input
    next to the measured solve."""
    meeting_cost = harness.optional_attr("repro.placement.loadmodel", "meeting_cost")
    timed = "core.solve" if "core.solve" not in tracer.missing else "cluster.solve_request"
    solve_s = {s[4]: s[2] - s[1] for s in tracer.spans if s[0] == timed and s[4] >= 0}
    rows = []
    for i, d in enumerate(r.plane.decisions):
        if d.source != "solve" or i not in solve_s:
            continue
        problem = d.payload
        rows.append(
            {
                "workload": workload,
                "meeting": d.meeting,
                "clients": len(problem.clients),
                "publishers": len(problem.publishers),
                "meeting_cost": meeting_cost(problem) if meeting_cost else "",
                "solve_ms": round(solve_s[i] * 1e3 / slowdown, 4),
                "kmr_iterations": d.solution.iterations,
            }
        )
    return rows


def write_cost_rows(path, rows: List[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COST_FIT_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def cost_fit(rows: List[dict]) -> Dict[str, Optional[float]]:
    """Least squares through the origin of measured solve seconds on
    ``meeting_cost``: the slope is what ``SEC_PER_COST`` /
    ``service_s_per_cost`` (hand-set to 1e-6) would have to be, and R^2
    says whether one slope describes the workload at all."""
    pairs = [
        (float(row["meeting_cost"]), row["solve_ms"] / 1e3)
        for row in rows
        if row["meeting_cost"] != ""
    ]
    if len(pairs) < 2:
        return {"placement.sec_per_cost_fit": None, "placement.cost_fit_r2": None}
    sxx = sum(x * x for x, _ in pairs)
    slope = sum(x * y for x, y in pairs) / sxx
    mean = sum(y for _, y in pairs) / len(pairs)
    ss_tot = sum((y - mean) ** 2 for _, y in pairs)
    ss_res = sum((y - slope * x) ** 2 for x, y in pairs)
    return {
        "placement.sec_per_cost_fit": slope,
        "placement.cost_fit_r2": 1.0 - ss_res / ss_tot if ss_tot else None,
    }


def layer_metrics(
    r: harness.Round, o: harness.Outcome, tracer: spans.Tracer, rows: List[dict]
) -> Dict[str, Optional[float]]:
    s = tracer.summary()
    missing = set(tracer.missing)

    # Seconds at nominal host speed, like the end-to-end metrics.
    def total(name):
        return None if name in missing else sum(s.durations.get(name, ())) / o.slowdown

    def self_s(name):
        return None if name in missing else s.self_s.get(name, 0.0) / o.slowdown

    def calls(name):
        return None if name in missing else len(s.durations.get(name, ()))

    counts = o.counts
    solves = sorted(d * 1e3 / o.slowdown for d in s.durations.get("core.solve", ()))
    scheduled = tracer.counts.get("net.sim_scheduled")
    lookups = counts["cache_hits"] + counts["cache_misses"]
    mckp_lookups = (
        r.process["mckp_hits"] + r.process["mckp_misses"] if "mckp_hits" in r.process else None
    )
    shards = r.cluster.stats().get("shards", {})
    solved = [d for d in r.plane.decisions if d.source == "solve"]
    metrics: Dict[str, Optional[float]] = {
        "rtp.semb_decode_s": total("rtp.semb_decode"),
        "rtp.semb_decoded": counts["semb_decoded"],
        "rtp.tmmbr_encode_s": total("rtp.tmmbr_encode"),
        "rtp.tmmbr_packets": counts["tmmbr_packets"],
        "rtp.tmmbr_bytes": counts["tmmbr_bytes"],
        "ingress.self_s": self_s(spans.ROOT),
        "ingress.offer_s": self_s("ingress.offer"),
        "ingress.solution_digest_s": total("ingress.solution_digest"),
        "ingress.offered": counts["offered"],
        "ingress.decisions": counts["decisions"],
        "ingress.coalesced": counts["coalesced"],
        "ingress.events_per_decision": _ratio(counts["offered"], counts["decisions"]),
        "ingress.evicted": counts["evicted"],
        "ingress.shed": counts["shed"],
        "ingress.idle_refreshes": counts["idle_refreshes"],
        "ingress.max_mailbox_depth": counts["max_mailbox_depth"],
        "ingress.virtual_latency_p95": o.virtual_latency_p95_s,
        "net.sim_scheduled": scheduled,
        "net.sim_scheduled_per_event": _ratio(scheduled, counts["offered"]),
        "world.apply_event_s": total("world.apply_event"),
        "world.payload_s": total("world.payload"),
        "world.mutations": counts["mutations"],
        "placement.service_cost_s": total("placement.service_cost"),
        "cluster.solve_request_s": total("cluster.solve_request"),
        "cluster.self_s": self_s("cluster.solve_request"),
        "cluster.pace_s": total("cluster.pace"),
        "cluster.cache_get_s": total("cluster.cache_get"),
        "cluster.cache_put_s": total("cluster.cache_put"),
        "cluster.cache_hits": counts["cache_hits"],
        "cluster.cache_misses": counts["cache_misses"],
        "cluster.cache_hit_ratio": _ratio(counts["cache_hits"], lookups),
        "cluster.fallbacks": sum(shard.get("fallbacks", 0) for shard in shards.values()),
        "core.fingerprint_s": total("core.fingerprint"),
        "core.fingerprint_calls": calls("core.fingerprint"),
        "core.solve_s": total("core.solve"),
        "core.solves": calls("core.solve"),
        "core.solve_ms_p50": harness.percentile(solves, 0.5) if solves else None,
        "core.solve_ms_p95": harness.percentile(solves, 0.95) if solves else None,
        "core.knapsack_s": total("core.knapsack"),
        "core.merge_s": total("core.merge"),
        "core.reduction_s": total("core.reduction"),
        "core.self_s": self_s("core.solve"),
        "core.kmr_iterations": sum(d.solution.iterations for d in solved),
        "core.mckp_dp_solves": r.process.get("dp_solves"),
        "core.mckp_batched_solves": r.process.get("batched_solves"),
        "core.mckp_cache_hit_ratio": _ratio(r.process.get("mckp_hits"), mckp_lookups),
        "obs.events_emitted": counts["obs_events"],
        "obs.assemble_s": total(spans.ASSEMBLE) or 0.0,
        "bench.host_slowdown": o.slowdown,
        "bench.raw_wall_s": o.raw_wall_s,
        "bench.cpu_s": o.cpu_s,
        "bench.check_s": o.check_s,
    }
    for layer in SHARE_LAYERS:
        metrics[f"share.{layer}"] = s.share(layer)
    metrics.update(cost_fit(rows))
    return metrics
