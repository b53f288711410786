"""Bitrate-ladder construction and QoE utility curves.

GSO-Simulcast supports "up to 15 bitrate levels" (Sec. 1, Sec. 6), spread
across the resolutions a device's codec can produce.  This module builds such
ladders and assigns QoE utility weights with the property Sec. 4.4 calls out:

    "we want to make sure that small streams have a higher QoE utility vs.
    bitrate ratio than large streams, so that small streams are protected."

Two ladders matter for reproduction:

* :func:`paper_ladder` — the exact 9-level ladder of Table 1 (used by the
  worked examples and their tests);
* :func:`make_ladder` — a parametric generator used by the evaluation
  benchmarks (Fig. 6 sweeps the number of bitrate levels 2..8 and uses 9/18
  levels in the large-scale experiment).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .types import PAPER_RESOLUTIONS, Resolution, StreamSpec, validate_feasible_set

#: Table 1's ladder: resolution -> [(bitrate_kbps, qoe), ...] high to low.
PAPER_LADDER_TABLE: Dict[Resolution, Tuple[Tuple[int, float], ...]] = {
    Resolution.P720: ((1500, 1200.0), (1300, 1050.0), (1000, 750.0)),
    Resolution.P360: ((800, 700.0), (600, 530.0), (500, 440.0), (400, 360.0)),
    Resolution.P180: ((300, 300.0), (100, 100.0)),
}

#: Sensible bitrate operating ranges per resolution (kbps), used when
#: generating parametric ladders.  Chosen to bracket the paper's Table 1
#: values and common WebRTC simulcast defaults.
DEFAULT_BITRATE_RANGES: Dict[Resolution, Tuple[int, int]] = {
    Resolution.P1080: (1800, 4000),
    Resolution.P720: (900, 1500),
    Resolution.P540: (600, 1200),
    Resolution.P360: (400, 800),
    Resolution.P270: (250, 500),
    Resolution.P180: (100, 300),
    Resolution.P90: (50, 150),
}


def paper_ladder() -> List[StreamSpec]:
    """The exact 9-level ladder from Table 1 of the paper."""
    streams = [
        StreamSpec(bitrate_kbps=rate, resolution=res, qoe=qoe)
        for res, pairs in PAPER_LADDER_TABLE.items()
        for rate, qoe in pairs
    ]
    return validate_feasible_set(streams)


def qoe_utility(bitrate_kbps: int, exponent: float = 0.85, scale: float = 1.0) -> float:
    """Concave QoE utility of a stream bitrate.

    A power law ``scale * bitrate**exponent`` with ``exponent < 1`` gives a
    *strictly decreasing* QoE/bitrate ratio, which is exactly the
    small-stream-protection property of Sec. 4.4.  The default exponent is
    fitted so the paper's Table 1 (300kbps -> 300, 1500kbps -> 1200) is
    approximated: 1200/300 = 4 = (1500/300)**x  =>  x = log(4)/log(5) ~ 0.861.

    Args:
        bitrate_kbps: stream bitrate.
        exponent: concavity; must lie in (0, 1] to protect small streams.
        scale: multiplicative factor applied to the utility.

    Returns:
        The QoE utility weight (dimensionless).
    """
    if not 0 < exponent <= 1:
        raise ValueError(f"exponent must be in (0, 1], got {exponent}")
    return scale * bitrate_kbps**exponent


def make_ladder(
    resolutions: Sequence[Resolution] = PAPER_RESOLUTIONS,
    levels_per_resolution: int = 5,
    qoe_exponent: float = 0.85,
    qoe_scale: float = 1.0,
    bitrate_ranges: Optional[Dict[Resolution, Tuple[int, int]]] = None,
) -> List[StreamSpec]:
    """Build a fine-grained simulcast ladder.

    Bitrate levels are spaced evenly inside each resolution's operating
    range.  With the defaults (3 resolutions x 5 levels) this yields the
    15-level configuration the production deployment supports (Sec. 6).
    Bitrates are de-duplicated across resolutions by nudging collisions down
    1 kbps, preserving the "each bitrate is associated with a unique
    resolution" modelling assumption of Sec. 4.1.

    Args:
        resolutions: resolutions of the simulcast encodings, any order.
        levels_per_resolution: number of bitrate rungs per resolution (>= 1).
        qoe_exponent: concavity of the QoE curve (see :func:`qoe_utility`).
        qoe_scale: QoE scale factor (used by priority weighting).
        bitrate_ranges: optional override of the per-resolution (lo, hi)
            bitrate ranges in kbps.

    Returns:
        The validated feasible stream set, sorted by descending bitrate.
    """
    if levels_per_resolution < 1:
        raise ValueError("levels_per_resolution must be >= 1")
    ranges = dict(DEFAULT_BITRATE_RANGES)
    if bitrate_ranges:
        ranges.update(bitrate_ranges)
    used: set = set()
    streams: List[StreamSpec] = []
    for res in sorted(set(resolutions), reverse=True):
        lo, hi = ranges[res]
        if levels_per_resolution == 1:
            rates = [hi]
        else:
            step = (hi - lo) / (levels_per_resolution - 1)
            rates = [round(lo + k * step) for k in range(levels_per_resolution)]
        for rate in rates:
            while rate in used:
                rate -= 1
            if rate <= 0:
                raise ValueError(
                    f"cannot fit {levels_per_resolution} distinct levels in "
                    f"range {ranges[res]} for {res}"
                )
            used.add(rate)
            streams.append(
                StreamSpec(
                    bitrate_kbps=rate,
                    resolution=res,
                    qoe=qoe_utility(rate, qoe_exponent, qoe_scale),
                )
            )
    return validate_feasible_set(streams)


def coarse_ladder(
    resolutions: Sequence[Resolution] = PAPER_RESOLUTIONS,
    qoe_exponent: float = 0.85,
) -> List[StreamSpec]:
    """A classic coarse 3-level simulcast ladder (one rung per resolution).

    This mirrors the template policies the paper criticizes (Sec. 1: "They
    support only few coarse-grained bitrate levels (typically 2-3 levels)"),
    e.g. Chromium's simulcast rate allocator.  Used by the non-GSO baseline.
    """
    return make_ladder(
        resolutions=resolutions,
        levels_per_resolution=1,
        qoe_exponent=qoe_exponent,
    )


def scale_qoe(streams: Sequence[StreamSpec], factor: float) -> List[StreamSpec]:
    """Return a copy of ``streams`` with every QoE weight multiplied.

    This is the priority-weighting primitive of Sec. 4.4: "we can give the
    host's or speaker's streams higher QoE weights".
    """
    if not 0 < factor < math.inf:
        raise ValueError(f"priority factor must be positive and finite, got {factor}")
    return [
        StreamSpec(s.bitrate_kbps, s.resolution, s.qoe * factor) for s in streams
    ]
