"""Shared helpers for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper's evaluation:
it runs the experiment, prints the rows/series the paper reports, and
writes the same text into ``benchmarks/out/<name>.txt`` so EXPERIMENTS.md
can reference stable artifacts.

The meeting-level experiments are wrapped in ``benchmark.pedantic(...,
rounds=1)``: pytest-benchmark still records the wall time, but the
(expensive, deterministic) simulation runs exactly once.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

#: Output directory for benchmark artifacts.
OUT_DIR = Path(__file__).parent / "out"


def emit(name: str, lines: Iterable[str]) -> str:
    """Print a result block and persist it under benchmarks/out/."""
    text = "\n".join(lines)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===")
    print(text)
    return text


def table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    """Format an aligned text table."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(r[k]) for r in cells) for k in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


def geometric_mean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values) / len(values))


def series_stats(
    series: Sequence[Tuple[float, float]], t0: float, t1: float
) -> float:
    """Mean of a (t, value) series restricted to [t0, t1]."""
    window = [v for t, v in series if t0 <= t <= t1]
    return sum(window) / len(window) if window else 0.0
