"""Multi-Choice Knapsack Problem (MCKP) solvers.

Step 1 of the GSO control algorithm (Sec. 4.1.1) reduces each subscriber's
downlink to an MCKP instance: the downlink is a knapsack with capacity
``B_d_i'``; each followed publisher contributes one *class* of items (its
edge-feasible streams ``S_ii'``); an item's weight is the stream bitrate and
its value the QoE utility; at most one item may be taken per class.

The dynamic programs are array-based: one stacked candidate matrix per
class (one row per item plus the skip row), reduced with a single
``max``/``argmax`` over the shared capacity grid, with no per-capacity
Python loop.  Their pure-Python originals
(:func:`_solve_mckp_dp_python` / :func:`_solve_mckp_dp_mandatory_python`)
are kept as **reference oracles**: no production code calls them, and the
tests require byte-identical results (``docs/SOLVER.md``).

Public solvers:

* :func:`solve_mckp_dp` — one instance at one capacity: dynamic
  programming over a discretized capacity grid, pseudo-polynomial
  ``O(C/g * total_items)`` where ``g`` is the grid granularity.  With
  ``g = 1`` (kbps) the solution is exact; coarser grids trade a bounded
  optimality loss for speed.
* :func:`solve_mckp_dp_mandatory` — the variant where exactly one item must
  be taken per class; used by Step 3's uplink fix (Eq. 16), where policy
  entries may be lowered but not dropped.
* :class:`CapacityProfile` — every capacity's answer to one class
  structure: **one** DP table, no wider than the sum of the per-class
  maximum grid weights divided by their GCD, whose final value row is a
  step function of capacity.  The profile keeps the steps' breakpoints
  and picks; a lookup is a bisect.  ``repro.core.knapsack`` answers all
  subscribers that share a class structure from one profile.
* :func:`solve_mckp_exhaustive` — exact enumeration of the
  ``prod(|class|+1)`` combinations.  Exponential; this is the brute-force
  comparator of Fig. 6 and the test oracle.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import names as obs_names
from ..obs.registry import get_registry

#: One knapsack item: (weight_kbps, value).  Item identity within its class
#: is positional: solutions report the chosen index per class.
Item = Tuple[int, float]

#: A "no pick" marker in solution vectors.
NO_PICK: Optional[int] = None

#: Sentinel used in the integer choice tables.
_NO_CHOICE = -1

_NEG_INF = float("-inf")


class KernelStats:
    """Process-wide DP usage counters (always on, unlike the metrics
    registry): DP tables built (optional- and mandatory-pick), plus the
    subscriber instances answered out of a shared
    :class:`CapacityProfile`.  ``ControllerCluster.stats()`` reports this
    snapshot."""

    def __init__(self) -> None:
        self.reset()

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly view of the counters."""
        return {
            "solves": dict(self.solves),
            "batched_instances": self.batched_instances,
        }

    def reset(self) -> None:
        """Zero every counter (test isolation)."""
        #: A one-key map: ``bench/`` sums the snapshot's ``solves`` values.
        self.solves: Dict[str, int] = {"dp": 0}
        self.batched_instances = 0


_KERNEL_STATS = KernelStats()


def kernel_stats() -> KernelStats:
    """The process-wide :class:`KernelStats` singleton."""
    return _KERNEL_STATS


@dataclass(frozen=True)
class MckpSolution:
    """Result of an MCKP solve.

    Attributes:
        picks: per class, the chosen item index or ``None`` if the class is
            skipped (Eq. 4 allows ``sum_k x_ik <= 1``).
        total_value: sum of chosen item values (the Eq. 1 objective).
        total_weight: sum of chosen item weights, guaranteed <= capacity.
    """

    picks: Tuple[Optional[int], ...]
    total_value: float
    total_weight: int


def _check_capacity(capacity: int) -> None:
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")


def _validate(classes: Sequence[Sequence[Item]], capacity: int) -> None:
    _check_capacity(capacity)
    for ci, cls in enumerate(classes):
        for wi, (weight, value) in enumerate(cls):
            if weight <= 0:
                raise ValueError(
                    f"item {wi} of class {ci} has non-positive weight {weight}"
                )
            if value < 0:
                raise ValueError(
                    f"item {wi} of class {ci} has negative value {value}"
                )


def _check_granularity(granularity: int) -> None:
    if granularity < 1:
        raise ValueError(f"granularity must be >= 1, got {granularity}")


def _grid_weight(weight: int, granularity: int) -> int:
    """Item weight on the capacity grid, rounded up (never under-counts)."""
    return max(1, -(-weight // granularity))


def _class_grid_weights(
    cls: Sequence[Item], granularity: int
) -> List[int]:
    """Grid weights of one class's items, computed once per (class, solve).

    Both the DP sweep and the backtracking consult grid weights; hoisting
    them per class avoids recomputing the ceil-division per (item, pass).
    """
    return [_grid_weight(w, granularity) for w, _ in cls]


def _max_slots(grid_weights: Sequence[Sequence[int]]) -> int:
    """Grid slots of the heaviest combination on offer.

    No combination weighs more than the sum of the per-class maximum grid
    weights, so DP columns beyond that sum repeat the last reachable one:
    a budget larger than everything on offer needs no bigger table (and a
    10^9 kbps bandwidth report cannot ask for one).
    """
    return sum(max(gws, default=0) for gws in grid_weights)


def _dp_arrays(
    n_classes: int, max_items: int, slots: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fresh ``(value, stack, choices)`` buffers for one table: the value
    row, the stacked candidate matrix (one row per item plus the skip
    row) and the choice table, pre-filled with the no-choice sentinel.
    Tables are clamped to a few hundred columns, so allocating them per
    table costs less than keeping a per-thread pool."""
    width = slots + 1
    return (
        np.empty(width, dtype=np.float64),
        np.empty((max_items + 1, width), dtype=np.float64),
        np.full((n_classes, width), _NO_CHOICE, dtype=np.int32),
    )


def _empty_solution(n_classes: int) -> MckpSolution:
    return MckpSolution(tuple([NO_PICK] * n_classes), 0.0, 0)


def _finish(
    classes: Sequence[Sequence[Item]],
    picks: List[Optional[int]],
    capacity: int,
) -> MckpSolution:
    total_weight = sum(
        classes[ci][idx][0] for ci, idx in enumerate(picks) if idx is not None
    )
    total_value = sum(
        classes[ci][idx][1] for ci, idx in enumerate(picks) if idx is not None
    )
    assert total_weight <= capacity, "DP produced an infeasible solution"
    return MckpSolution(tuple(picks), total_value, total_weight)


def _emit_solve_obs(reg, n_classes: int, slots: int) -> None:
    """Per-table metrics shared by the scalar solves and profile builds."""
    _KERNEL_STATS.solves["dp"] += 1
    if reg.enabled:
        reg.counter(obs_names.MCKP_SOLVES).inc()
        reg.histogram(obs_names.MCKP_TABLE_CELLS).observe(
            n_classes * (slots + 1)
        )


def _emit_grid_slack(
    reg,
    classes: Sequence[Sequence[Item]],
    granularity: int,
    picks: Sequence[Optional[int]],
) -> None:
    """Granularity-induced conservatism: capacity consumed by rounding
    item weights up to the grid, i.e. budget the DP could not use."""
    if not (reg.enabled and granularity > 1):
        return
    slack = 0
    for cls, idx in zip(classes, picks):
        if idx is not None:
            weight = cls[idx][0]
            slack += _grid_weight(weight, granularity) * granularity - weight
    reg.histogram(obs_names.MCKP_GRID_SLACK_KBPS).observe(slack)


# --------------------------------------------------------------------- #
# Optional-pick DP (Step 1's per-subscriber knapsack)
# --------------------------------------------------------------------- #


def solve_mckp_dp(
    classes: Sequence[Sequence[Item]],
    capacity: int,
    granularity: int = 1,
) -> MckpSolution:
    """Solve an MCKP instance by dynamic programming.

    The DP table has one row per class and one column per capacity grid
    slot.  Weights are divided by ``granularity`` rounding *up*, so the
    returned solution never violates the true capacity; it may be slightly
    conservative (skip a barely-fitting item) when ``granularity > 1``.

    Args:
        classes: item classes; at most one item is chosen from each.
        capacity: knapsack capacity in the same (kbps) unit as weights.
        granularity: capacity grid step in kbps.  1 = exact.

    Returns:
        The optimal (for the discretized instance) :class:`MckpSolution`.
    """
    _validate(classes, capacity)
    _check_granularity(granularity)
    slots = capacity // granularity
    n = len(classes)
    grid_weights = [_class_grid_weights(cls, granularity) for cls in classes]
    width = min(slots, _max_slots(grid_weights))
    reg = get_registry()
    _emit_solve_obs(reg, n, width)
    if n == 0 or slots == 0:
        return _empty_solution(n)
    value, choices = _dp_optional_table(classes, grid_weights, width)
    col = int(np.argmax(value))  # argmax returns the smallest maximizing col
    picks = _pick_list(_backtrack_columns(grid_weights, choices, [col])[0])
    _emit_grid_slack(reg, classes, granularity, picks)
    return _finish(classes, picks, capacity)


def _dp_optional_table(
    classes: Sequence[Sequence[Item]],
    grid_weights: Sequence[Sequence[int]],
    slots: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The array sweep of the optional-pick DP: per class, one stacked
    candidate matrix (skip row + one shifted-add row per item) reduced by
    ``max``/``argmax`` down the item axis.  Returns the final value row
    and the full choice table.

    ``argmax`` returns the *first* maximizing row, which reproduces the
    reference tie-break exactly: skipping beats any equal-valued item, and
    a lower item index beats a higher one (Table 1's deterministic picks).

    The table is reusable across capacities: column ``c`` only ever reads
    columns ``<= c``, so for any ``s <= slots`` the prefix ``[0..s]`` is
    exactly the table the DP would have built on an ``s``-slot grid.
    :class:`CapacityProfile` exploits this to answer every capacity of a
    class structure from one table.
    """
    n = len(classes)
    width = slots + 1
    max_items = max(len(cls) for cls in classes)
    value, stack, choices = _dp_arrays(n, max_items, slots)
    value.fill(0.0)
    for ci, cls in enumerate(classes):
        rows = stack[: len(cls) + 1]
        rows[0] = value  # skipping this class is always allowed
        gws = grid_weights[ci]
        for idx in range(len(cls)):
            gw = gws[idx]
            row = rows[idx + 1]
            row.fill(_NEG_INF)
            if gw <= slots:
                np.add(value[: width - gw], cls[idx][1], out=row[gw:])
        # rows are materialized copies, so reducing straight into `value`
        # cannot corrupt the candidates being reduced.
        choices[ci] = rows.argmax(axis=0) - 1  # row 0 (skip) -> _NO_CHOICE
        rows.max(axis=0, out=value)
    return value, choices


def _backtrack_columns(
    grid_weights: Sequence[Sequence[int]], choices, cols: Sequence[int]
) -> np.ndarray:
    """Backtrack many start columns of one DP table in one pass.

    The class loop runs once for all columns, gathering each column's
    choice for class ``ci`` with a fancy index and stepping all columns
    together.  Returns a ``(len(cols), n)`` array using :data:`_NO_CHOICE`
    for skipped classes (``int8`` when every class has fewer than 128
    items) — decision-for-decision identical to the oracle's scalar walk.
    """
    n = len(grid_weights)
    small = all(len(gws) < 128 for gws in grid_weights)
    cols = np.array(cols, dtype=np.int64)
    picks = np.full(
        (cols.shape[0], n), _NO_CHOICE, dtype=np.int8 if small else np.int32
    )
    for ci in range(n - 1, -1, -1):
        idx = choices[ci][cols]
        picks[:, ci] = idx
        gws = np.asarray(grid_weights[ci], dtype=np.int64)
        if gws.size:
            # idx == -1 (skip) legally gathers gws[-1]; the where masks it.
            cols -= np.where(idx != _NO_CHOICE, gws[idx], 0)
    return picks


def _pick_list(row: np.ndarray) -> List[Optional[int]]:
    return [NO_PICK if p == _NO_CHOICE else p for p in row.tolist()]


def _solve_mckp_dp_python(
    classes: Sequence[Sequence[Item]],
    capacity: int,
    granularity: int = 1,
) -> MckpSolution:
    """Pure-Python reference implementation of :func:`solve_mckp_dp`.

    The reference oracle the tests compare the array DP and
    :class:`CapacityProfile` against; functionally identical, only slower.
    """
    _validate(classes, capacity)
    _check_granularity(granularity)
    slots = capacity // granularity
    n = len(classes)
    if n == 0 or slots == 0:
        return _empty_solution(n)
    slots = min(
        slots, _max_slots([_class_grid_weights(c, granularity) for c in classes])
    )

    best = [0.0] * (slots + 1)
    choices: List[List[int]] = []
    for cls in classes:
        new_best = list(best)
        row = [_NO_CHOICE] * (slots + 1)
        for idx, (w, v) in enumerate(cls):
            gw = _grid_weight(w, granularity)
            if gw > slots:
                continue
            for c in range(slots, gw - 1, -1):
                cand = best[c - gw] + v
                if cand > new_best[c]:
                    new_best[c] = cand
                    row[c] = idx
        best = new_best
        choices.append(row)

    col = max(range(slots + 1), key=lambda c: (best[c], -c))
    picks: List[Optional[int]] = [NO_PICK] * n
    for ci in range(n - 1, -1, -1):
        idx = choices[ci][col]
        if idx == _NO_CHOICE:
            picks[ci] = NO_PICK
            continue
        picks[ci] = idx
        col -= _grid_weight(classes[ci][idx][0], granularity)
    return _finish(classes, picks, capacity)


# --------------------------------------------------------------------- #
# Capacity profile (one table answers every capacity of a class structure)
# --------------------------------------------------------------------- #


class CapacityProfile:
    """Every capacity's optional-pick answer for one class structure.

    Byte-identical to ``solve_mckp_dp(classes, capacity, granularity)``
    for every ``capacity >= 0``, from **one** DP table, by three exactness
    arguments (``docs/SOLVER.md``):

    * *prefix* — DP column ``c`` only reads columns ``<= c``, so the
      table built for the widest grid contains every narrower one;
    * *clamp* — no combination outweighs the sum of the per-class maximum
      grid weights, so wider grids repeat that last column;
    * *GCD* — every reachable column is a multiple of the grid weights'
      GCD, so the table is built on weights divided by it.

    The final value row is non-decreasing in capacity, and the DP answers
    with its *smallest* maximizing column: the answer is a step function
    of capacity.  The profile keeps the columns where the value rises
    (``int32``) and the picks backtracked from each (``int8`` for classes
    of fewer than 128 items); solutions are materialized on first use.

    Args:
        classes: item classes; at most one item is chosen from each.
        granularity: capacity grid step in kbps.
    """

    __slots__ = ("classes", "granularity", "unit", "breaks", "picks", "_solutions")

    def __init__(
        self, classes: Sequence[Sequence[Item]], granularity: int = 1
    ) -> None:
        _validate(classes, 0)
        _check_granularity(granularity)
        self.classes = classes
        self.granularity = granularity
        grid_weights = [_class_grid_weights(cls, granularity) for cls in classes]
        #: Grid slots per table column: the GCD of all grid weights.
        self.unit = math.gcd(*(gw for gws in grid_weights for gw in gws)) or 1
        if self.unit > 1:
            grid_weights = [[gw // self.unit for gw in gws] for gws in grid_weights]
        columns = _max_slots(grid_weights)
        _emit_solve_obs(get_registry(), len(classes), columns)
        choices, rises = None, ()
        if classes:
            value, choices = _dp_optional_table(classes, grid_weights, columns)
            rises = np.flatnonzero(value[1:] > value[:-1]) + 1
        #: Ascending table columns where the value row rises; 0 first.
        self.breaks = array("i", [0, *rises])
        #: ``(len(breaks), n)`` item index per class, ``-1`` = skipped.
        self.picks = _backtrack_columns(grid_weights, choices, self.breaks)
        #: breakpoint index -> materialized solution; -1 = the empty grid.
        self._solutions: Dict[int, MckpSolution] = {}

    def index(self, capacity: int) -> int:
        """The breakpoint answering ``capacity``; ``-1`` on a zero-slot
        grid, whose answer differs from breakpoint 0's ("nothing fits")
        in the type of its zero ``total_value`` only."""
        _check_capacity(capacity)
        slots = capacity // self.granularity
        if slots == 0 or not self.classes:
            return -1
        return bisect_right(self.breaks, slots // self.unit) - 1

    def solution(self, capacity: int, index: Optional[int] = None) -> MckpSolution:
        """The :class:`MckpSolution` ``solve_mckp_dp`` returns at
        ``capacity``; pass ``index(capacity)`` when already computed."""
        if index is None:
            index = self.index(capacity)
        solution = self._solutions.get(index)
        if solution is None:
            if index < 0:
                solution = _empty_solution(len(self.classes))
            else:
                picks = _pick_list(self.picks[index])
                solution = _finish(self.classes, picks, capacity)
                _emit_grid_slack(
                    get_registry(), self.classes, self.granularity, picks
                )
            self._solutions[index] = solution
        assert solution.total_weight <= capacity
        return solution


# --------------------------------------------------------------------- #
# Mandatory-pick DP (Step 3's Eq. 16 uplink fix)
# --------------------------------------------------------------------- #


def solve_mckp_dp_mandatory(
    classes: Sequence[Sequence[Item]],
    capacity: int,
    granularity: int = 1,
) -> Optional[MckpSolution]:
    """Solve an MCKP where *exactly one* item must be taken from each class.

    Step 3's fix (Eq. 16) replaces every policy entry with a lower bitrate of
    the same resolution — entries cannot be dropped during the fix, so the
    knapsack there is the mandatory-pick variant.

    Returns:
        The optimal solution, or ``None`` when no feasible combination
        exists (the Eq. 17 test failed).
    """
    _validate(classes, capacity)
    _check_granularity(granularity)
    _KERNEL_STATS.solves["dp"] += 1
    if any(len(cls) == 0 for cls in classes):
        return None
    n = len(classes)
    if n == 0:
        return MckpSolution((), 0.0, 0)
    grid_weights = [_class_grid_weights(cls, granularity) for cls in classes]
    slots = min(capacity // granularity, _max_slots(grid_weights))

    width = slots + 1
    max_items = max(len(cls) for cls in classes)
    value, stack, choices = _dp_arrays(n, max_items, slots)
    value.fill(_NEG_INF)
    value[0] = 0.0
    for ci, cls in enumerate(classes):
        rows = stack[: len(cls)]  # no skip row: a pick is mandatory
        gws = grid_weights[ci]
        for idx in range(len(cls)):
            gw = gws[idx]
            row = rows[idx]
            row.fill(_NEG_INF)
            if gw <= slots:
                np.add(value[: width - gw], cls[idx][1], out=row[gw:])
        am = rows.argmax(axis=0)
        rows.max(axis=0, out=value)
        # Columns no item can reach keep the no-choice sentinel, exactly
        # like the oracle's rows (argmax alone would report item 0 there).
        choices[ci] = np.where(np.isfinite(value), am, _NO_CHOICE)

    if not np.isfinite(value).any():
        return None
    col = int(np.argmax(value))
    picks: List[int] = [0] * n
    for ci in range(n - 1, -1, -1):
        idx = int(choices[ci][col])
        assert idx != _NO_CHOICE, "mandatory DP lost a pick during backtracking"
        picks[ci] = idx
        col -= grid_weights[ci][idx]
    total_weight = sum(classes[ci][idx][0] for ci, idx in enumerate(picks))
    total_value = sum(classes[ci][idx][1] for ci, idx in enumerate(picks))
    if total_weight > capacity:
        return None
    return MckpSolution(tuple(picks), total_value, total_weight)


def _solve_mckp_dp_mandatory_python(
    classes: Sequence[Sequence[Item]],
    capacity: int,
    granularity: int = 1,
) -> Optional[MckpSolution]:
    """Pure-Python reference implementation of :func:`solve_mckp_dp_mandatory`.

    The reference oracle for the array DP, mirroring it
    decision-for-decision: the same ``-inf`` infeasibility propagation,
    the same first-smallest-column argmax tie rule, and the same post-hoc
    exact-capacity rejection.
    """
    _validate(classes, capacity)
    _check_granularity(granularity)
    if any(len(cls) == 0 for cls in classes):
        return None
    n = len(classes)
    if n == 0:
        return MckpSolution((), 0.0, 0)
    slots = min(
        capacity // granularity,
        _max_slots([_class_grid_weights(c, granularity) for c in classes]),
    )

    neg = float("-inf")
    best = [neg] * (slots + 1)
    best[0] = 0.0
    choices: List[List[int]] = []
    for cls in classes:
        new_best = [neg] * (slots + 1)
        row = [_NO_CHOICE] * (slots + 1)
        for idx, (w, v) in enumerate(cls):
            gw = _grid_weight(w, granularity)
            if gw > slots:
                continue
            for c in range(slots, gw - 1, -1):
                if best[c - gw] == neg:
                    continue
                cand = best[c - gw] + v
                if cand > new_best[c]:
                    new_best[c] = cand
                    row[c] = idx
        best = new_best
        choices.append(row)

    if all(value == neg for value in best):
        return None
    col = max(range(slots + 1), key=lambda c: (best[c], -c))
    picks: List[int] = [0] * n
    for ci in range(n - 1, -1, -1):
        idx = choices[ci][col]
        assert idx != _NO_CHOICE, "mandatory DP lost a pick during backtracking"
        picks[ci] = idx
        col -= _grid_weight(classes[ci][idx][0], granularity)
    total_weight = sum(classes[ci][idx][0] for ci, idx in enumerate(picks))
    total_value = sum(classes[ci][idx][1] for ci, idx in enumerate(picks))
    if total_weight > capacity:
        return None
    return MckpSolution(tuple(picks), total_value, total_weight)


def solve_mckp_exhaustive(
    classes: Sequence[Sequence[Item]],
    capacity: int,
) -> MckpSolution:
    """Solve an MCKP instance by exact enumeration.

    Iterates the full cartesian product of per-class choices (including
    "skip"), so the running time is ``prod(|class_i| + 1)`` — exponential in
    the number of classes.  This is the brute-force comparator of Fig. 6.

    Returns:
        The exactly-optimal :class:`MckpSolution`.
    """
    _validate(classes, capacity)
    n = len(classes)
    options: List[List[Optional[int]]] = [
        [NO_PICK] + list(range(len(cls))) for cls in classes
    ]
    best_value = -1.0
    best_weight = 0
    best_picks: Tuple[Optional[int], ...] = tuple([NO_PICK] * n)
    for combo in itertools.product(*options):
        weight = 0
        value = 0.0
        feasible = True
        for ci, idx in enumerate(combo):
            if idx is None:
                continue
            w, v = classes[ci][idx]
            weight += w
            if weight > capacity:
                feasible = False
                break
            value += v
        if feasible and value > best_value:
            best_value = value
            best_weight = weight
            best_picks = combo
    return MckpSolution(best_picks, max(best_value, 0.0), best_weight)
