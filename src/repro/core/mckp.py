"""Multi-Choice Knapsack Problem (MCKP) solvers.

Step 1 of the GSO control algorithm (Sec. 4.1.1) reduces each subscriber's
downlink to an MCKP instance: the downlink is a knapsack with capacity
``B_d_i'``; each followed publisher contributes one *class* of items (its
edge-feasible streams ``S_ii'``); an item's weight is the stream bitrate and
its value the QoE utility; at most one item may be taken per class.

Each dynamic program is sized to its instances.  Step 1's optional-pick
DP has one implementation, :class:`CapacityProfile`: a left fold over the
classes, one array step per class (:func:`_fold`) that gathers every
candidate row (the skip row plus one shifted row per item) at once
through a zero-copy window over the ``-inf``-padded value row and
reduces them with one ``max``/``argmax``, with no per-item or
per-capacity Python loop.  Step 3's mandatory-pick fix has a handful of
combinations, so its DP is a sparse one over the grid columns some
combination reaches, with the dense table's arithmetic and tie rule
cell for cell.  Their pure-Python originals
(:func:`_solve_mckp_dp_python` / :func:`_solve_mckp_dp_mandatory_python`)
are kept as **reference oracles**: no production code calls them, and the
tests require byte-identical results (``docs/SOLVER.md``).

Public solvers:

* :func:`solve_mckp_dp` — one instance at one capacity, answered by a
  :class:`CapacityProfile`: pseudo-polynomial ``O(C/g * total_items)``
  where ``g`` is the grid granularity.  With ``g = 1`` (kbps) the
  solution is exact; coarser grids trade a bounded optimality loss for
  speed.
* :func:`solve_mckp_dp_mandatory` — the variant where exactly one item must
  be taken per class; used by Step 3's uplink fix (Eq. 16), where policy
  entries may be lowered but not dropped.  ``O(total_items * reached)``,
  where no more columns are reached than there are combinations or
  grid slots.
* :class:`CapacityProfile` — every capacity's answer to one class
  structure: **one** DP table, no wider than the sum of the per-class
  maximum grid weights divided by their GCD, whose final value row is a
  step function of capacity.  The table is a left fold of one
  :class:`PrefixState` per class, which a :class:`PrefixStore` shares
  between every structure with the same leading classes.  The profile
  keeps the steps' breakpoints; a lookup is a bisect.
  ``repro.core.knapsack`` answers all subscribers that share a class
  structure from one profile.
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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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

_chain = itertools.chain.from_iterable


class KernelStats:
    """Process-wide DP usage counters (always on): DP tables built, by
    kind (``optional``-pick for Step 1, ``mandatory``-pick for Step 3's
    fix), the class sweeps the capacity profiles ran (one per
    :class:`PrefixState` built), plus the subscriber instances answered
    out of a shared :class:`CapacityProfile`.
    ``ControllerCluster.stats()`` reports this snapshot; the metrics
    registry reads the optional-pick count and the class sweeps."""

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
        #: ``bench/`` sums the snapshot's ``solves`` values.
        self.solves: Dict[str, int] = {"optional": 0, "mandatory": 0}
        self.batched_instances = 0
        self.class_sweeps = 0

    def samples(self) -> Iterator[tuple]:
        """The registry's view (``MetricsRegistry.watch``; a solver
        registers it when it is built)."""
        yield obs_names.MCKP_SOLVES, {}, self.solves["optional"]
        yield obs_names.MCKP_CLASS_SWEEPS, {}, self.class_sweeps


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
            if not (math.isfinite(weight) and math.isfinite(value)):
                raise ValueError(
                    f"item {wi} of class {ci} is not finite: "
                    f"weight {weight}, value {value}"
                )
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


def _max_slots(classes: Sequence[Sequence[Item]], granularity: int) -> int:
    """Grid slots of the heaviest combination on offer.

    No combination weighs more than the sum of the per-class maximum grid
    weights, so DP columns beyond that sum repeat the last reachable one:
    a budget larger than everything on offer needs no bigger table (and a
    10^9 kbps bandwidth report cannot ask for one).
    """
    return sum(
        max((_grid_weight(w, granularity) for w, _ in cls), default=0) for cls in classes
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

    It is a :class:`CapacityProfile` asked one capacity, built with no
    :class:`PrefixStore`: it touches no process-wide state but
    :func:`kernel_stats`.

    Args:
        classes: item classes; at most one item is chosen from each.
        capacity: knapsack capacity in the same (kbps) unit as weights.
        granularity: capacity grid step in kbps.  1 = exact.

    Returns:
        The optimal (for the discretized instance) :class:`MckpSolution`.
    """
    _check_capacity(capacity)
    return CapacityProfile(classes, granularity).solution(capacity)


def _solve_mckp_dp_python(
    classes: Sequence[Sequence[Item]],
    capacity: int,
    granularity: int = 1,
) -> MckpSolution:
    """Pure-Python reference implementation of :func:`solve_mckp_dp`.

    The reference oracle the tests compare :class:`CapacityProfile` (and
    so :func:`solve_mckp_dp`) against; functionally identical, only slower.
    """
    _validate(classes, capacity)
    _check_granularity(granularity)
    slots = capacity // granularity
    n = len(classes)
    if n == 0 or slots == 0:
        return _empty_solution(n)
    slots = min(slots, _max_slots(classes, granularity))

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


class PrefixState:
    """The optional-pick DP after a class prefix ``c1..ck``: its value row
    and the choice row of its last class ``ck``.

    Both rows span the prefix's own heaviest combination plus one column.
    By the clamp argument every wider column repeats the last one, so one
    state serves a table of any width (``docs/SOLVER.md``).
    """

    __slots__ = ("value", "choice", "steps")

    def __init__(self, value: np.ndarray, choice: np.ndarray, steps: List[int]) -> None:
        #: ``float64`` value row.
        self.value = value
        #: Per column, the winning row's offset in ``ck`` (0 = skipped):
        #: ``int8`` for a class of fewer than 128 items, else ``int32``.
        self.choice = choice
        #: The table columns each row of ``ck`` weighs, the skip row's 0 first.
        self.steps = steps


#: The value row before the first class: the empty combination, column 0.
_ORIGIN = np.zeros(1)


def _fold(prev: np.ndarray, steps: List[int], values: np.ndarray) -> PrefixState:
    """The optional-pick DP's step for one class on top of the value row
    ``prev``, widened to the new prefix's heaviest combination by
    repeating its last column (the clamp).  **One** gather reads every
    candidate row: an item weighing ``gw`` columns reads row
    ``width - gw`` of a zero-copy window over the row padded with
    ``width`` ``-inf`` columns; the skip row is the unshifted one.
    ``argmax`` takes the *first* maximizing row, the reference tie rule:
    an item is taken only where it is strictly better than skipping, and
    the lowest item index wins among equals.  ``steps`` and ``values``
    lead with the skip row's 0."""
    rows = np.array(steps)
    width = len(prev) + max(steps)
    padded = np.empty(2 * width)
    padded[:width] = _NEG_INF
    padded[width : width + len(prev)] = prev
    padded[width + len(prev) :] = prev[-1]
    window = np.ndarray((width + 1, width), np.float64, padded, 0, (8, 8))
    candidates = window[width - rows]
    candidates += values[:, None]
    choice = np.empty(width, np.int8 if len(steps) <= 128 else np.int32)
    candidates.argmax(axis=0, out=choice)
    return PrefixState(np.maximum.reduce(candidates, axis=0), choice, steps)


class PrefixStore:
    """Step 1's shared DP prefixes: a trie of :class:`PrefixState`, one
    root per ``(granularity, unit)`` and one child per class tuple.

    The trie is one dict keyed by ``(parent, class)``, where a first
    class's parent is the ``(granularity, unit)`` pair itself.  The state
    after ``c1..ck`` depends only on those classes, the granularity and
    the GCD unit, so every structure that starts with them reuses it.  A
    build whose classes could take the store past ``capacity`` states
    drops the whole trie first; states already in a profile's chain stay
    valid.
    """

    __slots__ = ("capacity", "states", "retained_bytes")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.states: Dict[tuple, PrefixState] = {}
        #: Bytes of the value and choice rows the store holds.
        self.retained_bytes = 0

    def __len__(self) -> int:
        return len(self.states)

    def clear(self) -> None:
        """Drop every state."""
        self.states.clear()
        self.retained_bytes = 0


def _profile_unit(
    classes: Sequence[Sequence[Item]], keys: List[tuple], granularity: int
) -> int:
    """Validate an optional-pick structure (every weight positive, every
    value non-negative, all finite; then the granularity) and return the
    GCD of its grid weights (1 when it has none).

    Only the distinct classes (``keys``, the classes as tuples) are read:
    a mesh's structure repeats one ladder per publisher.  nan fails every
    comparison but poisons a sum; :func:`_validate` runs only once these
    checks fail, so it raises its own messages in its own order.
    """
    items = list(_chain(dict.fromkeys(keys)))
    weights: Sequence[int] = ()
    if items:
        weights, values = zip(*items)
        if not (
            min(weights) > 0
            and min(values) >= 0
            and math.isfinite(sum(weights))
            and math.isfinite(sum(values))
        ):
            _validate(classes, 0)
    _check_granularity(granularity)
    return math.gcd(*[int(-(-w // granularity)) for w in weights]) or 1


def _prefix_chain(
    keys: List[tuple],
    granularity: int,
    unit: int,
    store: Optional[PrefixStore],
) -> List[PrefixState]:
    """The state of every prefix of the classes ``keys``: the longest
    prefix ``store`` knows is reused, and each class after it is folded
    once and added to the store."""
    n = len(keys)
    chain: List[PrefixState] = []
    parent: object = (granularity, unit)
    if store is not None:
        if len(store) + n > store.capacity:
            store.clear()
        for key in keys:
            state = store.states.get((parent, key))
            if state is None:
                break
            chain.append(state)
            parent = state
    prev = chain[-1].value if chain else _ORIGIN
    _KERNEL_STATS.class_sweeps += n - len(chain)
    for key in keys[len(chain) :]:
        steps = [0] + [int(-(-w // granularity)) // unit for w, _ in key]
        state = _fold(prev, steps, np.array([0.0] + [v for _, v in key]))
        if store is not None and len(store) < store.capacity:
            store.states[(parent, key)] = state
            store.retained_bytes += state.value.nbytes + state.choice.nbytes
        chain.append(state)
        parent, prev = state, state.value
    return chain


class CapacityProfile:
    """Every capacity's optional-pick answer for one class structure.

    Byte-identical to the reference oracle
    ``_solve_mckp_dp_python(classes, capacity, granularity)`` for every
    ``capacity >= 0``, from **one** DP table, by four exactness arguments
    (``docs/SOLVER.md``):

    * *prefix* — DP column ``c`` only reads columns ``<= c``, so the
      table built for the widest grid contains every narrower one;
    * *clamp* — no combination outweighs the sum of the per-class maximum
      grid weights, so wider grids repeat that last column;
    * *GCD* — every reachable column is a multiple of the grid weights'
      GCD, so the table is built on weights divided by it;
    * *shared prefixes* — the table is a left fold over the classes, and
      the state after ``c1..ck`` depends only on those classes, the
      granularity and the unit: with a :class:`PrefixStore` the profile
      folds only the classes after the longest prefix the store knows.

    The final value row is non-decreasing in capacity, and the DP answers
    with its *smallest* maximizing column: the answer is a step function
    of capacity.  The profile keeps the columns where the value rises
    (``int32``) and the chain of prefix states; a breakpoint's picks are
    backtracked, and its solution materialized, on first use.

    Args:
        classes: item classes; at most one item is chosen from each.
        granularity: capacity grid step in kbps.
        prefixes: the store to reuse prefix states from and add new ones
            to; ``None`` folds every class.
    """

    __slots__ = ("classes", "granularity", "unit", "breaks", "chain", "_solutions")

    def __init__(
        self,
        classes: Sequence[Sequence[Item]],
        granularity: int = 1,
        prefixes: Optional[PrefixStore] = None,
    ) -> None:
        self.classes = classes
        self.granularity = granularity
        keys = [c if type(c) is tuple else tuple(map(tuple, c)) for c in classes]
        #: Grid slots per table column: the GCD of all grid weights.
        self.unit = _profile_unit(classes, keys, granularity)
        #: Per class, the DP state after the classes up to it.
        self.chain = _prefix_chain(keys, granularity, self.unit, prefixes)
        value = self.chain[-1].value if self.chain else _ORIGIN
        _KERNEL_STATS.solves["optional"] += 1
        reg = get_registry()
        if reg.enabled:
            reg.histogram(obs_names.MCKP_TABLE_CELLS).observe(
                len(classes) * len(value)
            )
        rises = np.flatnonzero(value[1:] > value[:-1]) + 1
        breaks = np.concatenate(([0], rises))
        #: Ascending table columns where the value row rises; 0 first.
        self.breaks = array("i", breaks.astype(np.intc).tobytes())
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
        """The DP's :class:`MckpSolution` at ``capacity``; pass
        ``index(capacity)`` when already computed."""
        if index is None:
            index = self.index(capacity)
        solution = self._solutions.get(index)
        if solution is None:
            if index < 0:
                solution = _empty_solution(len(self.classes))
            else:
                picks = self._backtrack(self.breaks[index])
                solution = _finish(self.classes, picks, capacity)
            self._solutions[index] = solution
        assert solution.total_weight <= capacity
        return solution

    def _backtrack(self, col: int) -> List[Optional[int]]:
        """Per class, the item the table picks from column ``col`` on
        (``None`` = skipped).  A column past a state's rows reads its
        last one (the clamp)."""
        picks: List[Optional[int]] = [NO_PICK] * len(self.chain)
        for ci in range(len(self.chain) - 1, -1, -1):
            state = self.chain[ci]
            row = int(state.choice[min(col, len(state.choice) - 1)])
            if row:
                picks[ci] = row - 1
            col -= state.steps[row]
        return picks


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

    The DP runs over the *reachable* grid columns only: after each class
    one dict maps every column some combination reaches to its best value
    and the first item reaching it.  Items are the outer loop and reached
    columns the inner one, with a strict ``>`` update, so each cell sees
    the float additions of the dense table in its item order and keeps
    its lowest-index maximizer; the answer is the smallest column holding
    the maximum (``docs/SOLVER.md``, "The fix DP").  A fix has few
    combinations, so this touches at most ``min(prod |class|, slots + 1)``
    columns per item.

    Returns:
        The optimal solution, or ``None`` when no feasible combination
        exists (the Eq. 17 test failed).
    """
    _check_capacity(capacity)
    _validate(classes, 0)
    _check_granularity(granularity)
    _KERNEL_STATS.solves["mandatory"] += 1
    if not all(classes):
        return None
    if not classes:
        return MckpSolution((), 0.0, 0)
    slots = capacity // granularity
    reached: Dict[int, Tuple[float, int]] = {0: (0.0, _NO_CHOICE)}
    tables: List[Dict[int, Tuple[float, int]]] = []
    for cls in classes:
        prev = [(col, value) for col, (value, _) in reached.items()]
        reached = {}
        for idx, (weight, value) in enumerate(cls):
            gw = _grid_weight(weight, granularity)
            for col, best in prev:
                col += gw
                if col <= slots:
                    cand = best + value
                    cell = reached.get(col)
                    if cell is None or cand > cell[0]:
                        reached[col] = (cand, idx)
        if not reached:
            return None
        tables.append(reached)
    top = max(value for value, _ in reached.values())
    col = min(c for c, (value, _) in reached.items() if value == top)
    picks = [0] * len(classes)
    for ci in range(len(classes) - 1, -1, -1):
        idx = picks[ci] = tables[ci][col][1]
        col -= _grid_weight(classes[ci][idx][0], granularity)
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

    The reference oracle for the sparse DP: the dense table whose reached
    columns that DP walks, with the same ``-inf`` infeasibility
    propagation, the same first-smallest-column tie rule, and the same
    post-hoc exact-capacity rejection.
    """
    _validate(classes, capacity)
    _check_granularity(granularity)
    if any(len(cls) == 0 for cls in classes):
        return None
    n = len(classes)
    if n == 0:
        return MckpSolution((), 0.0, 0)
    slots = min(capacity // granularity, _max_slots(classes, granularity))

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
