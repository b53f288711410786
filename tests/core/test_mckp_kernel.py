"""Edge cases of the MCKP kernels against the pure-Python oracles.

The DPs (``solve_mckp_dp``, a one-capacity ``CapacityProfile``, and the
sparse ``solve_mckp_dp_mandatory``) must match
the pure-Python reference oracles kept beside them *bit-for-bit* —
compared by pickle bytes, not objective values — on exactly the shapes
where vectorized DP sweeps classically go wrong: empty classes, grids
with zero or one slot, exact value+weight ties (the Table-1 tie-break),
and weights sitting on granularity-bucket boundaries.  A capacity
profile must be indistinguishable from a per-instance loop over every
capacity it is asked about: one DP table per class structure, any number
of capacities.
"""

import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.engine import MckpInstanceCache, default_mckp_cache
from repro.core.knapsack import knapsack_step
from repro.core.ladder import paper_ladder
from repro.core.mckp import (
    CapacityProfile,
    _solve_mckp_dp_mandatory_python,
    _solve_mckp_dp_python,
    kernel_stats,
    solve_mckp_dp,
    solve_mckp_dp_mandatory,
    solve_mckp_exhaustive,
)
from repro.core.solver import GsoSolver, SolverConfig
from repro.obs import enabled_registry
from repro.obs import names as obs_names

from .reference import reference_solve


def both_optional(classes, cap, g=1):
    a = solve_mckp_dp(classes, cap, granularity=g)
    b = _solve_mckp_dp_python(classes, cap, granularity=g)
    assert pickle.dumps(a) == pickle.dumps(b), (classes, cap, g)
    return a


def both_mandatory(classes, cap, g=1):
    a = solve_mckp_dp_mandatory(classes, cap, granularity=g)
    b = _solve_mckp_dp_mandatory_python(classes, cap, granularity=g)
    assert pickle.dumps(a) == pickle.dumps(b), (classes, cap, g)
    return a


class TestKernelStats:
    def test_kernel_stats_count_batches(self):
        # Three viewers of one class structure: one table built, three
        # subscriber instances answered out of it.
        stats = kernel_stats()
        tables, insts = stats.solves["optional"], stats.batched_instances
        knapsack_step(
            webinar(2, [300, 900, 5000]), cache=MckpInstanceCache(capacity=4)
        )
        assert stats.solves["optional"] == tables + 1
        assert stats.batched_instances == insts + 3

    def test_scalar_solve_builds_one_table_and_no_shared_state(self):
        # A scalar call is a one-capacity profile built without a prefix
        # store: one table counted, the process-wide cache untouched.
        stats, cache = kernel_stats(), default_mckp_cache()
        tables, seen, states = stats.solves["optional"], cache.snapshot(), dict(cache.prefixes.states)
        sol = solve_mckp_dp([[(300, 1.0)], [(900, 2.0), (5000, 3.0)]], 1500, 25)
        assert sol.picks == (0, 0)
        assert stats.solves["optional"] == tables + 1
        assert cache.snapshot() == seen
        assert cache.prefixes.states == states

    def test_kernel_stats_snapshot_shape(self):
        # The shape bench/harness.py reads: it sums the ``solves`` values.
        snap = kernel_stats().snapshot()
        assert set(snap) == {"solves", "batched_instances"}
        assert set(snap["solves"]) == {"optional", "mandatory"}


class TestOptionalEdgeCases:
    def test_no_classes(self):
        for cap in (0, 1, 100):
            sol = both_optional([], cap)
            assert sol.picks == ()

    def test_empty_grid_zero_capacity(self):
        sol = both_optional([[(5, 3.0)], [(2, 1.0)]], 0)
        assert sol.picks == (None, None)

    def test_single_slot_grid(self):
        # capacity == granularity: exactly one usable slot; only items
        # whose grid weight rounds to 1 can be taken, and only one of them.
        classes = [[(9, 4.0), (10, 5.0), (11, 6.0)], [(10, 7.0)]]
        sol = both_optional(classes, 10, g=10)
        assert sol.picks == (None, 0)
        assert sol.total_weight == 10

    def test_capacity_smaller_than_every_item(self):
        sol = both_optional([[(50, 9.0)], [(60, 9.0)]], 49)
        assert sol.picks == (None, None)

    def test_exact_value_and_weight_ties_prefer_lower_index(self):
        # Identical (weight, value) items: the sequential strict-> update
        # keeps the first item; argmax must agree.
        classes = [[(4, 5.0), (4, 5.0), (4, 5.0)]]
        sol = both_optional(classes, 10)
        assert sol.picks == (0,)

    def test_skip_beats_equal_valued_item(self):
        # A zero-value item never displaces the skip row on a tie.
        sol = both_optional([[(1, 0.0)]], 5)
        assert sol.picks == (None,)

    def test_cross_class_tie_columns(self):
        # Two ways to reach the same total value at different weights; the
        # backtrack column choice (smallest maximizing column) must match.
        classes = [[(2, 3.0), (5, 3.0)], [(3, 3.0), (2, 3.0)]]
        for cap in range(0, 9):
            both_optional(classes, cap)

    def test_grid_weight_boundaries(self):
        # Weights at granularity multiples and one off either side: the
        # ceil-rounding must agree between kernels everywhere.
        g = 25
        weights = [24, 25, 26, 49, 50, 51, 74, 75, 76]
        classes = [[(w, float(w)) for w in weights]]
        for cap in (0, 24, 25, 26, 50, 75, 100, 149, 150):
            both_optional(classes, cap, g=g)

    def test_float_values_at_int_weights(self):
        # Values whose float sums differ by rounding order would betray a
        # different accumulation order between the kernels.
        classes = [
            [(10, 0.1), (20, 0.2)],
            [(10, 0.1), (20, 0.30000000000000004)],
            [(10, 0.7), (20, 1.1)],
        ]
        for cap in (0, 10, 20, 30, 40, 50):
            both_optional(classes, cap)

    def test_fuzz_byte_identity(self):
        rng = random.Random(23)
        for _ in range(200):
            classes = [
                [
                    (rng.randint(1, 70), rng.choice([0.0, 1.0, rng.random() * 50]))
                    for _ in range(rng.randint(1, 5))
                ]
                for _ in range(rng.randint(0, 5))
            ]
            both_optional(
                classes, rng.randint(0, 250), g=rng.choice([1, 7, 25])
            )


class TestMandatoryEdgeCases:
    def test_no_classes_is_trivially_feasible(self):
        for cap in (0, 10):
            sol = both_mandatory([], cap)
            assert sol is not None and sol.picks == ()

    def test_empty_class_list_infeasible(self):
        assert both_mandatory([[], [(1, 1.0)]], 100) is None
        assert both_mandatory([[]], 100) is None

    def test_capacity_below_smallest_mandatory_pick(self):
        # The lightest feasible combination weighs 7; one unit less must
        # be infeasible through both kernels.
        classes = [[(3, 1.0), (5, 9.0)], [(4, 1.0), (6, 9.0)]]
        assert both_mandatory(classes, 6) is None
        assert both_mandatory(classes, 7) is not None

    def test_single_slot_grid_mandatory(self):
        # One slot and two classes that must both pick: infeasible (each
        # pick needs at least one slot).
        classes = [[(10, 1.0)], [(10, 1.0)]]
        assert both_mandatory(classes, 10, g=10) is None
        assert both_mandatory(classes, 20, g=10) is not None

    def test_exact_ties_match_oracle_bit_for_bit(self):
        classes = [[(4, 5.0), (6, 5.0)], [(4, 5.0), (2, 5.0)]]
        for cap in range(0, 14):
            both_mandatory(classes, cap)

    def test_grid_weight_boundaries_mandatory(self):
        g = 50
        classes = [[(49, 1.0), (50, 2.0), (51, 3.0)], [(99, 1.0), (100, 2.0)]]
        for cap in (0, 99, 100, 101, 149, 150, 151, 200):
            both_mandatory(classes, cap, g=g)

    def test_post_hoc_capacity_rejection(self):
        # Grid slots admit the combination but true weights exceed the
        # capacity — both kernels must reject after backtracking.
        classes = [[(51, 9.0)], [(51, 9.0)]]
        assert both_mandatory(classes, 100, g=50) is None

    def test_fuzz_byte_identity(self):
        rng = random.Random(29)
        for _ in range(200):
            classes = [
                [
                    (rng.randint(1, 70), rng.choice([0.0, 1.0, rng.random() * 50]))
                    for _ in range(rng.randint(0, 4))
                ]
                for _ in range(rng.randint(0, 4))
            ]
            both_mandatory(
                classes, rng.randint(0, 250), g=rng.choice([1, 7, 25])
            )


def webinar(n_pubs, downlinks, uplink=10_000):
    """``n_pubs`` publishers on the paper ladder, one view-only subscriber
    per downlink following all of them: one Step-1 shape."""
    pubs = [f"P{i}" for i in range(n_pubs)]
    bandwidth = {pub: Bandwidth(uplink, 10_000) for pub in pubs}
    bandwidth.update(
        {f"V{i:03d}": Bandwidth(1_000, down) for i, down in enumerate(downlinks)}
    )
    return Problem(
        {pub: paper_ladder() for pub in pubs},
        bandwidth,
        [
            Subscription(f"V{i:03d}", pub)
            for i in range(len(downlinks))
            for pub in pubs
        ],
    )


class TestBatchedEntryPoint:
    """One table per class structure answers any batch of capacities
    (the cases of the former batched kernel entry point)."""

    def _reference(self, instances, g):
        # Pickled one by one: capacities answered by one breakpoint share
        # one solution object, which a pickled list would back-reference.
        return [
            pickle.dumps(_solve_mckp_dp_python(c, cap, granularity=g))
            for c, cap in instances
        ]

    def _answers(self, instances, g=1):
        """Every instance answered the way ``knapsack_step`` does: one
        profile per distinct class structure, looked up per capacity."""
        profiles = {}
        answers = []
        for classes, cap in instances:
            key = tuple(map(tuple, classes))
            if key not in profiles:
                profiles[key] = CapacityProfile(key, g)
            answers.append(pickle.dumps(profiles[key].solution(cap)))
        return answers

    def test_empty_batch(self):
        # A step with nobody to solve reads no profile and builds no table.
        cache = MckpInstanceCache(capacity=4)
        requests = knapsack_step(webinar(2, [500]), subscribers=[], cache=cache)
        assert requests == {}
        assert cache.stats.lookups == 0 and len(cache) == 0

    def test_batch_with_empty_and_zero_capacity_instances(self):
        instances = [
            ([], 100),
            ([[(5, 1.0)]], 0),
            ([[(5, 1.0)]], 100),
        ]
        got = self._answers(instances)
        assert got == self._reference(instances, 1)

    def test_heterogeneous_capacities_share_the_common_grid(self):
        # Wildly different slot counts on one table: the columns beyond a
        # small capacity must not leak into its answer.
        classes = [[(3, 2.0), (7, 5.0)], [(4, 3.0)]]
        instances = [(classes, cap) for cap in (0, 3, 4, 7, 11, 500)]
        got = self._answers(instances)
        assert got == self._reference(instances, 1)

    def test_shared_class_structure_one_table_many_capacities(self):
        # The profile's core trick: instances differing only in capacity
        # share one DP table.  Every capacity from empty grid to far
        # beyond the heaviest combination must match the scalar oracle.
        rng = random.Random(31)
        classes = [
            [
                (rng.randint(1, 60), rng.random() * 40)
                for _ in range(rng.randint(1, 4))
            ]
            for _ in range(4)
        ]
        for g in (1, 7):
            instances = [(classes, cap) for cap in range(0, 260, 13)]
            tables = kernel_stats().solves["optional"]
            got = self._answers(instances, g)
            assert kernel_stats().solves["optional"] == tables + 1
            assert got == self._reference(instances, g)

    def test_mixed_class_structures_group_independently(self):
        # Two structures interleaved: grouping must not reorder or
        # cross-contaminate the results.
        a = [[(3, 2.0), (7, 5.0)]]
        b = [[(4, 3.0)], [(2, 1.0), (6, 8.0)]]
        instances = [(a, 10), (b, 5), (a, 3), (b, 20), (a, 7)]
        got = self._answers(instances)
        assert got == self._reference(instances, 1)

    def test_ragged_class_counts_in_one_batch(self):
        instances = [
            ([[(2, 1.0)]], 10),
            ([[(2, 1.0)], [(3, 4.0)], [(4, 2.0)]], 10),
            ([], 10),
        ]
        got = self._answers(instances)
        assert got == self._reference(instances, 1)

    def test_fuzz_batch_equals_scalar(self):
        rng = random.Random(37)
        for _ in range(40):
            g = rng.choice([1, 7, 25])
            instances = [
                (
                    [
                        [
                            (rng.randint(1, 80), rng.random() * 100)
                            for _ in range(rng.randint(1, 6))
                        ]
                        for _ in range(rng.randint(0, 6))
                    ],
                    rng.randint(0, 400),
                )
                for _ in range(rng.randint(0, 10))
            ]
            got = self._answers(instances, g)
            assert got == self._reference(instances, g)


@st.composite
def class_structures(draw, value=None):
    """Class structures that stress the profile's three arguments: float
    values, exact value+weight ties, single-item classes, a common weight
    factor (GCD > 1) or none (coprime weights, GCD 1)."""
    factor = draw(st.sampled_from([1, 1, 50]))
    weight = st.integers(1, 12).map(lambda w: w * factor)
    if value is None:
        value = st.one_of(
            st.sampled_from([0.0, 1.0, 2.5]),
            st.floats(0.0, 100.0, allow_nan=False),
        )
    item = st.tuples(weight, value)
    cls = st.lists(item, min_size=1, max_size=4).map(
        lambda items: tuple(items + items[:1])  # an exact tie of item 0
        if len(items) == 2
        else tuple(items)
    )
    return tuple(draw(st.lists(cls, min_size=0, max_size=4)))


class TestCapacityProfile:
    @given(class_structures(), st.sampled_from([1, 7, 50]))
    @settings(max_examples=120, deadline=None)
    def test_profile_equals_python_oracle_at_every_capacity(self, classes, g):
        profile = CapacityProfile(classes, g)
        top = sum(max(w for w, _ in cls) for cls in classes) + 2 * g
        for cap in list(range(top + 1)) + [10**9]:
            got = profile.solution(cap)
            want = _solve_mckp_dp_python(classes, cap, g)
            # Full MckpSolution identity, down to the int 0 of "nothing
            # fits" against the float 0.0 of "zero slots".
            assert pickle.dumps(got) == pickle.dumps(want), (classes, cap, g)

    def test_table_is_clamped_and_gcd_reduced(self):
        # The paper ladder's rungs are all multiples of 100 kbps: eight
        # classes need 8 * 1500 / 100 + 1 columns, not one per kbps.
        classes = tuple(
            tuple((s.bitrate_kbps, s.qoe) for s in paper_ladder())
            for _ in range(8)
        )
        profile = CapacityProfile(classes, 1)
        assert profile.unit == 100
        assert profile.breaks[-1] <= 8 * 1500 // 100
        assert len(profile.chain[-1].value) == 8 * 1500 // 100 + 1
        assert all(state.choice.dtype.itemsize == 1 for state in profile.chain)
        assert profile.solution(10**9).total_weight == 8 * 1500

    def test_negative_capacity_rejected_at_lookup(self):
        profile = CapacityProfile(((((3, 1.0),)),), 1)
        with pytest.raises(ValueError, match="non-negative"):
            profile.solution(-1)
        with pytest.raises(ValueError, match="non-negative"):
            profile.index(-1)

    def test_invalid_items_rejected_at_build(self):
        with pytest.raises(ValueError, match="non-positive weight"):
            CapacityProfile((((0, 1.0),),), 1)
        with pytest.raises(ValueError, match="negative value"):
            CapacityProfile((((1, -1.0),),), 1)
        with pytest.raises(ValueError, match="granularity"):
            CapacityProfile((((1, 1.0),),), 0)


class TestDeletionLemma:
    """Deleting items the DP did not choose never changes what it chooses
    (``docs/SOLVER.md``): the licence for KMR Step 1 to re-solve only the
    subscribers that held the stream a reduction deleted."""

    SOLVERS = {
        "array": solve_mckp_dp,
        "profile": lambda classes, cap, g: CapacityProfile(classes, g).solution(cap),
        "oracle": _solve_mckp_dp_python,
    }

    @given(
        st.one_of(
            class_structures(),
            # Small-integer values: many combinations tie on total value,
            # so the answer rests on the tie-break alone.
            class_structures(value=st.integers(0, 3).map(float)),
        ),
        st.sampled_from([1, 25]),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_unchosen_items_can_go(self, classes, g, data):
        top = sum(max(w for w, _ in cls) for cls in classes)
        cap = data.draw(st.integers(0, top + g))
        picks = solve_mckp_dp(classes, cap, g).picks
        smaller, want = [], []
        for cls, pick in zip(classes, picks):
            kept = [
                idx
                for idx in range(len(cls))
                if idx == pick or data.draw(st.booleans())
            ]
            if kept:  # an emptied class leaves the instance
                smaller.append(tuple(cls[idx] for idx in kept))
                want.append(None if pick is None else kept.index(pick))
        smaller = tuple(smaller)
        for name, solve in self.SOLVERS.items():
            assert solve(classes, cap, g).picks == picks, name
            assert solve(smaller, cap, g).picks == tuple(want), (name, smaller)


class TestGccOverestimate:
    """Sec. 7's warning: one 10^9 kbps bandwidth report (a GCC
    over-estimate) used to ask the DP for a 149 GiB table.  Every table is
    clamped to the heaviest combination on offer instead."""

    #: Three paper ladders: nothing on offer outweighs 3 * 1500 kbps.
    HEAVIEST = 3 * 1500

    @pytest.mark.parametrize(
        "solve",
        [
            lambda problem: GsoSolver(SolverConfig()).solve(problem),
            lambda problem: reference_solve(problem)[0],
        ],
        ids=["production", "reference"],
    )
    def test_huge_downlink_and_uplink_solve_on_every_path(self, solve):
        problem = webinar(3, [10**9, 700], uplink=10**9)
        default_mckp_cache().clear()
        tracemalloc.start()
        try:
            with enabled_registry() as reg:
                solution = solve(problem)
                histograms = reg.snapshot()["histograms"]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        solution.validate(problem)
        top = paper_ladder()[0]
        assert solution.assignments["V000"] == {f"P{i}": top for i in range(3)}
        # The python oracles emit no table metric; their memory is the bound.
        cells = histograms.get(obs_names.MCKP_TABLE_CELLS)
        assert cells is None or cells["max"] <= 3 * (self.HEAVIEST + 1)
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("g", [1, 50])
    def test_huge_capacity_on_every_entry_point(self, g):
        classes = [[(s.bitrate_kbps, s.qoe) for s in paper_ladder()]] * 3
        want = _solve_mckp_dp_python(classes, self.HEAVIEST, g)
        assert want.total_weight == self.HEAVIEST
        wanted = _solve_mckp_dp_mandatory_python(classes, self.HEAVIEST, g)
        tracemalloc.start()
        try:
            for got in (
                _solve_mckp_dp_python(classes, 10**9, g),
                solve_mckp_dp(classes, 10**9, g),
                CapacityProfile(tuple(map(tuple, classes)), g).solution(10**9),
            ):
                assert pickle.dumps(got) == pickle.dumps(want)
            for got in (
                _solve_mckp_dp_mandatory_python(classes, 10**9, g),
                solve_mckp_dp_mandatory(classes, 10**9, g),
            ):
                assert pickle.dumps(got) == pickle.dumps(wanted)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # No table grew towards 10^9 columns (8 GB per float row).
        assert peak < 16 * 2**20


class TestWindowSweep:
    """The one-gather-per-class sweep against the oracles on the shapes
    it could get wrong: weights past the clamped table (the window's
    all ``-inf`` row), wide classes (``int32`` picks), integer ties in
    the mandatory DP, and a build that must not touch its input."""

    def test_items_heavier_than_the_clamped_table(self):
        # Capacities far below some items: those rows clamp to the
        # window's all -inf row and must never be picked.
        rng = random.Random(41)
        for _ in range(300):
            classes = [
                [
                    (rng.choice([rng.randint(1, 30), rng.randint(200, 900)]),
                     rng.choice([0.0, 1.0, rng.random() * 50]))
                    for _ in range(rng.randint(1, 5))
                ]
                for _ in range(rng.randint(1, 4))
            ]
            cap = rng.randint(0, 120)
            g = rng.choice([1, 7, 25])
            both_optional(classes, cap, g)
            both_mandatory(classes, cap, g)

    def test_every_item_past_the_budget(self):
        classes = [[(50, 1.0), (60, 2.0)], [(3, 1.0)]]
        for cap in range(0, 50):
            sol = both_optional(classes, cap)
            assert sol.picks[0] is None
            assert both_mandatory(classes, cap) is None

    @pytest.mark.parametrize("size", [127, 128, 200])
    def test_wide_classes_at_every_capacity(self, size):
        rng = random.Random(size)
        classes = tuple(
            tuple(
                (rng.randint(1, 40), float(rng.randint(0, 6)))
                for _ in range(size)
            )
            for _ in range(2)
        ) + (((3, 1.0), (5, 2.0)),)
        profile = CapacityProfile(classes, 1)
        wide = 1 if size < 128 else 4
        assert [s.choice.dtype.itemsize for s in profile.chain] == [wide, wide, 1]
        top = sum(max(w for w, _ in cls) for cls in classes) + 2
        for cap in range(top + 1):
            got = profile.solution(cap)
            want = _solve_mckp_dp_python(classes, cap)
            assert pickle.dumps(got) == pickle.dumps(want), cap
        for cap in range(0, top + 1, 7):
            both_optional(classes, cap)
            both_mandatory(classes, cap)

    def test_mandatory_integer_ties(self):
        # Small-integer values and weights: many combinations tie on
        # total value, so the answer rests on the tie-break alone.
        rng = random.Random(43)
        for _ in range(400):
            classes = [
                [
                    (rng.randint(1, 6) * rng.choice([1, 40]),
                     float(rng.randint(0, 3)))
                    for _ in range(rng.randint(1, 5))
                ]
                for _ in range(rng.randint(1, 4))
            ]
            both_mandatory(classes, rng.randint(0, 60), rng.choice([1, 2, 5]))

    def test_profile_build_is_repeatable_and_leaves_input_alone(self):
        rng = random.Random(47)
        classes = tuple(
            tuple(
                (rng.randint(1, 12) * 50, rng.random() * 30)
                for _ in range(rng.randint(1, 6))
            )
            for _ in range(5)
        )
        before = pickle.dumps(classes)
        first, second = CapacityProfile(classes, 1), CapacityProfile(classes, 1)
        assert pickle.dumps(classes) == before
        assert first.unit == second.unit == 50
        assert first.breaks == second.breaks
        assert len(first.chain) == len(second.chain) == 5
        for one, two in zip(first.chain, second.chain):
            assert one.choice.dtype == two.choice.dtype
            assert (one.choice == two.choice).all()
            assert (one.value == two.value).all()


class TestNonFiniteValues:
    """A nan or inf QoE is refused at every entry point, with one message:
    the kernels used to disagree on it (``solve_mckp_dp`` picked the nan
    item, the python oracle the other one, a profile neither)."""

    CLASSES = (((100, float("nan")), (200, 1.0)), ((50, 2.0),))

    ENTRY_POINTS = {
        "array": lambda c: solve_mckp_dp(c, 300),
        "oracle": lambda c: _solve_mckp_dp_python(c, 300),
        "profile": lambda c: CapacityProfile(c, 1),
        "mandatory": lambda c: solve_mckp_dp_mandatory(c, 300),
        "mandatory_oracle": lambda c: _solve_mckp_dp_mandatory_python(c, 300),
        "exhaustive": lambda c: solve_mckp_exhaustive(c, 300),
    }

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejected_everywhere(self, entry, bad):
        solve = self.ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match="item 0 of class 1 is not finite"):
            solve((((100, 1.0),), ((50, bad), (200, 1.0))))
        with pytest.raises(ValueError, match="item 1 of class 0 is not finite"):
            solve((((100, 1.0), (bad, 1.0)), ((50, 2.0),)))

    def test_the_disagreeing_instance(self):
        for name, entry in self.ENTRY_POINTS.items():
            with pytest.raises(ValueError, match="not finite"):
                entry(self.CLASSES)
