"""The DP prefix store behind Step 1's capacity profiles.

A profile folds one :class:`~repro.core.mckp.PrefixState` per class and
reuses every state a :class:`~repro.core.mckp.PrefixStore` already
holds for its leading classes (``docs/SOLVER.md``, "Shared prefixes").
Reuse must change no byte: a profile built on a warm store answers every
capacity exactly as the python oracle and as a profile built on an
empty store.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import MckpInstanceCache, default_mckp_cache
from repro.core.mckp import (
    CapacityProfile,
    PrefixStore,
    _solve_mckp_dp_python,
    kernel_stats,
)


def _cls(factor, lo, hi):
    """One class of 1-4 items weighing ``lo..hi`` times ``factor``; small
    integer values, so the tie-break decides many answers."""
    item = st.tuples(
        st.integers(lo, hi).map(lambda w: w * factor),
        st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 9.0)),
    )
    return st.lists(item, min_size=1, max_size=4).map(tuple)


@st.composite
def stemmed_structures(draw):
    """Two to four class structures that share a narrow stem.

    Each continues the stem (or a prefix of it) with heavier classes, so
    a state swept at the stem's width serves wider tables (the clamp
    path).  A continuation may use another weight factor than the stem,
    which changes the GCD unit and so the root the stem is found under.
    Some structures are lists of lists instead of tuples.
    """
    factor = draw(st.sampled_from([1, 2, 4]))
    stem = draw(st.lists(_cls(factor, 1, 2), min_size=1, max_size=2))
    structures = []
    for _ in range(draw(st.integers(2, 4))):
        cut = draw(st.integers(0, len(stem)))
        other = draw(st.sampled_from([factor, factor, 1, 3]))
        tail = draw(st.lists(_cls(other, 2, 6), min_size=0, max_size=2))
        classes = tuple(stem[:cut]) + tuple(tail)
        if draw(st.booleans()):
            classes = [list(cls) for cls in classes]
        structures.append(classes)
    return structures


def _heaviest(classes):
    return sum(max(w for w, _ in cls) for cls in classes)


def _answers(profile, classes):
    top = _heaviest(classes) + 2
    return [pickle.dumps(profile.solution(cap)) for cap in range(top + 1)]


class TestWarmEqualsCold:
    @given(stemmed_structures(), st.sampled_from([1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_every_capacity_matches_the_oracle_and_a_cold_build(self, structures, g):
        cache = default_mckp_cache()
        warm = [CapacityProfile(c, g, cache.prefixes) for c in structures]
        for classes, profile in zip(structures, warm):
            want = [
                pickle.dumps(_solve_mckp_dp_python(classes, cap, g))
                for cap in range(_heaviest(classes) + 3)
            ]
            assert _answers(profile, classes) == want, (classes, g)
            cache.clear()
            cold = CapacityProfile(classes, g, cache.prefixes)
            assert _answers(cold, classes) == want, (classes, g)
        cache.clear()

    def test_a_known_prefix_is_not_swept_again(self):
        stats, store = kernel_stats(), PrefixStore(64)
        stem = ((100, 1.0), (200, 2.0))
        first = (stem, stem)
        second = (stem, stem, ((300, 5.0), (600, 7.0)))
        swept = stats.class_sweeps
        CapacityProfile(first, 1, store)
        assert stats.class_sweeps - swept == 2
        CapacityProfile(second, 1, store)
        assert stats.class_sweeps - swept == 3
        CapacityProfile([list(cls) for cls in second], 1, store)
        assert stats.class_sweeps - swept == 3
        # Another granularity (or unit) is another root.
        CapacityProfile(first, 7, store)
        assert stats.class_sweeps - swept == 5
        assert len(store) == 5

    def test_a_shared_prefix_serves_a_wider_table(self):
        # The stem's state spans 3 columns (unit 100); the extension's
        # table spans 3 + 60.  Columns past the stem's rows read its last.
        store = PrefixStore(64)
        stem = (((100, 3.0), (200, 4.0)),)
        wide = stem + (((6000, 9.0),),)
        CapacityProfile(stem, 1, store)
        profile = CapacityProfile(wide, 1, store)
        assert len(profile.chain[0].value) == 3
        assert len(profile.chain[1].value) == 63
        for cap in (0, 100, 5999, 6000, 6100, 6200, 10**9):
            want = _solve_mckp_dp_python(wide, cap)
            assert pickle.dumps(profile.solution(cap)) == pickle.dumps(want)


class TestBounds:
    def test_clear_drops_every_state(self):
        cache = default_mckp_cache()
        CapacityProfile((((100, 1.0),), ((50, 2.0),)), 1, cache.prefixes)
        assert len(cache.prefixes) >= 2
        assert cache.snapshot()["retained_bytes"] > 0
        cache.clear()
        assert len(cache.prefixes) == 0
        assert cache.snapshot()["states"] == 0
        assert cache.snapshot()["retained_bytes"] == 0

    def test_the_state_bound_holds_after_many_structures(self):
        cache = MckpInstanceCache(capacity=8)
        store = cache.prefixes
        for i in range(1, 60):
            classes = tuple(
                ((w, float(i % 4)), (2 * w, float(i % 3) + 1.0))
                for w in range(i % 5 + 1, i % 5 + 1 + i % 11)
            )
            profile = CapacityProfile(classes, 1, store)
            assert len(store) <= 8
            for cap in (0, 7, 40, 10**9):
                want = _solve_mckp_dp_python(classes, cap)
                assert pickle.dumps(profile.solution(cap)) == pickle.dumps(want)
        assert store.retained_bytes == sum(
            s.value.nbytes + s.choice.nbytes for s in store.states.values()
        )
