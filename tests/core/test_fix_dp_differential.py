"""Step 3's fix DP against its pure-Python oracle, by pickle bytes.

``solve_mckp_dp_mandatory`` runs over the grid columns some combination
reaches; ``_solve_mckp_dp_mandatory_python`` walks the whole dense
table.  They must agree on every pick, every ``total_value`` bit and
every ``None``, on exactly the shapes where a sparse table could drift:
equal values reached by different picks, items whose weights share a
grid slot (24/25/26 kbps at 25 kbps granularity), float sums whose order
changes the last bit (0.1 + 0.2 against 0.3), capacity 0, capacity below
the lightest combination, and an empty class.

The example budget is the Hypothesis profile's (``tests/conftest.py``):
``--hypothesis-profile=deep`` runs 2,000 per test.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mckp import (
    _solve_mckp_dp_mandatory_python,
    kernel_stats,
    solve_mckp_dp_mandatory,
)

GRANULARITIES = (1, 7, 10, 25, 50)

#: Few distinct values, so equal totals are common; 0.1, 0.2 and 0.3 make
#: totals whose bits depend on the order of the additions.
VALUES = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0]) | st.floats(
    0, 20, allow_nan=False, allow_infinity=False
)

#: Grid-slot collisions at 25 kbps (and at 50 kbps one slot up), besides
#: arbitrary bitrates.
WEIGHTS = st.sampled_from([1, 24, 25, 26, 49, 50, 51, 75]) | st.integers(1, 400)


@st.composite
def fix_instances(draw):
    """Classes of one to six items (now and then none), a granularity,
    and a capacity: 0, below the lightest combination, or anywhere up
    to a bit past the heaviest one."""
    classes = []
    for _ in range(draw(st.integers(0, 5))):
        size = draw(st.integers(1, 6)) if draw(st.integers(0, 9)) else 0
        items = st.lists(st.tuples(WEIGHTS, VALUES), min_size=size, max_size=size)
        classes.append(draw(items))
    granularity = draw(st.sampled_from(GRANULARITIES))
    floor = sum(min((w for w, _ in cls), default=0) for cls in classes)
    heaviest = sum(max((w for w, _ in cls), default=0) for cls in classes)
    capacity = draw(
        st.just(0)
        | st.integers(0, max(floor - 1, 0))
        | st.integers(floor, heaviest + 2 * granularity)
    )
    return classes, capacity, granularity


def _both(classes, capacity, granularity):
    sparse = solve_mckp_dp_mandatory(classes, capacity, granularity)
    oracle = _solve_mckp_dp_mandatory_python(classes, capacity, granularity)
    assert pickle.dumps(sparse) == pickle.dumps(oracle), (
        classes,
        capacity,
        granularity,
    )
    return sparse


@given(fix_instances())
@settings(deadline=None)
def test_sparse_fix_dp_equals_the_oracle(instance):
    # Every call counts one mandatory-pick solve, on every return path.
    stats = kernel_stats()
    before = stats.solves["mandatory"]
    _both(*instance)
    assert stats.solves["mandatory"] == before + 1


def test_the_forced_shapes_answer_as_documented():
    # 0.1 + 0.2 (= 0.30000000000000004) at 30 kbps beats 0.3 + 0.0 at
    # 29 kbps; in exact arithmetic the tie would go to the lighter pair.
    sol = _both([[(20, 0.1), (24, 0.3)], [(10, 0.2), (5, 0.0)]], 30, 1)
    assert sol.picks == (0, 0) and sol.total_value == 0.1 + 0.2
    # Two picks reach 3.0 in the same column: the cell keeps the first
    # item of the last class that reaches it.
    sol = _both([[(25, 1.0), (50, 2.0)], [(50, 2.0), (25, 1.0)]], 75, 25)
    assert sol.picks == (0, 0)
    # 24 and 25 kbps share one slot at g = 25 and 26 kbps takes two: the
    # first of the equal one-slot items wins.
    sol = _both([[(24, 1.0), (25, 1.0), (26, 1.5)], [(26, 0.5), (24, 0.5)]], 50, 25)
    assert sol.picks == (0, 1) and sol.total_weight == 48
    # Below the 60 kbps floor, an empty class, capacity 0: no fix.
    assert _both([[(30, 1.0), (40, 2.0)], [(30, 1.0)]], 59, 10) is None
    assert _both([[(30, 1.0)], [], [(5, 1.0)]], 100, 1) is None
    assert _both([[(10, 0.1)], [(10, 0.2)]], 0, 1) is None
