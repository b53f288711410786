"""Property-based tests of the Merge and Reduction steps in isolation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import merge_publisher
from repro.core.reduction import fix_owner, is_fixable
from repro.core.solution import PolicyEntry
from repro.core.types import Resolution, StreamSpec

RESOLUTIONS = [Resolution.P180, Resolution.P360, Resolution.P720]


@st.composite
def request_sets(draw):
    """Random (subscribers, stream) request lists for one publisher: each
    pair is a group of one to three subscribers asking for one stream."""
    n = draw(st.integers(1, 8))
    out = []
    for k in range(n):
        res = draw(st.sampled_from(RESOLUTIONS))
        rate = draw(st.integers(100, 2000))
        subs = tuple(f"S{k}.{j}" for j in range(draw(st.integers(1, 3))))
        out.append((subs, StreamSpec(rate, res, float(rate))))
    return out


@given(request_sets())
@settings(max_examples=150, deadline=None)
def test_merge_invariants(asked):
    merged = merge_publisher(asked)
    # One entry per distinct requested resolution.
    assert set(merged) == {s.resolution for _, s in asked}
    for res, entry in merged.items():
        same_res = [s for _, s in asked if s.resolution == res]
        # Eq. 12: the merged bitrate is the minimum requested one...
        assert entry.bitrate_kbps == min(s.bitrate_kbps for s in same_res)
        # Eq. 11: ...broadcast to exactly the requesting subscribers.
        assert entry.audience == {
            sub for subs, s in asked if s.resolution == res for sub in subs
        }
        # Lowering-only: no subscriber's downlink can be violated by merge.
        assert all(
            entry.bitrate_kbps <= s.bitrate_kbps for s in same_res
        )


@st.composite
def owner_entries(draw):
    """Random policy entries + matching feasible set for one owner, on a
    random grid; now and then one entry's resolution has left the feasible
    set (an entry with no candidate)."""
    feasible = []
    entries = []
    used = set()
    for res in draw(
        st.lists(st.sampled_from(RESOLUTIONS), min_size=1, max_size=3, unique=True)
    ):
        rungs = sorted(
            draw(
                st.lists(
                    st.integers(50, 2000), min_size=1, max_size=4, unique=True
                )
            )
        )
        specs = []
        for r in rungs:
            while r in used:
                r += 1
            used.add(r)
            specs.append(StreamSpec(r, res, float(r)))
        chosen = draw(st.sampled_from(specs))
        entries.append(
            ("pub", res, PolicyEntry(chosen, frozenset({"X"})))
        )
        if draw(st.integers(0, 9)):
            feasible.extend(specs)
    budget = draw(st.integers(0, 5000))
    granularity = draw(st.sampled_from([1, 7, 25, 50]))
    return entries, {"pub": feasible}, budget, granularity


@given(owner_entries())
@settings(max_examples=400, deadline=None)
def test_fix_owner_invariants(data):
    entries, feasible, budget, granularity = data
    fixable = is_fixable(entries, feasible, budget, granularity)
    fixed = fix_owner(entries, feasible, budget, granularity)
    # Eq. 17, taken on the fix DP's grid, is exactly the feasibility
    # condition of the fix: Step 3 decides with it and fixes afterwards.
    assert (fixed is not None) == fixable
    if fixed is None:
        return
    # The fix keeps every (entity, resolution, audience), only lowers rates,
    # and lands within the budget.
    assert [(e, r) for e, r, _ in fixed] == [(e, r) for e, r, _ in entries]
    total = 0
    for (_, _, new), (_, _, old) in zip(fixed, entries):
        assert new.audience == old.audience
        assert new.bitrate_kbps <= old.bitrate_kbps
        assert new.resolution == old.resolution
        total += new.bitrate_kbps
    assert total <= budget
