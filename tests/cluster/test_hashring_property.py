"""Property test: the ring moves only the keys it must, under any churn.

The ring's whole value as the cluster's homing rule is minimal movement — adding a
shard steals keys only *for* the new shard, killing one moves keys only
*off* the victim, and every key untouched by the change keeps its home.
Hypothesis drives a random mixed add/kill churn sequence and checks the
property after every single step.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import ConsistentHashRing

KEYS = [f"meeting-{i}" for i in range(120)]
POOL = [f"shard-{i}" for i in range(8)]

# A churn program: (op, shard-index) pairs over a fixed shard pool.
OPS = st.lists(
    st.tuples(st.sampled_from(["add", "kill"]), st.integers(0, len(POOL) - 1)),
    min_size=1,
    max_size=12,
)


def assignment(ring):
    return {key: ring.node_for(key) for key in KEYS}


@settings(max_examples=50, deadline=None)
@given(initial=st.integers(2, 4), ops=OPS)
def test_every_churn_step_moves_only_the_necessary_keys(initial, ops):
    ring = ConsistentHashRing(POOL[:initial])
    members = set(POOL[:initial])
    before = assignment(ring)
    for op, idx in ops:
        shard = POOL[idx]
        if op == "add":
            if shard in members:
                continue
            ring.add_node(shard)
            members.add(shard)
            after = assignment(ring)
            # Growth: keys move only TO the new shard; everyone else stays.
            for key in KEYS:
                if after[key] != before[key]:
                    assert after[key] == shard, (key, before[key], after[key])
        else:
            if shard not in members or len(members) == 1:
                continue
            ring.remove_node(shard)
            members.remove(shard)
            after = assignment(ring)
            # Death: only the victim's keys move, and never back to it.
            for key in KEYS:
                if after[key] != before[key]:
                    assert before[key] == shard, (key, before[key], after[key])
                assert after[key] != shard
        assert set(after.values()) <= members
        before = after


@settings(max_examples=50, deadline=None)
@given(ops=OPS)
def test_churn_round_trip_restores_the_original_assignment(ops):
    """A ring rebuilt with the same final membership places identically —
    membership, not history, determines placement."""
    ring = ConsistentHashRing(POOL[:3])
    members = set(POOL[:3])
    for op, idx in ops:
        shard = POOL[idx]
        if op == "add" and shard not in members:
            ring.add_node(shard)
            members.add(shard)
        elif op == "kill" and shard in members and len(members) > 1:
            ring.remove_node(shard)
            members.remove(shard)
    fresh = ConsistentHashRing(sorted(members))
    assert assignment(ring) == assignment(fresh)
