"""Property tests: structural invariants of trace assembly.

Hypothesis drives the assembler with arbitrary interleaved, duplicated
and out-of-order event logs — including adversarial ``parent_cid`` /
``batch`` attributes the real instrumentation never emits — and checks
the invariants the rest of the plane relies on:

1. **Acyclicity** — every assembled forest is finite: each node is
   visited exactly once by ``walk()``.
2. **Single ownership** — every fed event lands in exactly one tree
   (total events across the forest equals the number fed).
3. **Determinism** — the digest does not depend on feed order, and the
   conservation ledger holds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import events as ek
from repro.obs.events import Event
from repro.obs.tracing import assemble_trees

MEETINGS = ("m0", "m1")
CIDS = tuple(f"{m}#{n}" for m in MEETINGS for n in range(1, 5))

KINDS = (
    ek.INGRESS_ENQUEUED,
    ek.INGRESS_DEQUEUED,
    ek.INGRESS_SHED,
    ek.TIME_TRIGGER,
    ek.MEETING_REHOMED,
    ek.SOLVE_SERVED,
    ek.TMMBR_PUSH,
    ek.TMMBR_LOST,
    ek.SUBSCRIPTION_CHANGE,
    ek.FAULT_INJECTED,
)


@st.composite
def events(draw):
    kind = draw(st.sampled_from(KINDS))
    meeting = draw(st.sampled_from(MEETINGS))
    cid = draw(st.sampled_from(("",) + CIDS))
    t = draw(
        st.floats(
            min_value=0.0, max_value=100.0,
            allow_nan=False, allow_infinity=False,
        )
    )
    attrs = {}
    if draw(st.booleans()):
        attrs["parent_cid"] = draw(st.sampled_from(CIDS))
    if kind == ek.INGRESS_DEQUEUED:
        attrs["batch"] = draw(st.integers(min_value=0, max_value=5))
    return (t, kind, meeting, cid, attrs)


def materialize(rows):
    return [
        Event(t=t, seq=seq, kind=kind, meeting=meeting, cid=cid,
              attrs=dict(attrs))
        for seq, (t, kind, meeting, cid, attrs) in enumerate(rows)
    ]


event_logs = st.lists(events(), min_size=0, max_size=60)


@settings(max_examples=200, deadline=None)
@given(event_logs)
def test_forest_is_acyclic_and_every_node_unique(rows):
    traces = assemble_trees(materialize(rows))
    seen = set()
    for tree in traces.trees():
        for node in tree.walk():  # would not terminate on a cycle
            assert id(node) not in seen, "node reachable twice"
            seen.add(id(node))


@settings(max_examples=200, deadline=None)
@given(event_logs)
def test_every_event_lands_in_exactly_one_tree(rows):
    fed = materialize(rows)
    traces = assemble_trees(fed)
    held = [
        event
        for tree in traces.trees()
        for node in tree.walk()
        for event in node.events
    ]
    assert len(held) == len(fed)
    assert {id(e) for e in held} == {id(e) for e in fed}


@settings(max_examples=100, deadline=None)
@given(event_logs, st.randoms())
def test_digest_invariant_under_feed_order(rows, rng):
    fed = materialize(rows)
    shuffled = list(fed)
    rng.shuffle(shuffled)
    assert (
        assemble_trees(fed).digest()
        == assemble_trees(shuffled).digest()
    )


@settings(max_examples=100, deadline=None)
@given(event_logs)
def test_conservation_ledger_holds(rows):
    traces = assemble_trees(materialize(rows))
    assert traces.stats.assembled == len(traces.trees())
