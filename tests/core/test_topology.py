"""The topology a ``Problem`` shares with every picture over its edges.

A bandwidth report changes one ``Bandwidth``, never an edge, so the
rebuilt picture is handed the very ``Subscription`` objects of the one
before it and finds their indexes, Step-1 order, shape index and
fingerprint edge lines in a weak table keyed by edge identity.  What is
checked here: a picture that reused a topology and one that walked its
edges are indistinguishable, down to the error a bad input raises; an
entry lives exactly as long as a picture over it; and identity is only
ever read as "identical, hence equal".
"""

import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings

from repro.core import constraints
from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.ladder import paper_ladder
from repro.core.solver import GsoSolver, SolverConfig
from repro.core.types import Resolution

from .reference import reference_edge_indexes
from .test_constraints import (
    _ALIASES,
    _CLIENTS,
    _EDGES,
    _NAMES,
    _OWNERS,
    _PUBLISHERS,
    FAULTS,
    Name,
    _outcome,
)
from .test_memory import webinar_picture

LADDER = paper_ladder()
BUDGET = Bandwidth(1000, 1000)


def _view(problem):
    """Everything a caller can read off a ``Problem``."""
    names = sorted(set(_NAMES) | set(problem.clients))
    shape_of, edges_of = problem.shape_index()
    return {
        "inputs": (
            problem.feasible_streams,
            problem.bandwidth,
            problem.subscriptions,
            problem.aliases,
            problem.owners,
        ),
        "clients": problem.clients,
        "publishers": problem.publishers,
        "subscribers": problem.subscribers,
        "followed": {n: problem.followed_by(n) for n in names},
        "served": {n: problem.served_by(n) for n in names},
        "ordered": {n: problem.ordered_followed_by(n) for n in names},
        "shapes": (dict(shape_of), list(shape_of), list(edges_of)),
        "edges": {(a, b): problem.edge(a, b) for a in names for b in names},
        "entities": {n: problem.entities_of(n) for n in names},
        "fingerprints": [problem.fingerprint(g) for g in (1, 25)],
        "solution": pickle.dumps(
            GsoSolver(SolverConfig(granularity_kbps=25)).solve(problem)
        ),
    }


def _keeper(edges, aliases):
    """A valid picture over exactly these edges and aliases, or ``None``
    when the edges themselves are at fault and no picture can exist."""
    try:
        return Problem(
            {n: LADDER for n in _NAMES if n not in aliases},
            {n: BUDGET for n in _NAMES},
            edges,
            aliases,
        )
    except ValueError:
        return None


def _built(args):
    """``Problem(*args)`` as ``(view or error message, its topology)``."""
    outcome = _outcome(Problem, *args)
    if isinstance(outcome, str):
        return outcome, None
    return _view(outcome), outcome._topology


class TestReuseIsInvisible:
    @given(_PUBLISHERS, _CLIENTS, _EDGES, _ALIASES, _OWNERS)
    @settings(max_examples=200, deadline=None)
    def test_a_hit_and_a_walk_agree_on_everything(
        self, publishers, clients, edges, aliases, owners
    ):
        args = (
            {p: LADDER for p in sorted(publishers)},
            {c: BUDGET for c in sorted(clients)},
            edges,
            aliases,
            owners,
        )
        oracle = _outcome(reference_edge_indexes, *args)

        keeper = _keeper(edges, aliases)
        warm, reused = _built(args)
        if keeper is not None and reused is not None:
            assert reused is keeper._topology
        gone = None if keeper is None else weakref.ref(keeper._topology)
        del keeper, reused
        # No collection needed: reference counting frees the entry.
        assert gone is None or gone() is None

        cold, _ = _built(args)
        assert warm == cold
        if isinstance(oracle, str):
            assert cold == oracle
        else:
            followed, served = oracle
            assert cold["followed"] == {
                n: followed.get(n, []) for n in cold["followed"]
            }
            assert cold["subscribers"] == sorted(followed)
            for pub, into in served.items():
                assert cold["served"][pub] == into

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_each_fault_raises_its_message_beside_a_live_picture(self, fault):
        streams, bandwidth, edges, aliases, owners = FAULTS[fault]
        keeper = _keeper(edges, aliases or {})
        with pytest.raises(ValueError) as want:
            reference_edge_indexes(*FAULTS[fault])
        with pytest.raises(ValueError) as got:
            Problem(*FAULTS[fault])
        assert str(got.value) == str(want.value)
        del keeper

    def test_a_hit_rechecks_what_the_other_inputs_decide(self):
        edges = [Subscription("B", "A"), Subscription("C", "A")]
        streams = {"A": LADDER}
        everyone = {n: BUDGET for n in "ABC"}
        keeper = Problem(streams, everyone, edges)
        with pytest.raises(ValueError, match="subscriber 'C' has no bandwidth"):
            Problem(streams, {"A": BUDGET, "B": BUDGET}, edges)
        with pytest.raises(ValueError, match="unknown publisher 'A'"):
            Problem({"B": LADDER}, everyone, edges)
        # The live entry is untouched by the pictures that failed beside it.
        assert Problem(streams, everyone, edges)._topology is keeper._topology


class TestLifetime:
    def test_the_entry_goes_with_its_last_picture(self):
        gc.collect()
        before = len(constraints._TOPOLOGIES)
        first = webinar_picture({})
        second = webinar_picture({"V042": 400})
        assert second._topology is first._topology
        assert len(constraints._TOPOLOGIES) == before + 1
        del first
        assert len(constraints._TOPOLOGIES) == before + 1
        gc.disable()
        try:
            del second
            # Reference counting alone: no cycle through the table.
            assert len(constraints._TOPOLOGIES) == before
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_recycled_addresses_never_read_a_stale_topology(self):
        # An unshared edge is a fresh object every round, and the allocator
        # hands the address of the round before out again: the same key
        # over another edge.
        def one_round(publisher):
            edges = [Subscription(Name("S"), Name(publisher))]
            picture = Problem(
                {"P0": LADDER, "P1": LADDER},
                {"S": BUDGET, "P0": BUDGET, "P1": BUDGET},
                edges,
            )
            assert picture.followed_by("S") == edges
            assert picture.served_by(publisher) == edges
            assert picture.served_by("P0" if publisher == "P1" else "P1") == []
            return id(edges[0])

        keys = [one_round(f"P{k % 2}") for k in range(40)]
        assert len(set(keys)) < len(keys), "no address was reused: nothing at stake"


class TestWhatSharesATopology:
    def test_one_bandwidth_apart_shares(self):
        old, new = webinar_picture({}), webinar_picture({"V042": 400})
        assert new._topology is old._topology
        assert new.fingerprint(25) != old.fingerprint(25)
        assert new.shape_index() is old.shape_index()
        assert new.ordered_followed_by("V042") is old.ordered_followed_by("V042")

    def test_one_edge_apart_does_not(self):
        old = webinar_picture({})
        edges = list(old.subscriptions)
        edges[-1] = Subscription(
            edges[-1].subscriber, edges[-1].publisher, Resolution.P360
        )
        new = Problem(old.feasible_streams, old.bandwidth, edges)
        assert new._topology is not old._topology
        assert new.ordered_followed_by("V109") != old.ordered_followed_by("V109")
        shorter = Problem(old.feasible_streams, old.bandwidth, edges[:-1])
        assert shorter._topology is not new._topology
        assert len(shorter.followed_by("V109")) == 7

    def test_edge_order_is_part_of_the_key(self):
        # Index insertion order numbers the shapes, so a permuted edge
        # list is another topology.
        old = webinar_picture({})
        new = Problem(
            old.feasible_streams, old.bandwidth, reversed(old.subscriptions)
        )
        assert new._topology is not old._topology
        assert new.fingerprint(25) == old.fingerprint(25)
        assert list(new.shape_index()[0]) == list(old.shape_index()[0])[::-1]

    def test_one_alias_apart_does_not(self):
        streams = {"A": LADDER, "B": LADDER}
        budgets = {n: BUDGET for n in "ABC"}
        edges = [Subscription("C", "A"), Subscription("C", "X")]
        to_a = Problem(streams, budgets, edges, aliases={"X": "A"})
        to_b = Problem(streams, budgets, edges, aliases={"X": "B"})
        again = Problem(streams, budgets, edges, aliases={"X": "A"})
        assert to_b._topology is not to_a._topology
        assert again._topology is to_a._topology
        assert len(to_a.served_by("A")) == 2 and len(to_b.served_by("A")) == 1
        # Alias order is not: the map is read by key.
        two = {"X": "A", "Y": "B"}
        forth = Problem(streams, budgets, edges, aliases=two)
        back = Problem(streams, budgets, edges, aliases=dict(reversed(two.items())))
        assert back._topology is forth._topology


class TestUnsharedEdges:
    def test_equal_edges_that_are_other_objects_build_their_own(self):
        def edges():
            return [
                Subscription(Name("B"), Name("A")),
                Subscription(Name("C"), Name("A")),
            ]

        streams = {"A": LADDER}
        budgets = {n: BUDGET for n in "ABC"}
        mine, yours = edges(), edges()
        assert all(a is not b and a == b for a, b in zip(mine, yours))
        first = Problem(streams, budgets, mine)
        second = Problem(streams, budgets, yours)
        assert first._topology is not second._topology
        assert Problem(streams, budgets, mine)._topology is first._topology
        plain = Problem(
            streams, budgets, [Subscription("B", "A"), Subscription("C", "A")]
        )
        assert _view(first) == _view(second)
        # Equal to the shared-edge picture too, but for the id class that
        # the solution's pickle spells out.
        mine, shared = _view(first), _view(plain)
        assert pickle.loads(mine.pop("solution")) == pickle.loads(
            shared.pop("solution")
        )
        assert mine == shared


class TestRoundTrip:
    """``Problem.__reduce__`` goes back through the constructor."""

    @pytest.mark.parametrize(
        "clone",
        [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_a_copy_is_equal_and_rejoins_the_live_topology(self, clone):
        streams = {"A": LADDER, "A:screen": LADDER, "B": LADDER}
        original = Problem(
            streams,
            {n: Bandwidth(900, 1200, 64) for n in "ABC"},
            [
                Subscription("C", "A"),
                Subscription("C", "A#v", Resolution.P180),
                Subscription("B", "A:screen"),
                Subscription("A", "B", Resolution.P360),
            ],
            aliases={"A#v": "A"},
            owners={"A:screen": "A"},
        )
        twin = clone(original)
        assert twin is not original and type(twin) is Problem
        assert twin._topology is original._topology
        assert _view(twin) == _view(original)
        assert twin.feasible_streams is not original.feasible_streams
        assert twin.bandwidth is not original.bandwidth

    def test_derived_state_is_not_pickled(self):
        picture = webinar_picture({})
        bare = pickle.dumps(picture)
        picture.fingerprint(25)
        picture.shape_index()
        for viewer in picture.subscribers:
            picture.ordered_followed_by(viewer)
        assert pickle.dumps(picture) == bare
        # 34,950 bytes when the instance dict, indexes included, went in.
        assert len(bare) < 20_000
        twin = pickle.loads(bare)
        assert twin._fingerprints == {}
        assert twin.fingerprint(25) == picture.fingerprint(25)
