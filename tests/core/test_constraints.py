"""Unit tests for repro.core.constraints."""

import copy
import dataclasses
import gc
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import constraints
from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.ladder import paper_ladder
from repro.core.types import Resolution, StreamSpec, validate_feasible_set

from .reference import reference_edge_indexes
from .test_incremental import GENERATORS


@dataclasses.dataclass(frozen=True)
class BandwidthRef:
    """The frozen dataclass ``Bandwidth`` was; what it still has to equal."""

    uplink_kbps: int
    downlink_kbps: int
    audio_protection_kbps: int = 0


@dataclasses.dataclass(frozen=True)
class SubscriptionRef:
    subscriber: str
    publisher: str
    max_resolution: Resolution = Resolution.P720


# The generated repr prints the class's qualified name.
BandwidthRef.__qualname__ = "Bandwidth"
SubscriptionRef.__qualname__ = "Subscription"


class Name(str):
    """A ``str`` subclass: equal to, but not, the plain string."""


#: ints, floats and bools that compare equal across types (1000 ==
#: 1000.0, 1 == True) next to ones that do not.
KBPS = st.one_of(
    st.integers(0, 10**7),
    st.floats(0, 1e7, allow_nan=False).map(lambda x: float(round(x))),
    st.floats(0, 1e7, allow_nan=False),
    st.booleans(),
)
IDS = st.one_of(
    st.text("abAB#:", max_size=3),
    st.text("ab", max_size=2).map(Name),
    st.integers(0, 3),
    st.tuples(st.text("ab", max_size=1)),
)
RUNGS = st.sampled_from(sorted(Resolution))


def same_fields(value, given):
    """Every field equals what the caller gave and has its exact type."""
    return all(
        getattr(value, name) == getattr(given, name)
        and type(getattr(value, name)) is type(getattr(given, name))
        for name in value.__slots__
    )


def assert_frozen(value):
    """Set and delete raise on every field and on a new name; nothing moved."""
    fields = value.__reduce__()[1]
    for name in value.__slots__ + ("new",):
        with pytest.raises(dataclasses.FrozenInstanceError, match=name):
            setattr(value, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=name):
            delattr(value, name)
    assert value.__reduce__()[1] == fields


def assert_copies_go_back_through_the_constructor(value, shared):
    """pickle, copy and deepcopy give the shared object when there is one,
    and an equal value with the caller's field types when there is not."""
    for clone in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert same_fields(clone, value)
        assert (clone is value) == shared


def two_client_problem(**kwargs):
    ladder = paper_ladder()
    return Problem(
        feasible_streams={"A": ladder, "B": ladder},
        bandwidth={"A": Bandwidth(5000, 5000), "B": Bandwidth(5000, 5000)},
        subscriptions=[Subscription("B", "A"), Subscription("A", "B")],
        **kwargs,
    )


class TestBandwidth:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Bandwidth(-1, 100)
        with pytest.raises(ValueError):
            Bandwidth(100, -1)
        with pytest.raises(ValueError):
            Bandwidth(100, 100, audio_protection_kbps=-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        # NaN used to be accepted (it fails every `< 0` comparison) and
        # "solved" silently; inf died deep inside the DP.
        for args in ((bad, 1000), (1000, bad), (1000, 1000, bad)):
            with pytest.raises(ValueError, match="finite"):
                Bandwidth(*args)

    def test_audio_protection_subtracts(self):
        bw = Bandwidth(1000, 2000, audio_protection_kbps=64)
        assert bw.effective_uplink_kbps == 936
        assert bw.effective_downlink_kbps == 1936

    def test_audio_protection_floors_at_zero(self):
        bw = Bandwidth(50, 50, audio_protection_kbps=64)
        assert bw.effective_uplink_kbps == 0
        assert bw.effective_downlink_kbps == 0

    def test_rejections_repeat(self):
        # Nothing invalid is ever put in the table: the second
        # construction validates again.
        for _ in range(2):
            for args in ((-1, 100), (100, -1), (100, 100, -1), (float("nan"), 1)):
                with pytest.raises(ValueError):
                    Bandwidth(*args)

    def test_equal_ints_are_one_object(self):
        first = Bandwidth(1000, 2000, 64)
        assert Bandwidth(1000, 2000, 64) is first
        assert Bandwidth(1000, 2000, audio_protection_kbps=64) is first
        assert (
            Bandwidth(uplink_kbps=1000, downlink_kbps=2000, audio_protection_kbps=64)
            is first
        )
        assert Bandwidth(1000, 2000) is Bandwidth(1000, 2000, 0)
        assert Bandwidth(1000, 2000) is not first

    def test_equal_values_of_another_type_do_not_alias(self):
        shared = Bandwidth(1000, 5)
        as_float = Bandwidth(1000.0, 5)
        assert as_float == shared and as_float is not shared
        assert type(as_float.uplink_kbps) is float
        assert type(Bandwidth(1000, 5).uplink_kbps) is int
        assert Bandwidth(1, 1) is not Bandwidth(True, 1)
        assert Bandwidth(True, 1).uplink_kbps is True
        assert type(Bandwidth(1, 1).uplink_kbps) is int

    @given(KBPS, KBPS, KBPS)
    def test_is_the_frozen_dataclass_it_was(self, up, down, protection):
        ref = BandwidthRef(up, down, protection)
        value = Bandwidth(up, down, protection)
        assert same_fields(value, ref)
        assert repr(value) == repr(ref)
        assert hash(value) == hash(ref)
        assert value == Bandwidth(up, down, protection)
        assert value != ref and value != (up, down, protection)
        if protection == 0 and type(protection) is int:
            assert same_fields(Bandwidth(up, down), BandwidthRef(up, down))
        exact = all(type(x) is int for x in (up, down, protection))
        assert (Bandwidth(up, down, protection) is value) == exact

    @given(st.tuples(KBPS, KBPS, KBPS), st.tuples(KBPS, KBPS, KBPS))
    @example((1000, 5, 0), (1000.0, 5, False))
    def test_equality_is_by_value(self, a, b):
        assert (Bandwidth(*a) == Bandwidth(*b)) == (BandwidthRef(*a) == BandwidthRef(*b))
        if Bandwidth(*a) == Bandwidth(*b):
            assert hash(Bandwidth(*a)) == hash(Bandwidth(*b))

    def test_frozen(self):
        assert_frozen(Bandwidth(1000, 2000, 64))
        assert_frozen(Bandwidth(1000.0, 2000))

    @given(KBPS, KBPS, KBPS)
    def test_copies_go_back_through_the_constructor(self, up, down, protection):
        value = Bandwidth(up, down, protection)
        assert_copies_go_back_through_the_constructor(
            value, shared=Bandwidth(up, down, protection) is value
        )

    def test_an_entry_goes_with_its_last_holder(self):
        key = (123_456, 654_321, 7)
        holders = [Bandwidth(*key), Bandwidth(*key)]
        assert constraints._BANDWIDTHS[key] is holders[0]
        holders.pop()
        assert key in constraints._BANDWIDTHS
        holders.pop()
        gc.collect()
        assert key not in constraints._BANDWIDTHS


class TestSubscription:
    def test_rejects_self_subscription(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="itself"):
                Subscription("A", "A")
            with pytest.raises(ValueError, match="itself"):
                Subscription(3, 3)

    def test_default_cap_is_720(self):
        assert Subscription("A", "B").max_resolution == Resolution.P720

    def test_coerces_the_cap(self):
        # A bare 720 used to be kept; GsoSolver solved it and
        # Problem.fingerprint died on ``.value``.
        edge = Subscription("a", "b", 720)
        assert edge.max_resolution is Resolution.P720
        assert edge is Subscription("a", "b", Resolution.P720)
        ladder = paper_ladder()
        problem = Problem(
            {"b": ladder}, {"a": Bandwidth(1, 1), "b": Bandwidth(1, 1)}, [edge]
        )
        assert problem.fingerprint().startswith(Problem.FINGERPRINT_SCHEMA)

    @pytest.mark.parametrize("cap", [1234, 0, -720, True, 720.5, "720", None])
    def test_rejects_a_cap_that_is_not_a_rung(self, cap):
        for _ in range(2):
            with pytest.raises(ValueError):
                Subscription("a", "b", cap)

    def test_equal_edges_are_one_object(self):
        first = Subscription("a", "b", Resolution.P360)
        assert Subscription("a", "b", Resolution.P360) is first
        assert Subscription("a", "b", max_resolution=Resolution.P360) is first
        assert (
            Subscription(subscriber="a", publisher="b", max_resolution=360) is first
        )
        assert Subscription("a", "b") is Subscription("a", "b", Resolution.P720)
        assert Subscription("a", "b") is not first
        assert Subscription("b", "a", Resolution.P360) is not first

    def test_ids_are_one_string_object_each(self):
        # pickle memoises by identity; see the constructor.
        name = "".join(["pub", "lisher"])
        again = "".join(["pub", "lisher"])
        assert name is not again
        edges = [Subscription("x", name), Subscription("y", again)]
        assert edges[0].publisher is edges[1].publisher

    @given(IDS, IDS, RUNGS)
    def test_is_the_frozen_dataclass_it_was(self, sub, pub, cap):
        if sub == pub:
            with pytest.raises(ValueError, match="itself"):
                Subscription(sub, pub, cap)
            return
        ref = SubscriptionRef(sub, pub, cap)
        value = Subscription(sub, pub, cap)
        assert same_fields(value, ref)
        assert repr(value) == repr(ref)
        assert hash(value) == hash(ref)
        assert value == Subscription(sub, pub, cap)
        assert value != ref and value != (sub, pub, cap)
        if cap is Resolution.P720:
            assert same_fields(Subscription(sub, pub), SubscriptionRef(sub, pub))
        exact = type(sub) is str and type(pub) is str
        assert (Subscription(sub, pub, cap) is value) == exact

    @given(st.tuples(IDS, IDS, RUNGS), st.tuples(IDS, IDS, RUNGS))
    @example(("a", "b", Resolution.P720), (Name("a"), "b", Resolution.P720))
    def test_equality_is_by_value(self, a, b):
        if a[0] == a[1] or b[0] == b[1]:
            return
        assert (Subscription(*a) == Subscription(*b)) == (
            SubscriptionRef(*a) == SubscriptionRef(*b)
        )
        if Subscription(*a) == Subscription(*b):
            assert hash(Subscription(*a)) == hash(Subscription(*b))

    def test_frozen(self):
        assert_frozen(Subscription("a", "b"))
        assert_frozen(Subscription(Name("a"), "b"))

    @given(IDS, IDS, RUNGS)
    def test_copies_go_back_through_the_constructor(self, sub, pub, cap):
        if sub == pub:
            return
        value = Subscription(sub, pub, cap)
        assert_copies_go_back_through_the_constructor(
            value, shared=Subscription(sub, pub, cap) is value
        )

    def test_client_id_churn_leaves_nothing_behind(self):
        gc.collect()
        before = len(constraints._SUBSCRIPTIONS)
        edges = [
            Subscription(f"churn-{k}", f"churn-{k + 1}", Resolution.P180)
            for k in range(500)
        ]
        assert len(constraints._SUBSCRIPTIONS) == before + 500
        key = ("churn-7", "churn-8", Resolution.P180)
        assert constraints._SUBSCRIPTIONS[key] is edges[7]
        del edges
        gc.collect()
        assert key not in constraints._SUBSCRIPTIONS
        assert len(constraints._SUBSCRIPTIONS) == before


class TestProblemValidation:
    def test_valid_problem_builds(self):
        p = two_client_problem()
        assert p.publishers == ["A", "B"]
        assert p.subscribers == ["A", "B"]

    def test_rejects_duplicate_edges(self):
        ladder = paper_ladder()
        with pytest.raises(ValueError, match="duplicate"):
            Problem(
                {"A": ladder},
                {"A": Bandwidth(1, 1), "B": Bandwidth(1, 1)},
                [Subscription("B", "A"), Subscription("B", "A")],
            )

    def test_rejects_unknown_publisher(self):
        with pytest.raises(ValueError, match="unknown publisher"):
            Problem(
                {},
                {"B": Bandwidth(1, 1)},
                [Subscription("B", "A")],
            )

    def test_rejects_subscriber_without_bandwidth(self):
        ladder = paper_ladder()
        with pytest.raises(ValueError, match="no bandwidth"):
            Problem(
                {"A": ladder},
                {"A": Bandwidth(1, 1)},
                [Subscription("B", "A")],
            )

    def test_rejects_publisher_without_bandwidth(self):
        ladder = paper_ladder()
        with pytest.raises(ValueError, match="no bandwidth"):
            Problem({"A": ladder}, {}, [])

    def test_rejects_alias_with_own_feasible_set(self):
        ladder = paper_ladder()
        with pytest.raises(ValueError, match="feasible set"):
            Problem(
                {"A": ladder, "A#v": ladder},
                {"A": Bandwidth(1, 1)},
                [],
                aliases={"A#v": "A"},
            )

    def test_rejects_alias_to_unknown_target(self):
        with pytest.raises(ValueError, match="unknown publisher"):
            Problem(
                {},
                {"A": Bandwidth(1, 1)},
                [],
                aliases={"A#v": "X"},
            )

    def test_rejects_subscribing_own_alias(self):
        ladder = paper_ladder()
        with pytest.raises(ValueError, match="own alias"):
            Problem(
                {"A": ladder},
                {"A": Bandwidth(1, 1)},
                [Subscription("A", "A#v")],
                aliases={"A#v": "A"},
            )

    def test_rejects_owner_without_bandwidth(self):
        ladder = paper_ladder()
        with pytest.raises(ValueError, match="no bandwidth"):
            Problem(
                {"A:screen": ladder},
                {},
                [],
                owners={"A:screen": "A"},
            )


def with_alias_and_screen_share(problem):
    """``problem`` plus one virtual publisher (a second, thumbnail edge
    from an existing follower) and one owned screen-share entity."""
    first, second = problem.publishers[:2]
    virtual, screen = f"{first}#v", f"{second}:screen"
    follower = next(e.subscriber for e in problem.served_by(first))
    watcher = next(e.subscriber for e in problem.served_by(second))
    return Problem(
        {**problem.feasible_streams, screen: problem.feasible_streams[second]},
        problem.bandwidth,
        problem.subscriptions
        + [
            Subscription(follower, virtual, Resolution.P180),
            Subscription(watcher, screen, Resolution.P720),
        ],
        aliases={virtual: first},
        owners={screen: second},
    )


_LADDER = paper_ladder()
_ONE = Bandwidth(1, 1)

#: One of each fault ``Problem`` rejects, as constructor arguments
#: ``(feasible_streams, bandwidth, subscriptions, aliases, owners)``.
FAULTS = {
    "alias with its own set": (
        {"A": _LADDER, "A#v": _LADDER}, {"A": _ONE}, [], {"A#v": "A"}, None,
    ),
    "alias to unknown": ({}, {"A": _ONE}, [], {"A#v": "X"}, None),
    "owner without bandwidth": (
        {"A:screen": _LADDER}, {}, [], None, {"A:screen": "A"},
    ),
    "duplicate pair": (
        {"A": _LADDER},
        {"A": _ONE, "B": _ONE},
        [Subscription("B", "A"), Subscription("B", "A", Resolution.P180)],
        None,
        None,
    ),
    "unknown publisher": ({}, {"B": _ONE}, [Subscription("B", "A")], None, None),
    "subscriber without bandwidth": (
        {"A": _LADDER}, {"A": _ONE}, [Subscription("B", "A")], None, None,
    ),
    "own alias": (
        {"A": _LADDER}, {"A": _ONE}, [Subscription("A", "A#v")], {"A#v": "A"}, None,
    ),
    "publisher without bandwidth": ({"A": _LADDER}, {}, [], None, None),
}

_NAMES = ["A", "B", "C", "A#v", "B:screen", "X"]


def _mostly(valid, anything):
    """A valid part three times in four, so that most drawn pictures carry
    zero to two faults and not five."""
    return st.one_of(st.just(valid), st.just(valid), st.just(valid), anything)


_PUBLISHERS = _mostly({"A", "B", "C", "B:screen"}, st.sets(st.sampled_from(_NAMES)))
_CLIENTS = _mostly({"A", "B", "C"}, st.sets(st.sampled_from(_NAMES)))
_ALIASES = _mostly(
    {"A#v": "A"},
    st.dictionaries(st.sampled_from(_NAMES), st.sampled_from(_NAMES), max_size=2),
)
_OWNERS = _mostly(
    {"B:screen": "B"},
    st.dictionaries(st.sampled_from(_NAMES), st.sampled_from(_NAMES), max_size=2),
)
_EDGES = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "C", "C", "C", "X"]),
        st.sampled_from(_NAMES),
        RUNGS,
    )
    .filter(lambda e: e[0] != e[1])
    .map(lambda e: Subscription(*e)),
    max_size=6,
)


def _outcome(build, *args):
    """What a constructor did: its result, or its ValueError's message."""
    try:
        return build(*args)
    except ValueError as error:
        return str(error)


class TestSinglePassConstructor:
    """The one loop that validates and indexes the edges does what the
    two loops of ``reference_edge_indexes`` did, fault for fault."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_each_fault_raises_with_its_message(self, fault):
        with pytest.raises(ValueError) as want:
            reference_edge_indexes(*FAULTS[fault])
        with pytest.raises(ValueError) as got:
            Problem(*FAULTS[fault])
        assert str(got.value) == str(want.value)

    @given(_PUBLISHERS, _CLIENTS, _EDGES, _ALIASES, _OWNERS)
    @settings(max_examples=300)
    def test_raises_iff_the_two_loop_validator_does(
        self, publishers, clients, edges, aliases, owners
    ):
        args = (
            {p: _LADDER for p in sorted(publishers)},
            {c: Bandwidth(1000, 1000) for c in sorted(clients)},
            edges,
            aliases,
            owners,
        )
        want = _outcome(reference_edge_indexes, *args)
        got = _outcome(Problem, *args)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, Problem)
            assert (got._topology.followed, got._topology.served) == want

    @pytest.mark.parametrize("extras", [False, True], ids=["plain", "alias+owner"])
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_indexes_equal_the_two_loop_ones(self, name, extras):
        p = GENERATORS[name]()
        if extras:
            p = with_alias_and_screen_share(p)
        followed, served = reference_edge_indexes(
            p.feasible_streams, p.bandwidth, p.subscriptions, p.aliases, p.owners
        )
        assert sorted(followed) == p.subscribers
        assert (p._topology.followed, p._topology.served) == (followed, served)
        # Same insertion order too: shape numbers follow it.
        assert list(p._topology.followed) == list(followed)
        for sub, edges in followed.items():
            assert p.followed_by(sub) == edges
            assert p.ordered_followed_by(sub) == tuple(
                sorted(edges, key=lambda e: (e.max_resolution, e.publisher))
            )
        for pub, edges in served.items():
            assert p.served_by(pub) == edges
        for virtual in p.aliases:
            assert p.served_by(virtual) == served[p.aliases[virtual]]
        shape_of, edges_of = p.shape_index()
        numbers = {}
        for sub in followed:
            key = tuple(
                (e.publisher, e.max_resolution) for e in p.ordered_followed_by(sub)
            )
            assert shape_of[sub] == numbers.setdefault(key, len(numbers))
            assert edges_of[shape_of[sub]][0].publisher == key[0][0]
        assert len(edges_of) == len(numbers)

    @pytest.mark.parametrize("extras", [False, True], ids=["plain", "alias+owner"])
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_fingerprint_is_the_parents(self, name, extras):
        p = GENERATORS[name]()
        if extras:
            p = with_alias_and_screen_share(p)
        assert p.fingerprint(25).split(":")[-1][:16] == FINGERPRINTS[name, extras]


class TestSharedLadder:
    """Publishers handed one ladder object validate it once and print it
    once, and still own a list each."""

    def test_one_validation_per_ladder_object(self, monkeypatch):
        calls = []

        def counting(streams):
            calls.append(streams)
            return validate_feasible_set(streams)

        monkeypatch.setattr(constraints, "validate_feasible_set", counting)
        ladder, other = paper_ladder(), paper_ladder()
        pubs = [f"P{k}" for k in range(8)]
        p = Problem(
            {**{pub: ladder for pub in pubs}, "Q": other},
            {pub: _ONE for pub in pubs + ["Q"]},
            [],
        )
        assert [id(c) for c in calls] == [id(ladder), id(other)]
        lists = [p.feasible_streams[pub] for pub in pubs + ["Q"]]
        assert len({id(streams) for streams in lists}) == 9
        assert all(streams == validate_feasible_set(ladder) for streams in lists)
        apart = Problem(
            {pub: paper_ladder() for pub in pubs + ["Q"]},
            {pub: _ONE for pub in pubs + ["Q"]},
            [],
        )
        assert p.fingerprint(25) == apart.fingerprint(25)

    def test_a_bad_shared_ladder_raises_what_it_raised(self):
        bad = [
            StreamSpec(300, Resolution.P180, 2.0),
            StreamSpec(300, Resolution.P360, 3.0),
        ]
        with pytest.raises(ValueError) as want:
            validate_feasible_set(bad)
        with pytest.raises(ValueError) as got:
            Problem({"A": paper_ladder(), "B": bad, "C": bad}, {}, [])
        assert str(got.value) == str(want.value)

    def test_ladders_built_on_the_fly_do_not_alias(self):
        class Fresh(dict):
            """Hands out a new list per item, each dead before the next."""

            def items(self):
                for pub, levels in super().items():
                    yield pub, paper_ladder()[:levels]

        p = Problem(Fresh(A=2, B=3, C=2), {n: _ONE for n in "ABC"}, [])
        assert [len(p.feasible_streams[n]) for n in "ABC"] == [2, 3, 2]


#: ``fingerprint(25)`` of every ``GENERATORS`` entry, without and with
#: ``with_alias_and_screen_share``, as the frozen-dataclass value types
#: and the two-loop constructor of commit 6078037 computed them.
FINGERPRINTS = {
    ("breakout", False): "743710c0da9197c0",
    ("breakout", True): "b832ea7aaf61a96f",
    ("fanout", False): "cef70f36ff180f4f",
    ("fanout", True): "8a5997416dc0338a",
    ("gallery", False): "91af78fb23d602e9",
    ("gallery", True): "0158594a23ca2fc6",
    ("mesh_large", False): "908ef59cd32d2529",
    ("mesh_large", True): "2c9645fdd8cbd20a",
    ("mesh_small", False): "192c47216eceb63a",
    ("mesh_small", True): "d12078b3d06d3d24",
}


class TestTopologyAccessors:
    def test_followed_and_served(self):
        p = two_client_problem()
        assert [e.publisher for e in p.followed_by("A")] == ["B"]
        assert [e.subscriber for e in p.served_by("A")] == ["B"]

    def test_edge_lookup(self):
        p = two_client_problem()
        assert p.edge("A", "B") is not None
        assert p.edge("A", "nope") is None

    def test_feasible_for_edge_caps_resolution(self):
        ladder = paper_ladder()
        p = Problem(
            {"A": ladder},
            {"A": Bandwidth(1, 1), "B": Bandwidth(1, 1)},
            [Subscription("B", "A", Resolution.P180)],
        )
        edge = p.edge("B", "A")
        feasible = p.feasible_for_edge(edge)
        assert all(s.resolution <= Resolution.P180 for s in feasible)

    def test_feasible_for_edge_uses_restriction(self):
        p = two_client_problem()
        edge = p.edge("B", "A")
        restricted = {"A": [], "B": []}
        assert p.feasible_for_edge(edge, restricted=restricted) == []

    def test_canonical_and_owner_identity_by_default(self):
        p = two_client_problem()
        assert p.canonical("A") == "A"
        assert p.owner("A") == "A"

    def test_alias_resolution(self):
        ladder = paper_ladder()
        p = Problem(
            {"A": ladder},
            {"A": Bandwidth(1, 1), "B": Bandwidth(1, 1)},
            [Subscription("B", "A#v")],
            aliases={"A#v": "A"},
        )
        assert p.canonical("A#v") == "A"
        assert [e.subscriber for e in p.served_by("A")] == ["B"]

    def test_owner_and_entities(self):
        ladder = paper_ladder()
        p = Problem(
            {"A": ladder, "A:screen": ladder},
            {"A": Bandwidth(1, 1), "B": Bandwidth(1, 1)},
            [Subscription("B", "A:screen")],
            owners={"A:screen": "A"},
        )
        assert p.owner("A:screen") == "A"
        assert p.entities_of("A") == ["A", "A:screen"]
        assert "A" in p.clients and "B" in p.clients

    def test_budgets_respect_audio_protection(self):
        ladder = paper_ladder()
        p = Problem(
            {"A": ladder},
            {"A": Bandwidth(1000, 2000, audio_protection_kbps=100)},
            [],
        )
        assert p.uplink_budget("A") == 900
        assert p.downlink_budget("A") == 1900
