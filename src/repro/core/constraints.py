"""Constraint model for the global stream orchestration problem.

Sec. 4.1 defines three constraint families the controller must satisfy
simultaneously:

* **network bandwidth** — per client, the sum of published stream bitrates
  must not exceed the uplink ``B_u_i``; the sum of subscribed bitrates must
  not exceed the downlink ``B_d_i``;
* **codec capability** — a publisher's concurrently sent streams must have
  pairwise distinct resolutions (``Res_i(s1) != Res_i(s2)``);
* **subscription** — subscriber ``i'`` follows publishers ``N_i'`` with a
  per-edge maximum resolution ``R_ii'``, and takes at most one stream per
  followed publisher.

Two indirections support Sec. 4.4's advanced features:

* **aliases** — a *virtual publisher* ``X'`` is a separate publisher during
  Step 1 (so a subscriber may take a second stream from the same source,
  e.g. speaker-first thumbnail + close-up) but is merged back into ``X`` at
  the beginning of Step 2.  ``aliases[X'] == X``.
* **owners** — several publisher entities can belong to one physical client
  (a camera source and a screen-share source have different SSRCs and are
  never merged, but both draw on the same client uplink).
  ``owners[X_screen] == X``.

This module bundles those inputs into a single :class:`Problem` instance
consumed by the solver, plus validation helpers used by both the tests and
the brute-force oracle.
"""

from __future__ import annotations

import hashlib
import math
import sys
import weakref
from dataclasses import FrozenInstanceError
from operator import attrgetter, is_
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    final,
)

from .types import (
    ClientId,
    Resolution,
    StreamSpec,
    streams_up_to_resolution,
    validate_feasible_set,
)


class _SharedValue:
    """An immutable value object that may be shared between its holders.

    What ``@dataclass(frozen=True)`` gave, hand-written because a
    generated ``__init__`` would run again on the instance ``__new__``
    found in the table: by-value equality and hash, the dataclass
    ``repr``, :class:`~dataclasses.FrozenInstanceError` on attribute set
    and delete.  Subclasses list their fields in ``__slots__``, build
    ``_values`` over them and look themselves up in ``__new__``;
    ``__reduce__`` goes back through the constructor, so an unpickled or
    copied value is the shared one again.
    """

    __slots__ = ("__weakref__",)

    #: ``operator.attrgetter`` over the fields, in declaration order.
    _values: Callable[["_SharedValue"], tuple]

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self is other or self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._values(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)


#: The live values, by field tuple.  An entry goes when its last holder
#: goes; nothing is kept alive, so nothing needs a capacity.
_BANDWIDTHS: "weakref.WeakValueDictionary[tuple, Bandwidth]" = weakref.WeakValueDictionary()
_SUBSCRIPTIONS: "weakref.WeakValueDictionary[tuple, Subscription]" = weakref.WeakValueDictionary()


@final
class Bandwidth(_SharedValue):
    """Uplink/downlink bandwidth constraints of one client, in kbps.

    ``audio_protection_kbps`` is subtracted from both directions before the
    solver sees them — the Sec. 7 lesson: *"when we obtain a bandwidth
    measurement, we subtract a 'protection' bandwidth from it to further
    avoid video streams eating the audio stream's bandwidth."*

    Immutable and shared by value: constructing a value that is alive
    anywhere in the process returns that same object, so a meeting
    rebuilt after one report allocates the one ``Bandwidth`` that
    changed.  Only all-``int`` values are shared (``1000 == 1000.0 ==
    True`` must not alias); anything else is validated and built
    unshared, with the field values the caller gave.
    """

    __slots__ = ("uplink_kbps", "downlink_kbps", "audio_protection_kbps")
    _values = attrgetter(*__slots__)

    uplink_kbps: int
    downlink_kbps: int
    audio_protection_kbps: int

    def __new__(
        cls,
        uplink_kbps: int,
        downlink_kbps: int,
        audio_protection_kbps: int = 0,
    ) -> "Bandwidth":
        key = (uplink_kbps, downlink_kbps, audio_protection_kbps)
        shareable = (
            type(uplink_kbps) is int
            and type(downlink_kbps) is int
            and type(audio_protection_kbps) is int
        )
        if shareable:
            shared = _BANDWIDTHS.get(key)
            if shared is not None:
                return shared
        # NaN fails every comparison below, and an infinite budget has no
        # integer capacity grid: reject both where reports enter.
        if not (
            math.isfinite(uplink_kbps)
            and math.isfinite(downlink_kbps)
            and math.isfinite(audio_protection_kbps)
        ):
            raise ValueError("bandwidths must be finite")
        if uplink_kbps < 0 or downlink_kbps < 0:
            raise ValueError("bandwidths must be non-negative")
        if audio_protection_kbps < 0:
            raise ValueError("audio protection must be non-negative")
        self = object.__new__(cls)
        object.__setattr__(self, "uplink_kbps", uplink_kbps)
        object.__setattr__(self, "downlink_kbps", downlink_kbps)
        object.__setattr__(self, "audio_protection_kbps", audio_protection_kbps)
        if shareable:
            _BANDWIDTHS[key] = self
        return self

    @property
    def effective_uplink_kbps(self) -> int:
        """Uplink budget available to video after audio protection."""
        return max(0, self.uplink_kbps - self.audio_protection_kbps)

    @property
    def effective_downlink_kbps(self) -> int:
        """Downlink budget available to video after audio protection."""
        return max(0, self.downlink_kbps - self.audio_protection_kbps)


@final
class Subscription(_SharedValue):
    """One directed subscription edge: ``subscriber`` follows ``publisher``.

    Attributes:
        subscriber: the receiving client (``i'``).
        publisher: the sending entity (``i``) — may be a real publisher, a
            virtual publisher alias, or a secondary source like a screen
            share.
        max_resolution: ``R_ii'``, the maximum resolution the subscriber is
            willing to accept from this publisher (e.g. a thumbnail tile
            asks for 180p, the active-speaker tile for 720p).  Coerced to
            :class:`Resolution`.

    Immutable and shared by value like :class:`Bandwidth`; only edges
    whose two ids are exact ``str`` are shared.

    Raises:
        ValueError: on a self-subscription, or a cap that is not a rung
            of :class:`Resolution`.
    """

    __slots__ = ("subscriber", "publisher", "max_resolution")
    _values = attrgetter(*__slots__)

    subscriber: ClientId
    publisher: ClientId
    max_resolution: Resolution

    def __new__(
        cls,
        subscriber: ClientId,
        publisher: ClientId,
        max_resolution: Resolution = Resolution.P720,
    ) -> "Subscription":
        if max_resolution.__class__ is not Resolution:
            # The cap arrives from signaling as the caller gave it; a bare
            # 720 would alias Resolution.P720 in the table and break every
            # reader of ``.value``.
            max_resolution = Resolution(max_resolution)
        shareable = type(subscriber) is str and type(publisher) is str
        if shareable:
            shared = _SUBSCRIPTIONS.get((subscriber, publisher, max_resolution))
            if shared is not None:
                return shared
            # pickle memoises by identity: one string object per id keeps
            # equal content equal bytes once edges outlive their Problem.
            subscriber = sys.intern(subscriber)
            publisher = sys.intern(publisher)
        if subscriber == publisher:
            raise ValueError(f"client {subscriber!r} cannot subscribe to itself")
        self = object.__new__(cls)
        object.__setattr__(self, "subscriber", subscriber)
        object.__setattr__(self, "publisher", publisher)
        object.__setattr__(self, "max_resolution", max_resolution)
        if shareable:
            _SUBSCRIPTIONS[subscriber, publisher, max_resolution] = self
        return self


class _Topology:
    """What a meeting's edge list and alias map decide on their own.

    Built by :func:`_walk_edges` once per edge list and shared by every
    :class:`Problem` over it: a bandwidth report changes one
    :class:`Bandwidth`, never an edge, so the rebuilt picture finds the
    indexes, the Step-1 order and the shape index where the picture
    before it left them.  Nothing here is mutated once filled in.

    Attributes:
        edges: the edge tuple.  The table key is the ``id`` of each
            element, and owning them here is what keeps those ids from
            being recycled while the entry is alive.
        followed: ``N_i'``, the edges out of each subscriber.
        served: ``M_i``, the edges into each canonical publisher.
        subscribers: the subscribers, sorted.
        ordered: ``Problem.ordered_followed_by``'s tuples, filled on use.
        shapes: ``Problem.shape_index``'s pair, ``None`` until first use.
    """

    __slots__ = (
        "edges",
        "followed",
        "served",
        "subscribers",
        "ordered",
        "shapes",
        "__weakref__",
    )

    def __init__(
        self,
        edges: Tuple[Subscription, ...],
        followed: Dict[ClientId, List[Subscription]],
        served: Dict[ClientId, List[Subscription]],
    ) -> None:
        self.edges = edges
        self.followed = followed
        self.served = served
        self.subscribers: List[ClientId] = sorted(followed)
        self.ordered: Dict[ClientId, Tuple[Subscription, ...]] = {}
        self.shapes: Optional[
            Tuple[Dict[ClientId, int], List[Tuple[Subscription, ...]]]
        ] = None


#: The live topologies, by ``(id of every edge, sorted alias items)``.  Edge
#: identity is used one way only, identical implies equal: an entry owns
#: its edges, so an id in a live key names the object it named when the
#: key was made, and an entry whose last ``Problem`` went reads as a miss.
_TOPOLOGIES: "weakref.WeakValueDictionary[tuple, _Topology]" = weakref.WeakValueDictionary()


def _walk_edges(
    subscriptions: List[Subscription],
    known: Mapping[ClientId, object],
    bandwidths: Mapping[ClientId, Bandwidth],
    alias_of: Mapping[ClientId, ClientId],
) -> _Topology:
    """Validate the edges and fill both indexes, in one walk.

    Raises:
        ValueError: on a duplicate edge, an unknown publisher, a
            subscriber without a bandwidth entry or an own-alias edge,
            whichever the walk meets first.
    """
    # N_i' : publishers followed by each subscriber.
    followed: Dict[ClientId, List[Subscription]] = {}
    # M_i  : subscribers served by each publisher (canonical keys).
    served: Dict[ClientId, List[Subscription]] = {}
    seen: Dict[ClientId, Set[ClientId]] = {}
    for edge in subscriptions:
        subscriber = edge.subscriber
        publisher = edge.publisher
        followed_publishers = seen.get(subscriber)
        if followed_publishers is None:
            followed_publishers = seen[subscriber] = set()
            followed[subscriber] = []
        elif publisher in followed_publishers:
            raise ValueError(
                f"duplicate subscription {subscriber!r} -> "
                f"{publisher!r}; use virtual publishers for "
                f"multi-stream subscription"
            )
        followed_publishers.add(publisher)
        canonical = alias_of.get(publisher, publisher) if alias_of else publisher
        if canonical not in known:
            raise ValueError(
                f"subscription to unknown publisher {publisher!r}"
            )
        if subscriber not in bandwidths:
            raise ValueError(
                f"subscriber {subscriber!r} has no bandwidth entry"
            )
        if subscriber == canonical:
            raise ValueError(
                f"{subscriber!r} subscribes to its own alias {publisher!r}"
            )
        followed[subscriber].append(edge)
        served.setdefault(canonical, []).append(edge)
    return _Topology(tuple(subscriptions), followed, served)


class Problem:
    """One complete instance of the global orchestration problem.

    Args:
        feasible_streams: per *canonical* publisher entity, the feasible
            stream set ``S_i`` (validated: unique bitrates, QoE monotone
            within a resolution).  Virtual publishers (aliases) must NOT
            appear here — they share their target's set.
        bandwidth: per physical client, the bandwidth constraints.
        subscriptions: the subscription edges.  Duplicate
            (subscriber, publisher) pairs are rejected — multi-stream
            subscription is expressed through aliases (see
            :mod:`repro.core.virtual`).
        aliases: virtual publisher id -> canonical publisher id.  Virtual
            publishers exist only during Step 1; they are merged into their
            canonical target at Step 2.
        owners: publisher entity id -> owning client id, for entities (e.g.
            screen-share sources) that are not clients themselves.  Uplink
            budgets are enforced per owner.  Identity by default.

    A ``Problem`` is not mutated after construction; a changed meeting is
    a new ``Problem``.  The three derived values it caches (the edge
    indexes, the Step-1 edge order and the shape index) rely on it, and
    so does every holder that tells "same picture as last time" by object
    identity (a meeting's last-solve memo).  They depend on the edge list
    and the alias map alone and live on one private topology value per
    edge list, found again by every ``Problem`` built over the same edge
    *objects* and the same aliases while one such picture is alive; what
    :meth:`shape_index` and :meth:`ordered_followed_by` return may
    therefore be shared between pictures and is read-only.

    The :class:`Subscription` and :class:`Bandwidth` values inside are
    immutable and may be the very objects another ``Problem`` holds: a
    meeting rebuilt after one report shares every edge and every
    unchanged budget with the picture before it.  Their identity is
    never meaning, their equality is: nothing may tell two pictures, two
    clients or two edges apart by ``is`` on a value object.  The topology
    table reads identity one way only, identical edges are equal edges,
    and it may because an entry owns the edges its key names: while it
    is alive none of those ids can name another object, and once its
    last picture is gone it is gone too.

    Pickling and copying go back through the constructor with the five
    inputs, so a copy carries no derived state.

    Raises:
        ValueError: on dangling references or duplicate edges.
    """

    def __init__(
        self,
        feasible_streams: Mapping[ClientId, Sequence[StreamSpec]],
        bandwidth: Mapping[ClientId, Bandwidth],
        subscriptions: Iterable[Subscription],
        aliases: Optional[Mapping[ClientId, ClientId]] = None,
        owners: Optional[Mapping[ClientId, ClientId]] = None,
    ) -> None:
        # Publishers handed the same ladder object validate it once.  The
        # entry holds the object, so its id is not recycled within the call.
        validated: Dict[int, Tuple[object, List[StreamSpec]]] = {}
        self.feasible_streams: Dict[ClientId, List[StreamSpec]] = {}
        for pub, streams in feasible_streams.items():
            first = validated.get(id(streams))
            if first is None:
                ordered = validate_feasible_set(streams)
                validated[id(streams)] = (streams, ordered)
            else:
                ordered = list(first[1])
            self.feasible_streams[pub] = ordered
        self.bandwidth: Dict[ClientId, Bandwidth] = dict(bandwidth)
        self.subscriptions: List[Subscription] = list(subscriptions)
        self.aliases: Dict[ClientId, ClientId] = dict(aliases or {})
        self._owners: Dict[ClientId, ClientId] = dict(owners or {})

        for virtual, target in self.aliases.items():
            if virtual in self.feasible_streams:
                raise ValueError(
                    f"alias {virtual!r} must not have its own feasible set"
                )
            if target not in self.feasible_streams:
                raise ValueError(
                    f"alias {virtual!r} targets unknown publisher {target!r}"
                )
        for entity, owner in self._owners.items():
            if owner not in self.bandwidth:
                raise ValueError(
                    f"entity {entity!r} owned by {owner!r}, which has no "
                    f"bandwidth entry"
                )

        # The topology of a live picture over these very edges is reused
        # once what it cannot know is re-checked: every subscriber has a
        # budget and every served publisher a feasible set.  Anything else
        # takes the walk, which builds it or raises what it always raised.
        key = (
            tuple(map(id, self.subscriptions)),
            tuple(sorted(self.aliases.items())),
        )
        topology = _TOPOLOGIES.get(key)
        if (
            topology is None
            or not topology.followed.keys() <= self.bandwidth.keys()
            or not topology.served.keys() <= self.feasible_streams.keys()
        ):
            topology = _walk_edges(
                self.subscriptions,
                self.feasible_streams,
                self.bandwidth,
                self.aliases,
            )
            _TOPOLOGIES[key] = topology
        for pub in self.feasible_streams:
            if self.owner(pub) not in self.bandwidth:
                raise ValueError(f"publisher {pub!r} has no bandwidth entry")
        self._topology = topology

    def __reduce__(self):
        # Through the constructor, like the values inside: a copy carries no
        # derived state and finds the live topology of its edges again.
        return self.__class__, (
            self.feasible_streams,
            self.bandwidth,
            self.subscriptions,
            self.aliases,
            self._owners,
        )

    # ------------------------------------------------------------------ #
    # Identity resolution
    # ------------------------------------------------------------------ #

    def canonical(self, publisher: ClientId) -> ClientId:
        """Resolve a (possibly virtual) publisher id to its canonical id."""
        return self.aliases.get(publisher, publisher)

    @property
    def owners(self) -> Dict[ClientId, ClientId]:
        """The explicit entity -> owning-client map (copy)."""
        return dict(self._owners)

    def owner(self, publisher: ClientId) -> ClientId:
        """The physical client whose uplink a publisher entity consumes."""
        canonical = self.canonical(publisher)
        return self._owners.get(canonical, canonical)

    def entities_of(self, client: ClientId) -> List[ClientId]:
        """All canonical publisher entities owned by one client, sorted."""
        return sorted(
            pub for pub in self.feasible_streams if self.owner(pub) == client
        )

    # ------------------------------------------------------------------ #
    # Topology accessors
    # ------------------------------------------------------------------ #

    @property
    def clients(self) -> List[ClientId]:
        """All physical clients referenced by the problem (sorted)."""
        ids = set(self.bandwidth)
        for pub in self.feasible_streams:
            ids.add(self.owner(pub))
        for e in self.subscriptions:
            ids.add(e.subscriber)
        return sorted(ids)

    @property
    def publishers(self) -> List[ClientId]:
        """Canonical publisher entities with a non-empty feasible set."""
        return sorted(p for p, s in self.feasible_streams.items() if s)

    @property
    def subscribers(self) -> List[ClientId]:
        """Clients with at least one outgoing subscription, sorted."""
        return list(self._topology.subscribers)

    def followed_by(self, subscriber: ClientId) -> List[Subscription]:
        """Subscription edges out of ``subscriber`` (the set ``N_i'``)."""
        return list(self._topology.followed.get(subscriber, []))

    def served_by(self, publisher: ClientId) -> List[Subscription]:
        """Subscription edges into a canonical publisher (the set ``M_i``)."""
        return list(self._topology.served.get(self.canonical(publisher), []))

    def ordered_followed_by(self, subscriber: ClientId) -> Tuple[Subscription, ...]:
        """``N_i'`` in the solver's deterministic Step-1 class order.

        The order encodes the tie-break the paper's Table 1 exhibits:
        when two assignments have equal total QoE, the subscription edge
        with the higher resolution cap (e.g. the 720p speaker tile vs. a
        360p thumbnail) receives the larger stream.  The DP keeps the
        first-found optimum per class scanning items by descending
        bitrate, and later classes win ties during backtracking — so
        sorting edges by ascending cap gives high-cap edges the tie
        preference.  Computed once per (edge list, subscriber) and kept
        on the topology every picture over these edges shares; the solver
        re-reads it every KMR iteration.
        """
        topology = self._topology
        cached = topology.ordered.get(subscriber)
        if cached is None:
            cached = tuple(
                sorted(
                    topology.followed.get(subscriber, ()),
                    key=lambda e: (e.max_resolution, e.publisher),
                )
            )
            topology.ordered[subscriber] = cached
        return cached

    def shape_index(
        self,
    ) -> Tuple[Dict[ClientId, int], List[Tuple[Subscription, ...]]]:
        """Subscribers grouped by Step-1 *shape*: ``(shape_of, edges_of)``.

        Two subscribers share a shape when their ordered edges
        (:meth:`ordered_followed_by`) name the same ``(publisher,
        max_resolution)`` pairs.  Whatever the feasible sets are, their
        Step-1 classes and the publisher behind each class are then
        identical and only their downlink budgets differ — a webinar's
        viewers are one shape.  ``shape_of`` numbers every subscriber's
        shape; ``edges_of[shape]`` is the ordered edge tuple of the
        shape's first subscriber.  Computed once per edge list and kept on
        the topology every picture over these edges shares: read-only.
        """
        topology = self._topology
        if topology.shapes is None:
            shape_of: Dict[ClientId, int] = {}
            edges_of: List[Tuple[Subscription, ...]] = []
            numbers: Dict[Tuple[Tuple[ClientId, Resolution], ...], int] = {}
            for sub in topology.followed:
                edges = self.ordered_followed_by(sub)
                key = tuple((e.publisher, e.max_resolution) for e in edges)
                shape = numbers.setdefault(key, len(edges_of))
                if shape == len(edges_of):
                    edges_of.append(edges)
                shape_of[sub] = shape
            topology.shapes = (shape_of, edges_of)
        return topology.shapes

    def edge(self, subscriber: ClientId, publisher: ClientId) -> Optional[Subscription]:
        """The subscription edge between a pair (literal publisher id)."""
        for e in self._topology.followed.get(subscriber, []):
            if e.publisher == publisher:
                return e
        return None

    def feasible_for_edge(
        self,
        edge: Subscription,
        restricted: Optional[Mapping[ClientId, Sequence[StreamSpec]]] = None,
    ) -> List[StreamSpec]:
        """The per-edge feasible set ``S_ii'`` (resolution-capped ``S_i``).

        Args:
            edge: the subscription edge (publisher may be an alias).
            restricted: optional per-canonical-publisher override of the
                feasible sets (the solver's Step 3 shrinks ``S_i`` between
                iterations and passes the shrunk sets here).
        """
        source = restricted if restricted is not None else self.feasible_streams
        streams = source.get(self.canonical(edge.publisher), [])
        return streams_up_to_resolution(streams, edge.max_resolution)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    def downlink_budget(self, client: ClientId) -> int:
        """Video downlink budget in kbps (after audio protection)."""
        return self.bandwidth[client].effective_downlink_kbps

    def uplink_budget(self, client: ClientId) -> int:
        """Video uplink budget of a physical client (after audio protection)."""
        return self.bandwidth[client].effective_uplink_kbps

    # ------------------------------------------------------------------ #
    # One picture against the one before it
    # ------------------------------------------------------------------ #

    def same_topology(self, earlier: "Problem") -> bool:
        """True when both pictures share one topology value: they were
        built over the same edge objects and the same aliases."""
        return self._topology is earlier._topology

    def changed_bandwidths(self, earlier: "Problem") -> Optional[Set[ClientId]]:
        """The clients whose :class:`Bandwidth` differs from ``earlier``'s,
        when nothing else a solve reads does; ``None`` otherwise.

        "Nothing else" is read strictly, because the caller
        (:class:`~repro.core.solver.GsoSolver`'s replay) mixes objects of
        both pictures into one :class:`~repro.core.solution.Solution` and
        pickle tells objects apart by identity: the same topology value,
        the same clients, equal owners and feasible sets holding the very
        same :class:`StreamSpec` objects in the same order.
        """
        if not self.same_topology(earlier) or self._owners != earlier._owners:
            return None
        then = earlier.feasible_streams
        if len(self.feasible_streams) != len(then):
            return None
        for pub, streams in self.feasible_streams.items():
            before = then.get(pub)
            if (
                before is None
                or len(streams) != len(before)
                or not all(map(is_, streams, before))
            ):
                return None
        was = earlier.bandwidth
        if len(self.bandwidth) != len(was):
            return None
        changed: Set[ClientId] = set()
        for client, bandwidth in self.bandwidth.items():
            before = was.get(client)
            if before is None:
                return None
            if bandwidth is not before and bandwidth != before:
                changed.add(client)
        return changed

    #: Schema tag of :meth:`fingerprint`; bump on any encoding change.
    FINGERPRINT_SCHEMA = "repro.problem_fp/v1"

    def fingerprint(self, granularity_kbps: int = 1) -> str:
        """A canonical, order-independent content key of this picture.

        Two problems with the same key get the identical
        :class:`~repro.core.solution.Solution` from a solver at this
        knapsack granularity, however their maps and lists were ordered.
        Budgets enter after audio protection; downlinks are bucketed to
        ``granularity_kbps`` (Step 1's DP sees nothing finer), uplinks stay
        exact (Step 3 compares raw kbps, Eq. 14/17).  Client ids are part
        of the key.  Nothing on the decision path calls this (a meeting's
        memo compares pictures by identity); it is a diagnostic, hashed
        afresh on every call.

        Returns:
            ``"<schema>:<sha256 hexdigest>"``.
        """
        if granularity_kbps < 1:
            raise ValueError("granularity_kbps must be >= 1")
        parts: List[str] = [self.FINGERPRINT_SCHEMA, f"g={granularity_kbps}"]
        for pub in sorted(self.feasible_streams):
            ladder = sorted(
                self.feasible_streams[pub], key=lambda s: (s.bitrate_kbps, s.resolution)
            )
            parts.append(
                f"S[{pub}]="
                + ";".join(f"{s.bitrate_kbps},{s.resolution.value},{s.qoe!r}" for s in ladder)
            )
        for client in sorted(self.bandwidth):
            bw = self.bandwidth[client]
            parts.append(
                f"B[{client}]={bw.effective_uplink_kbps},"
                f"{bw.effective_downlink_kbps // granularity_kbps}"
            )
        parts += (
            f"E[{sub}<-{pub}]={cap}"
            for sub, pub, cap in sorted(
                (e.subscriber, e.publisher, e.max_resolution.value)
                for e in self.subscriptions
            )
        )
        parts += (f"A[{v}]={self.aliases[v]}" for v in sorted(self.aliases))
        parts += (f"O[{e}]={self._owners[e]}" for e in sorted(self._owners))
        digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
        return f"{self.FINGERPRINT_SCHEMA}:{digest}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Problem(clients={len(self.clients)}, "
            f"publishers={len(self.publishers)}, "
            f"edges={len(self.subscriptions)})"
        )
