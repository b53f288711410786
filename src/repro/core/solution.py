"""Solution model for the GSO control algorithm.

A solved conference has two complementary views:

* the **publisher view** — per publisher, the *policy* set ``P_i``: for each
  resolution it should encode, the configured bitrate and the audience
  ``M_i^R`` that will receive it (Eq. 10-13);
* the **subscriber view** — per subscriber, which (publisher, stream) pairs
  it receives (the fulfilled version of ``D_i'`` from Eq. 6).

:class:`Solution` holds both, carries solver diagnostics, and can validate
itself against the :class:`~repro.core.constraints.Problem` it solves —
validation is the workhorse of the property-based tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import FrozenInstanceError, dataclass, field
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

from .constraints import Problem
from .types import ClientId, Resolution, StreamSpec


def _rebuild_policy_entry(stream: StreamSpec, audience: Tuple[ClientId, ...]) -> "PolicyEntry":
    return PolicyEntry(stream, frozenset(audience))


@dataclass(frozen=True)
class PolicyEntry:
    """One publisher policy ``(M_i^R, s_i^R)``: broadcast ``stream`` to ``audience``."""

    stream: StreamSpec
    audience: FrozenSet[ClientId]

    def __reduce__(self):
        # Frozensets serialize in hash-table iteration order, which
        # depends on insertion history — equal audiences built in a
        # different order (e.g. by the solver vs a reference loop in the
        # tests) can pickle to different bytes, breaking the byte-identity
        # contract the test suite and caches rely on.  Canonicalize to
        # a sorted tuple so equal entries always pickle identically.
        return (_rebuild_policy_entry, (self.stream, tuple(sorted(self.audience))))

    @property
    def resolution(self) -> Resolution:
        """The entry's stream resolution."""
        return self.stream.resolution

    @property
    def bitrate_kbps(self) -> int:
        """The configured bitrate in kbps."""
        return self.stream.bitrate_kbps


@dataclass
class Solution:
    """Output of one GSO solve.

    Attributes:
        policies: per publisher, the entries of ``P_i`` keyed by resolution.
            Publishers with an empty policy are omitted or map to ``{}``.
        assignments: per subscriber, per followed publisher, the stream the
            subscriber will receive.  Publishers whose stream was dropped for
            this subscriber are absent.
        iterations: number of Knapsack-Merge-Reduction iterations executed.
        reduced: the (publisher, resolution) pairs removed by Step-3
            reductions, in order — diagnostics for tests and benchmarks.

    A solution is built from plain dicts and a list and is its builder's
    to edit.  Subscribers may share one inner assignment map (the solver
    hands every subscriber with the same final assignment the same one),
    and a shared map is read-only: whoever edits one subscriber's
    assignment replaces its map.  :meth:`freeze` makes the whole solution
    read-only in place, which is what lets the controller cluster serve
    one object to every request over a meeting's unchanged picture (its
    last-solve memo) and lets :func:`solution_digest` keep its answer.
    Frozen or not, shared or not, equal content compares ``==`` and
    pickles to identical bytes.
    """

    policies: Mapping[ClientId, Mapping[Resolution, PolicyEntry]]
    assignments: Mapping[ClientId, Mapping[ClientId, StreamSpec]]
    iterations: int = 1
    reduced: Sequence[Tuple[ClientId, Resolution]] = field(default_factory=list)

    # Instance state of a frozen solution.  Not dataclass fields (no
    # annotation), so pickle, ``==`` and ``repr`` never see them.
    _frozen = False
    _digest = None

    # ------------------------------------------------------------------ #
    # Read-only sharing
    # ------------------------------------------------------------------ #

    @property
    def is_frozen(self) -> bool:
        """True once :meth:`freeze` made this solution read-only."""
        return self._frozen

    def freeze(self) -> "Solution":
        """Make this solution read-only, in place; returns ``self``.

        Both dict levels become ``MappingProxyType`` views (no dict is
        copied, and an inner map that already is one, like the solver's
        shared assignment maps, is kept) and ``reduced`` a tuple; from
        then on item assignment raises ``TypeError`` and attribute
        assignment ``AttributeError``.  There is no way back: whoever
        needs to edit unpickles or rebuilds a copy.
        """
        if not self._frozen:
            self.policies = MappingProxyType(
                {pub: MappingProxyType(e) for pub, e in self.policies.items()}
            )
            self.assignments = MappingProxyType(
                {
                    sub: p if type(p) is MappingProxyType else MappingProxyType(p)
                    for sub, p in self.assignments.items()
                }
            )
            self.reduced = tuple(self.reduced)
            self._frozen = True
        return self

    def __setattr__(self, name: str, value: object) -> None:
        if self._frozen:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        if self._frozen:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        object.__delattr__(self, name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.policies == other.policies
            and self.assignments == other.assignments
            and self.iterations == other.iterations
            and list(self.reduced) == list(other.reduced)
        )

    def __reduce__(self):
        # Mapping views do not pickle; plain dicts and a list do, and to
        # the same bytes whether or not the solution was frozen.  Each
        # subscriber gets a dict of its own, so a shared map pickles as
        # unshared copies do.
        return (
            self.__class__,
            (
                {pub: dict(e) for pub, e in self.policies.items()},
                {sub: dict(p) for sub, p in self.assignments.items()},
                self.iterations,
                list(self.reduced),
            ),
        )

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    def total_qoe(self) -> float:
        """Sum of the QoE utilities of all received streams (Eq. 1 summed
        over subscribers)."""
        return sum(
            stream.qoe
            for per_pub in self.assignments.values()
            for stream in per_pub.values()
        )

    def subscriber_qoe(self, subscriber: ClientId) -> float:
        """QoE utility delivered to one subscriber."""
        return sum(s.qoe for s in self.assignments.get(subscriber, {}).values())

    def uplink_usage_kbps(self, publisher: ClientId) -> int:
        """Total bitrate the publisher is asked to encode and send."""
        return sum(
            e.bitrate_kbps for e in self.policies.get(publisher, {}).values()
        )

    def downlink_usage_kbps(self, subscriber: ClientId) -> int:
        """Total bitrate the subscriber is asked to receive."""
        return sum(
            s.bitrate_kbps for s in self.assignments.get(subscriber, {}).values()
        )

    def published_streams(self, publisher: ClientId) -> List[StreamSpec]:
        """The streams the publisher encodes, high resolution first."""
        entries = self.policies.get(publisher, {})
        return [
            entries[res].stream for res in sorted(entries, reverse=True)
        ]

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self, problem: Problem) -> None:
        """Check every constraint family of Sec. 4.1 plus internal coherence.

        Raises:
            AssertionError: with a descriptive message on the first violated
                invariant.  (Assertions, not ValueErrors: a failed validation
                is a solver bug, not a user error.)
        """
        # -- Codec capability: policies keyed by resolution are distinct by
        #    construction; check entries agree with their key and that the
        #    configured stream's resolution exists in some feasible set
        #    (bitrates may be any fix from Eq. 16, i.e. feasible bitrates).
        for pub, entries in self.policies.items():
            feasible = problem.feasible_streams.get(pub, [])
            feasible_set = set(feasible)
            for res, entry in entries.items():
                assert entry.resolution == res, (
                    f"policy for {pub!r} keyed {res} holds {entry.resolution}"
                )
                assert entry.stream in feasible_set, (
                    f"{pub!r} configured non-feasible stream {entry.stream}"
                )
                assert entry.audience, (
                    f"{pub!r} publishes {entry.stream} with no audience"
                )

        # -- Uplink budgets (Eq. 14), aggregated per owning client: a camera
        #    source and a screen-share source of one client share its uplink.
        usage_by_owner: Dict[ClientId, int] = {}
        for pub in self.policies:
            owner = problem.owner(pub)
            usage_by_owner[owner] = (
                usage_by_owner.get(owner, 0) + self.uplink_usage_kbps(pub)
            )
        for owner, usage in usage_by_owner.items():
            budget = problem.uplink_budget(owner)
            assert usage <= budget, (
                f"uplink violated for {owner!r}: {usage} > {budget} kbps"
            )

        # -- Downlink budgets (Eq. 2) and subscription constraints.
        for sub, per_pub in self.assignments.items():
            usage = self.downlink_usage_kbps(sub)
            budget = problem.downlink_budget(sub)
            assert usage <= budget, (
                f"downlink violated for {sub!r}: {usage} > {budget} kbps"
            )
            for pub, stream in per_pub.items():
                edge = problem.edge(sub, pub)
                assert edge is not None, (
                    f"{sub!r} assigned a stream from unfollowed {pub!r}"
                )
                assert stream.resolution <= edge.max_resolution, (
                    f"{sub!r} <- {pub!r}: {stream.resolution} exceeds "
                    f"subscription cap {edge.max_resolution}"
                )

        # -- Cross-view coherence: every assignment is backed by a policy
        #    entry (under the canonical publisher id) that includes the
        #    subscriber in its audience, and every audience member holds at
        #    least one matching assignment (possibly via an alias edge).
        for sub, per_pub in self.assignments.items():
            for pub, stream in per_pub.items():
                canonical = problem.canonical(pub)
                entry = self.policies.get(canonical, {}).get(stream.resolution)
                assert entry is not None, (
                    f"{sub!r} assigned {stream} from {pub!r} but no policy"
                )
                assert entry.stream == stream, (
                    f"assignment/policy bitrate mismatch for {pub!r}: "
                    f"{stream} vs {entry.stream}"
                )
                assert sub in entry.audience, (
                    f"{sub!r} missing from audience of {pub!r}@{stream.resolution}"
                )
        for pub, entries in self.policies.items():
            for res, entry in entries.items():
                for member in entry.audience:
                    member_streams = set(
                        self.assignments.get(member, {}).values()
                    )
                    assert entry.stream in member_streams, (
                        f"audience member {member!r} of {pub!r}@{res} lacks "
                        f"assignment {entry.stream}"
                    )

    def summary(self) -> str:
        """Human-readable multi-line summary (used by examples)."""
        lines: List[str] = [f"Solution after {self.iterations} iteration(s)"]
        for pub in sorted(self.policies):
            entries = self.policies[pub]
            if not entries:
                continue
            parts = ", ".join(
                f"{entries[res].bitrate_kbps}kbps@{res}->"
                f"{{{','.join(sorted(entries[res].audience))}}}"
                for res in sorted(entries, reverse=True)
            )
            lines.append(f"  {pub} publishes {parts}")
        lines.append(f"  total QoE: {self.total_qoe():.1f}")
        return "\n".join(lines)


def solution_digest(solution: Solution) -> str:
    """A short content digest of one delivered configuration.

    Canonical over both views (policies and assignments), independent of
    dict construction order.  Computed once for a frozen solution and
    kept on it; recomputed on every call for a mutable one, whose
    content may have changed since.
    """
    if solution._digest is not None:
        return solution._digest
    parts: List[str] = []
    for pub, entries in sorted(solution.policies.items()):
        for res, entry in sorted(entries.items()):
            parts.append(
                f"P[{pub}@{res.value}]={entry.bitrate_kbps}->"
                f"{','.join(sorted(entry.audience))}"
            )
    # Subscribers with equal assignments mostly hold one map object: the
    # text after the subscriber id of each of its lines is built once per
    # map (and once per (publisher, stream)), and a holder's lines are
    # one join.  The solution holds every map and stream for the call,
    # so ids are not reused.
    tails_of: Dict[int, List[str]] = {}
    tails: Dict[Tuple[ClientId, int], str] = {}
    for sub, per_pub in sorted(solution.assignments.items()):
        held = tails_of.get(id(per_pub))
        if held is None:
            held = tails_of[id(per_pub)] = []
            for pub, stream in sorted(per_pub.items()):
                tail = tails.get((pub, id(stream)))
                if tail is None:
                    tail = tails[pub, id(stream)] = (
                        f"<-{pub}]={stream.bitrate_kbps}@{stream.resolution.value}"
                    )
                held.append(tail)
        if held:
            parts.append(f"A[{sub}" + f"\nA[{sub}".join(held))
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]
    if solution.is_frozen:
        object.__setattr__(solution, "_digest", digest)
    return digest
