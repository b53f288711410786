"""Bench-owned seeded inputs: the client world and its control-event stream.

Everything the benchmark feeds the control path comes from here, through
string-seeded private RNGs.  No sampler of ``repro.deploy`` or
``repro.chaos`` is imported, so folding ``FleetSampler`` / ``vectorfleet``
/ ``ChaosWorld`` together later cannot change what the benchmark measures.
The population follows the repo's fleet model (the four access-network
profiles below are copied from it as constants): meeting size
``2 + floor(Exp(mean - 2))``, full mesh at 720p, budgets scaled by 0.93
with 45 kbps of audio protection.

A workload's *fleet* (meeting sizes, every client's network) depends on
the workload alone; ``--seed`` draws the *trace* over it (report phases,
which links move, who flips, joins and leaves).  Redrawing the fleet per
seed made ten seeds differ by 15-25 % in the timing metrics, all of it
input variance no bound could be set below.

:class:`World` is the mutable client state ``ClusterBackend`` drives
(``meeting(id).clients``, ``current_problem``, ``scale_bandwidth``,
``toggle_preference``, ``add_client``, ``remove_client``,
``meeting_ids``).  :func:`generate` returns it together with the event
stream; SEMB events carry pre-serialized APP-204 bytes so the ``rtp``
decode is on the measured path.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.ladder import make_ladder
from repro.core.types import Resolution
from repro.ingress import events as ingress_events
from repro.rtp.semb import SembReport as SembPacket

#: (name, uplink kbps range, downlink kbps range, population share).
PROFILES = (
    ("fiber", (4000, 10000), (8000, 20000), 0.35),
    ("cable", (1500, 4000), (3000, 8000), 0.30),
    ("mobile", (600, 1500), (1000, 3000), 0.25),
    ("slow", (200, 600), (300, 1200), 0.10),
)
_PROFILE_WEIGHTS = [p[3] for p in PROFILES]

AUDIO_KBPS = 45
BUDGET_MARGIN = 0.93
MAX_MEETING_SIZE = 50
REPORT_INTERVAL_S = 1.0
REPORT_JITTER = 0.25
#: Share of a webinar's link-estimate mutations that hit a view-only client.
VIEWER_LINK_SHARE = 0.7

#: Mutation kinds and their default shares.
DEFAULT_MIX = (
    (ingress_events.KIND_LINK, 0.40),
    (ingress_events.KIND_SUBSCRIPTION, 0.30),
    (ingress_events.KIND_JOIN, 0.15),
    (ingress_events.KIND_LEAVE, 0.15),
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: the shape of its inputs (``BENCHMARK.json``
    says why each exists)."""

    name: str
    #: Name the RNGs are seeded with; workloads sharing it get
    #: byte-identical inputs (``fleet_mix_obs`` replays ``fleet_mix``).
    inputs: str
    meetings: int = 0
    mean_size: float = 4.0
    max_size: int = MAX_MEETING_SIZE
    #: Webinar classes: (how many, publishers, view-only subscribers).
    webinars: Tuple[Tuple[int, int, int], ...] = ()
    #: Webinar publisher uplink range; ``None`` draws from the profiles.
    publisher_uplink_kbps: Optional[Tuple[int, int]] = None
    duration_s: float = 30.0
    #: Expected world mutations per meeting over the whole stream.
    mutations_per_meeting: float = 0.5
    mix: Tuple[Tuple[str, float], ...] = DEFAULT_MIX
    #: Run under an event log, an enabled registry and trace assembly.
    obs: bool = False


_FLEET_MIX = WorkloadSpec(
    name="fleet_mix",
    inputs="fleet_mix",
    meetings=400,
    webinars=((2, 8, 170),),
    duration_s=20.0,
    mutations_per_meeting=0.4,
)

SPECS: Tuple[WorkloadSpec, ...] = (
    _FLEET_MIX,
    replace(_FLEET_MIX, name="fleet_mix_obs", obs=True),
    WorkloadSpec(
        name="churn_storm",
        inputs="churn_storm",
        meetings=240,
        mean_size=8.0,
        max_size=12,
        duration_s=4.0,
        mutations_per_meeting=4.0,
    ),
    WorkloadSpec(
        name="webinar_large",
        inputs="webinar_large",
        webinars=((16, 8, 110),),
        publisher_uplink_kbps=(900, 2600),
        duration_s=17.0,
        mutations_per_meeting=17.0,
        mix=((ingress_events.KIND_LINK, 1.0),),
    ),
)


def spec_by_name(name: str) -> WorkloadSpec:
    for spec in SPECS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown workload {name!r}; known: {[s.name for s in SPECS]}")


# --------------------------------------------------------------------- #
# Stream events
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SembBytes(ingress_events.SembReport):
    """A meeting's periodic report as it arrives: compound RTCP bytes,
    one APP-204 SEMB packet per publisher."""

    data: bytes = b""


# --------------------------------------------------------------------- #
# The world
# --------------------------------------------------------------------- #


@dataclass
class Client:
    uplink_kbps: int
    downlink_kbps: int
    publishes: bool = True
    up_scale: float = 1.0
    down_scale: float = 1.0

    def bandwidth(self) -> Bandwidth:
        up = max(50, int(self.uplink_kbps * self.up_scale))
        down = max(75, int(self.downlink_kbps * self.down_scale))
        return Bandwidth(
            uplink_kbps=int(up * BUDGET_MARGIN),
            downlink_kbps=int(down * BUDGET_MARGIN),
            audio_protection_kbps=AUDIO_KBPS,
        )


@dataclass
class Meeting:
    meeting_id: str
    clients: Dict[str, Client]
    preferences: Dict[str, Resolution]
    joined: int = 0
    problem: Optional[Problem] = None


def _draw_client(rng: random.Random, publishes: bool) -> Client:
    _, up, down, _ = rng.choices(PROFILES, _PROFILE_WEIGHTS)[0]
    return Client(
        uplink_kbps=max(100, int(rng.uniform(*up))),
        downlink_kbps=max(150, int(rng.uniform(*down))),
        publishes=publishes,
    )


class World:
    """The clients' state: mutated by stream events, read as Problems."""

    def __init__(self, tag: str) -> None:
        self._tag = tag
        self._ladder = make_ladder()
        self._meetings: Dict[str, Meeting] = {}
        self.mutations = 0

    @property
    def meeting_ids(self) -> List[str]:
        return sorted(self._meetings)

    def meeting(self, meeting_id: str) -> Meeting:
        return self._meetings[meeting_id]

    def current_problem(self, meeting_id: str) -> Problem:
        return self._meetings[meeting_id].problem

    def add_meeting(self, meeting_id: str, clients: Dict[str, Client]) -> None:
        state = Meeting(meeting_id, clients, {})
        self._meetings[meeting_id] = state
        state.problem = self._build_problem(state)

    def scale_bandwidth(self, meeting_id, client, up_scale=None, down_scale=None):
        state = self._meetings[meeting_id]
        cid = client or min(state.clients)
        target = state.clients[cid]
        if up_scale is not None:
            target.up_scale = up_scale
        if down_scale is not None:
            target.down_scale = down_scale
        self._changed(state)
        return cid

    def toggle_preference(self, meeting_id, client=""):
        state = self._meetings[meeting_id]
        cid = client or min(state.clients)
        flipped = (
            Resolution.P360
            if state.preferences.get(cid, Resolution.P720) == Resolution.P720
            else Resolution.P720
        )
        state.preferences[cid] = flipped
        self._changed(state)
        return cid, flipped

    def add_client(self, meeting_id):
        """A participant joins; webinars gain a view-only subscriber."""
        state = self._meetings[meeting_id]
        rng = random.Random(f"{self._tag}:{meeting_id}:join:{state.joined}")
        cid = f"z{state.joined:03d}"
        state.joined += 1
        mesh = all(c.publishes for c in state.clients.values())
        state.clients[cid] = _draw_client(rng, publishes=mesh)
        self._changed(state)
        return cid

    def remove_client(self, meeting_id, client=""):
        """The newest non-publishing participant leaves (any participant
        in a mesh); skipped when it would leave fewer than two clients or
        a webinar without a viewer."""
        state = self._meetings[meeting_id]
        pool = [c for c, s in state.clients.items() if not s.publishes]
        pool = pool or list(state.clients)
        if len(state.clients) <= 2 or len(pool) <= 1:
            return ""
        cid = client or max(pool)
        if cid not in state.clients:
            return ""
        del state.clients[cid]
        state.preferences.pop(cid, None)
        self._changed(state)
        return cid

    def _changed(self, state: Meeting) -> None:
        self.mutations += 1
        state.problem = self._build_problem(state)

    def _build_problem(self, state: Meeting) -> Problem:
        ids = sorted(state.clients)
        publishers = [c for c in ids if state.clients[c].publishes]
        prefs = state.preferences
        return Problem(
            feasible_streams={p: self._ladder for p in publishers},
            bandwidth={c: state.clients[c].bandwidth() for c in ids},
            subscriptions=[
                Subscription(a, b, prefs.get(a, Resolution.P720))
                for a in ids
                for b in publishers
                if a != b
            ],
        )


# --------------------------------------------------------------------- #
# Generation
# --------------------------------------------------------------------- #


@dataclass
class Inputs:
    world: World
    stream: List[ingress_events.StreamEvent]
    #: sha256 over the initial world and every stream event.
    digest: str
    #: Sum of the bitrates encoded into the stream's SEMB packets (bps).
    semb_bps_total: int
    semb_packets: int


def _semb_bytes(meeting_index: int, clients: Dict[str, Client]) -> Tuple[bytes, int, int]:
    data = b""
    total = 0
    count = 0
    for k, cid in enumerate(sorted(clients)):
        if not clients[cid].publishes:
            continue
        bps = clients[cid].uplink_kbps * 1000
        ssrc = 0x10000 + meeting_index * 64 + k
        data += SembPacket(sender_ssrc=ssrc, bitrate_bps=bps).to_app_packet().serialize()
        total += bps
        count += 1
    return data, total, count


def generate(spec: WorkloadSpec, seed: int) -> Inputs:
    """Build the world and the canonical ``(at_s, seq)``-ordered stream."""
    fleet = f"bench:{spec.inputs}"
    tag = f"{fleet}:{seed}"
    world = World(tag)
    strata = list(range(spec.meetings))
    random.Random(f"{fleet}:strata").shuffle(strata)
    for k in range(spec.meetings):
        meeting_id = f"m{k:04d}"
        rng = random.Random(f"{fleet}:{meeting_id}")
        # 2 + floor(Exp(mean - 2)), read off the inverse CDF at the midpoint
        # of the meeting's stratum of (0, 1) rather than sampled.
        q = (strata[k] + 0.5) / spec.meetings
        tail = -(spec.mean_size - 2) * math.log(1.0 - q)
        size = min(spec.max_size, 2 + int(tail))
        world.add_meeting(
            meeting_id, {f"c{i:02d}": _draw_client(rng, True) for i in range(size)}
        )
    shapes = [(p, v) for count, p, v in spec.webinars for _ in range(count)]
    for k, (n_pub, n_view) in enumerate(shapes):
        meeting_id = f"w{k:02d}"
        rng = random.Random(f"{fleet}:{meeting_id}")
        clients = {}
        for i in range(n_pub):
            client = _draw_client(rng, True)
            if spec.publisher_uplink_kbps is not None:
                client.uplink_kbps = int(rng.uniform(*spec.publisher_uplink_kbps))
            clients[f"a{i:02d}"] = client
        for i in range(n_view):
            clients[f"s{i:03d}"] = _draw_client(rng, False)
        world.add_meeting(meeting_id, clients)

    kinds = [k for k, _ in spec.mix]
    weights = [w for _, w in spec.mix]
    events: List[ingress_events.StreamEvent] = []
    semb_bps_total = 0
    semb_packets = 0
    for index, meeting_id in enumerate(world.meeting_ids):
        clients = world.meeting(meeting_id).clients
        rng = random.Random(f"{tag}:{meeting_id}:stream")
        data, bps, packets = _semb_bytes(index, clients)
        t = rng.uniform(0.0, REPORT_INTERVAL_S)
        while t < spec.duration_s:
            events.append(SembBytes(at_s=round(t, 6), meeting=meeting_id, data=data))
            semb_bps_total += bps
            semb_packets += packets
            t += REPORT_INTERVAL_S * (1.0 + REPORT_JITTER * (2.0 * rng.random() - 1.0))
        count = int(spec.mutations_per_meeting)
        if rng.random() < spec.mutations_per_meeting - count:
            count += 1
        viewers = sorted(c for c, s in clients.items() if not s.publishes)
        publishers = sorted(c for c, s in clients.items() if s.publishes)
        for k in range(count):
            # One mutation per equal slice of the run, placed uniformly
            # inside it: a steady rate without lockstep.
            at = round((k + rng.random()) * spec.duration_s / count, 6)
            kind = rng.choices(kinds, weights)[0]
            if kind == ingress_events.KIND_LINK:
                pool = viewers if viewers and rng.random() < VIEWER_LINK_SHARE else publishers
                events.append(
                    ingress_events.LinkEstimate(
                        at_s=at,
                        meeting=meeting_id,
                        client=rng.choice(pool),
                        up_scale=round(rng.uniform(0.3, 1.0), 3),
                        down_scale=round(rng.uniform(0.3, 1.0), 3),
                    )
                )
            elif kind == ingress_events.KIND_SUBSCRIPTION:
                events.append(
                    ingress_events.SubscriptionChange(
                        at_s=at, meeting=meeting_id, client=rng.choice(sorted(clients))
                    )
                )
            elif kind == ingress_events.KIND_JOIN:
                events.append(ingress_events.PublisherJoin(at_s=at, meeting=meeting_id))
            else:
                events.append(ingress_events.PublisherLeave(at_s=at, meeting=meeting_id))
    events.sort(key=lambda e: (e.at_s, e.meeting, e.kind))
    stream = [replace(e, seq=i) for i, e in enumerate(events)]
    return Inputs(
        world=world,
        stream=stream,
        digest=_inputs_digest(world, stream),
        semb_bps_total=semb_bps_total,
        semb_packets=semb_packets,
    )


def _inputs_digest(world: World, stream: List[ingress_events.StreamEvent]) -> str:
    h = hashlib.sha256()
    for meeting_id in world.meeting_ids:
        clients = world.meeting(meeting_id).clients
        for cid in sorted(clients):
            c = clients[cid]
            h.update(
                f"{meeting_id}|{cid}|{c.uplink_kbps}|{c.downlink_kbps}|{int(c.publishes)}\n".encode()
            )
    for e in stream:
        h.update(
            "|".join(
                (
                    repr(e.at_s),
                    e.meeting,
                    e.kind,
                    getattr(e, "client", ""),
                    repr(getattr(e, "up_scale", "")),
                    repr(getattr(e, "down_scale", "")),
                    getattr(e, "data", b"").hex(),
                )
            ).encode()
            + b"\n"
        )
    return h.hexdigest()
