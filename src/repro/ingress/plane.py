"""The ingress plane: the control loop, driven by the event stream.

Reports arrive, a decision is due 1-3 s later (Fig. 12), a TMMBR goes
out, and every failure degrades to the single-stream fallback (Sec. 7):

1. **Dispatch.**  Every :class:`~repro.ingress.events.StreamEvent` is
   offered to a per-meeting bounded :class:`~repro.ingress.mailbox.Mailbox`.
   The offer mints a PR 4 correlation id and emits ``ingress_enqueued``;
   stream faults (:mod:`repro.ingress.faults`) drop or re-schedule the
   offer before it reaches a mailbox, and an event the backend rejects
   as malformed is counted, logged and goes no further.
2. **Coalesce + backpressure.**  The meeting's worker opens a decision
   window on the first event and holds it
   :func:`~repro.cluster.scheduler.backpressure_window_s` long — the
   Fig. 12 envelope as the backpressure ladder.  The deeper the
   mailbox, the wider the window, the more events one solve absorbs.
3. **Shed.**  The ladder's last rung: a mailbox that overflowed, or an
   executor already at the admission budget, degrades the decision to
   the Sec. 7 ``single_stream_fallback`` via the backend's shed path.
4. **Execute.**  Admitted decisions take an executor slot (or queue
   FIFO for one), spend a deterministic virtual service time, and
   commit.  In-flight solves overlap with ingestion — the dispatcher
   never blocks on a solve.
5. **Complete.**  The commit emits a ``tmmbr_push`` completion event
   (``tmmbr_lost`` when the backend reports the push undelivered)
   carrying the decision's correlation id (the id minted for the oldest
   event in the drained batch), closing the causal chain end-to-end.

Every stage is one plain callback on the plane's
:class:`~repro.ingress.aio.SimRuntime` simulator: an idle meeting waits
for a put with its Fig. 12 ceiling timer armed, then one timer each for
its window and its service.  The one zero-delay hop is put -> window
open, so that a window opens after every offer of its instant and its
width reads the whole burst's depth.  Same seed, same stream, same
interleaving — byte-identical event logs.  A backend exception is not
caught: it propagates out of :meth:`IngressPlane.run_stream` at the
virtual instant it happened.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, NamedTuple, Optional, Sequence

from ..cluster.scheduler import backpressure_window_s
from ..core.solution import solution_digest
from ..net.simulator import EventHandle
from ..obs import events as obs_events
from ..obs import names as obs_names
from ..obs.registry import get_registry
from ..obs.spans import span
from ..placement.loadmodel import meeting_cost
from .aio import SimRuntime
from .events import (
    KIND_JOIN,
    KIND_LEAVE,
    KIND_LINK,
    KIND_SEMB,
    KIND_SUBSCRIPTION,
    RejectedEvent,
    StreamEvent,
)
from .faults import DELAY, DROP, StreamFaultInjector
from .mailbox import Envelope, Mailbox

#: Decision outcomes (the ``source`` values a backend may report, matching
#: the cluster's serve sources).
OUTCOME_SHED = "shed"

#: Shed reasons (the ``reason`` label of ``repro_ingress_shed_total``).
SHED_OVERFLOW = "overflow"
SHED_ADMISSION = "admission"

#: Virtual executor pacing, not a latency prediction: how long a decision
#: holds an executor slot in *virtual* time, which fixes decision order,
#: ``decisions_digest`` and ``ingress.virtual_latency_p95``.  The measured wall-clock slope is
#: ``placement.sec_per_cost_fit`` in ``bench/`` (2.2e-5 - 8.1e-5 s/cost);
#: refitting or deleting these re-baselines every digest.
PACING_S_PER_COST = 1e-6
#: Floor on the virtual service time (every solve takes > 0 time, so
#: in-flight solves genuinely overlap with ingestion).
PACING_FLOOR_S = 0.002


@dataclass
class IngressConfig:
    """Tuning of one ingress plane."""

    #: Bounded per-meeting mailbox capacity; overflow evicts the oldest
    #: event and forces the next decision onto the shed rung.
    mailbox_capacity: int = 16
    #: Concurrent executor slots (solves in flight at once).
    solve_slots: int = 4
    #: Extra virtual time after the last stream event for in-flight
    #: decisions (and one trailing refresh window) to drain.
    drain_s: float = 4.0

    def __post_init__(self) -> None:
        if self.mailbox_capacity < 1:
            raise ValueError("mailbox_capacity must be >= 1")
        if self.solve_slots < 1:
            raise ValueError("solve_slots must be >= 1")
        if not (math.isfinite(self.drain_s) and self.drain_s >= 0):
            raise ValueError(
                f"drain_s must be finite and >= 0, got {self.drain_s}"
            )


@dataclass
class Decision:
    """One committed configuration decision of the ingress plane."""

    meeting: str
    #: Correlation id of the oldest event in the drained batch — the id
    #: that travels to the ``tmmbr_push`` completion event.
    cid: str
    #: Virtual time the decision window opened (oldest event offer).
    opened_at_s: float
    #: Virtual time the configuration committed (TMMBR push).
    decided_at_s: float
    #: Events folded into this decision.
    batch: int
    trigger: str
    #: solve / cache / fallback / shed (the backend's serve source).
    source: str
    #: Canonical digest of the served solution (parity checks).
    digest: str
    #: Backend-specific payload the decision solved (e.g. a Problem).
    payload: object = None
    #: Backend-specific solution object (e.g. a Solution).
    solution: object = None

    @property
    def latency_s(self) -> float:
        """Virtual seconds from window open to committed configuration."""
        return self.decided_at_s - self.opened_at_s


@dataclass
class PlaneStats:
    """Dispatcher/worker accounting of one plane run; the metrics
    registry reads it at snapshot."""

    offered: int = 0
    #: Malformed events refused at the offer (``offered == enqueued +
    #: rejected``).
    rejected: int = 0
    enqueued: int = 0
    #: Envelopes taken out of a mailbox (``enqueued == dequeued +
    #: evicted + still queued``).
    dequeued: int = 0
    evicted: int = 0
    #: Events a ``drop_semb`` fault window consumed, per meeting.
    dropped_by_meeting: Dict[str, int] = field(default_factory=dict)
    delayed: int = 0
    decisions: int = 0
    coalesced: int = 0
    shed_overflow: int = 0
    shed_admission: int = 0
    idle_refreshes: int = 0
    max_mailbox_depth: int = 0

    @property
    def dropped(self) -> int:
        return sum(self.dropped_by_meeting.values())

    @property
    def shed(self) -> int:
        return self.shed_overflow + self.shed_admission

    def samples(self) -> Iterator[tuple]:
        """The registry's view (``MetricsRegistry.watch``)."""
        yield obs_names.INGRESS_EVENTS, {}, self.offered
        yield obs_names.INGRESS_COALESCED, {}, self.coalesced
        yield obs_names.INGRESS_SHED, {"reason": SHED_OVERFLOW}, self.shed_overflow
        yield obs_names.INGRESS_SHED, {"reason": SHED_ADMISSION}, self.shed_admission
        yield obs_names.INGRESS_DROPPED_EVENTS, {}, self.dropped
        yield obs_names.INGRESS_DELAYED_EVENTS, {}, self.delayed


class IngressBackend:
    """What the plane needs from a decision engine (duck-typed protocol).

    :class:`ClusterBackend` adapts the real :class:`ControllerCluster`;
    tests substitute a fake with the same surface.
    """

    #: Fig. 12 envelope the plane paces itself with.
    min_interval_s: float = 1.0
    max_interval_s: float = 3.0

    def apply_event(self, event: StreamEvent) -> None:  # pragma: no cover
        """Apply one event; raise :class:`RejectedEvent` to refuse it."""
        raise NotImplementedError

    def payload(self, meeting: str) -> object:  # pragma: no cover
        raise NotImplementedError

    def service_s(self, meeting: str, payload: object) -> float:
        raise NotImplementedError  # pragma: no cover

    def backpressure_window_s(
        self, meeting: str, depth: int, capacity: int
    ) -> float:  # pragma: no cover
        raise NotImplementedError

    def over_budget(self, meeting: str, in_flight: int) -> bool:
        raise NotImplementedError  # pragma: no cover

    def decide(
        self, meeting: str, payload: object, now_s: float, trigger: str,
        cid: str,
    ) -> "BackendDecision":  # pragma: no cover
        raise NotImplementedError

    def shed(
        self, meeting: str, payload: object, now_s: float, trigger: str,
        cid: str,
    ) -> "BackendDecision":  # pragma: no cover
        raise NotImplementedError


@dataclass
class BackendDecision:
    """What a backend reports back for one committed decision."""

    source: str
    digest: str = ""
    solution: object = None
    #: False when the TMMBR push was lost in flight: the clients keep
    #: their previous configuration until the next decision.
    delivered: bool = True


class ClusterBackend(IngressBackend):
    """Adapts a :class:`ControllerCluster` and a world (``ChaosWorld``,
    ``bench``'s ``World``: anything with the meeting accessors used below).

    Events mutate the world at offer time (the world *is* the clients'
    state; a dropped decision does not undo a bandwidth collapse), and
    decisions solve the freshest world snapshot — exactly the snapshot
    the newest batched event produced, since every mutation of a meeting
    flows through that meeting's mailbox.

    The world builds a ``Problem`` only when an event changes the
    meeting and hands back that instance until the next change, so the
    identity of an unchanged meeting is that object: the cluster serves
    the one frozen ``Solution`` the meeting's memo holds for it, and
    :meth:`committed` reads that solution's digest off it.
    """

    def __init__(self, cluster, world) -> None:
        self.cluster = cluster
        self.world = world
        self.min_interval_s = cluster.config.min_interval_s
        self.max_interval_s = cluster.config.max_interval_s

    # -- world mutation at offer time --------------------------------- #

    def apply_event(self, event: StreamEvent) -> None:
        try:
            state = self.world.meeting(event.meeting)
        except KeyError:
            raise RejectedEvent("unknown_meeting") from None
        if event.kind == KIND_SEMB:
            return  # a report carries the picture; it does not change it
        if event.kind == KIND_LINK:
            for scale in (event.up_scale, event.down_scale):
                if not (math.isfinite(scale) and scale >= 0):
                    raise RejectedEvent("bad_scale")
            client = event.client if event.client in state.clients else ""
            self.world.scale_bandwidth(
                event.meeting,
                client,
                up_scale=event.up_scale,
                down_scale=event.down_scale,
            )
        elif event.kind == KIND_SUBSCRIPTION:
            client = event.client if event.client in state.clients else ""
            self.world.toggle_preference(event.meeting, client)
        elif event.kind == KIND_JOIN:
            self.world.add_client(event.meeting)
        elif event.kind == KIND_LEAVE:
            self.world.remove_client(event.meeting, event.client)

    # -- decision side -------------------------------------------------- #

    def payload(self, meeting: str) -> object:
        return self.world.current_problem(meeting)

    def service_s(self, meeting: str, payload: object) -> float:
        return max(PACING_FLOOR_S, meeting_cost(payload) * PACING_S_PER_COST)

    def backpressure_window_s(
        self, meeting: str, depth: int, capacity: int
    ) -> float:
        return backpressure_window_s(
            depth, capacity, self.min_interval_s, self.max_interval_s
        )

    def over_budget(self, meeting: str, in_flight: int) -> bool:
        return self.cluster.over_budget(meeting, in_flight)

    def decide(self, meeting, payload, now_s, trigger, cid):
        served = self.cluster.solve_request(
            meeting, payload, now_s, trigger=trigger, correlation_id=cid
        )
        return self.committed(served, payload)

    def shed(self, meeting, payload, now_s, trigger, cid):
        served = self.cluster.shed_request(
            meeting, payload, now_s, trigger=trigger, correlation_id=cid
        )
        return self.committed(served, payload)

    def committed(self, served, payload) -> BackendDecision:
        """What the plane is told about one configuration the cluster
        served (subclasses judge or deliver it here)."""
        return BackendDecision(
            source=served.source,
            digest=solution_digest(served.solution),
            solution=served.solution,
        )


class _Worker:
    """One meeting's place in the loop.

    A worker is *idle* (waiting for a put, with its Fig. 12 ceiling armed
    once it has decided) or busy: in a decision window, queued for an
    executor slot, or in service.  Each timed stage is one simulator
    timer; the queue is a FIFO on the plane.
    """

    __slots__ = ("meeting", "box", "idle", "ceiling", "last_decision_s")

    def __init__(self, meeting: str, box: Mailbox) -> None:
        self.meeting = meeting
        self.box = box
        self.idle = True
        self.ceiling: Optional[EventHandle] = None
        self.last_decision_s: Optional[float] = None


class _Job(NamedTuple):
    """One decision, from its window's close (or its ceiling) to its
    commit."""

    worker: _Worker
    batch: List[Envelope]
    opened_at_s: float
    trigger: str
    cid: str
    payload: object


class IngressPlane:
    """Dispatcher + per-meeting workers + bounded executor, on virtual time."""

    def __init__(
        self,
        runtime: SimRuntime,
        backend: IngressBackend,
        config: Optional[IngressConfig] = None,
    ) -> None:
        self.runtime = runtime
        self.backend = backend
        self.config = config or IngressConfig()
        self.stats = PlaneStats()
        get_registry().watch(self.stats.samples)
        self.decisions: List[Decision] = []
        self.injector: Optional[StreamFaultInjector] = None
        self._workers: Dict[str, _Worker] = {}
        #: Executor slots held, and the admitted jobs waiting for one
        #: (FIFO: a released slot goes to the oldest).
        self._in_use = 0
        self._queue: Deque[_Job] = deque()
        self._stop_at_s = float("inf")

    # ------------------------------------------------------------------ #
    # Dispatch (the ingress side)
    # ------------------------------------------------------------------ #

    def offer(self, event: StreamEvent) -> bool:
        """Offer one stream event to its meeting's mailbox, now.

        Returns False when the backend rejected the event as malformed:
        it is counted and logged, touches no mailbox, and leaves every
        other meeting alone.
        """
        now = self.runtime.now
        self.stats.offered += 1
        log = obs_events.active_event_log()
        try:
            self.backend.apply_event(event)
        except RejectedEvent as exc:
            self.stats.rejected += 1
            if log is not None:
                log.emit(
                    obs_events.FAULT_INJECTED,
                    t=now,
                    meeting=event.meeting,
                    fault="rejected_event",
                    reason=str(exc),
                    event_kind=event.kind,
                    seq=event.seq,
                )
            return False
        worker = self._workers.get(event.meeting)
        if worker is None:
            box = Mailbox(capacity=self.config.mailbox_capacity)
            worker = self._workers[event.meeting] = _Worker(event.meeting, box)
        box = worker.box
        cid = log.mint(event.meeting) if log is not None else ""
        evicted = box.put(Envelope(event=event, cid=cid))
        if worker.idle:
            # The one zero-delay hop: the window opens after every offer
            # of this instant, so its width reads the whole burst's depth.
            worker.idle = False
            if worker.ceiling is not None:
                self.runtime.sim.cancel(worker.ceiling)
                worker.ceiling = None
            self.runtime.sim.schedule(0.0, lambda: self._next(worker))
        self.stats.enqueued += 1
        if evicted is not None:
            self.stats.evicted += 1
        depth = box.depth
        self.stats.max_mailbox_depth = max(self.stats.max_mailbox_depth, depth)
        reg = get_registry()
        if reg.enabled:
            reg.histogram(obs_names.INGRESS_MAILBOX_DEPTH).observe(depth)
        if log is not None:
            log.emit(
                obs_events.INGRESS_ENQUEUED,
                t=now,
                meeting=event.meeting,
                cid=cid,
                event_kind=event.kind,
                depth=depth,
                seq=event.seq,
            )
        return True

    def _offer_faulted(self, event: StreamEvent) -> None:
        """Dispatcher entry for scheduled stream events (fault-aware)."""
        now = self.runtime.now
        disposition, extra = (
            self.injector.disposition(event)
            if self.injector is not None
            else ("deliver", 0.0)
        )
        log = obs_events.active_event_log()
        if disposition == DROP:
            drops = self.stats.dropped_by_meeting
            drops[event.meeting] = drops.get(event.meeting, 0) + 1
            if log is not None:
                log.emit(
                    obs_events.FAULT_INJECTED,
                    t=now,
                    meeting=event.meeting,
                    fault="drop_semb",
                    seq=event.seq,
                )
            return
        if disposition == DELAY:
            self.stats.delayed += 1
            if log is not None:
                log.emit(
                    obs_events.FAULT_INJECTED,
                    t=now,
                    meeting=event.meeting,
                    fault="delay_semb",
                    delay_s=round(extra, 6),
                    seq=event.seq,
                )
            self.runtime.sim.schedule(extra, lambda e=event: self.offer(e))
            return
        self.offer(event)

    def run_stream(
        self,
        events: Sequence[StreamEvent],
        faults: Optional[StreamFaultInjector] = None,
        duration_s: Optional[float] = None,
    ) -> None:
        """Schedule a whole stream and run it (plus drain) to completion.

        Equal-time offers keep stream order: they are scheduled in stream
        order up front and the simulator breaks time ties by insertion
        sequence.  An exception a backend raises propagates from here
        at the virtual instant it happened.
        """
        self.injector = faults
        horizon = 0.0
        for event in events:
            horizon = max(horizon, event.at_s)
            self.runtime.call_at(
                event.at_s, lambda e=event: self._offer_faulted(e)
            )
        if duration_s is not None:
            horizon = max(horizon, duration_s)
        self._stop_at_s = horizon
        self.runtime.run_until(horizon + self.config.drain_s)

    # ------------------------------------------------------------------ #
    # Per-meeting decision workers
    # ------------------------------------------------------------------ #

    def _next(self, worker: _Worker) -> None:
        """The worker is free: open a window on its oldest queued event,
        or go idle with the Fig. 12 ceiling armed."""
        box = worker.box
        while box.depth:
            env = box.pop()
            self.stats.dequeued += 1
            if (
                self.runtime.now > self._stop_at_s
                and env.event.kind == KIND_SEMB
            ):
                # Past the stream horizon only mutations still commit.
                continue
            self._open(worker, env)
            return
        worker.idle = True
        worker.ceiling = self.runtime.sim.schedule(
            self.backend.max_interval_s, lambda: self._ceiling(worker)
        )

    def _open(self, worker: _Worker, env: Envelope) -> None:
        """Open a decision window: widen with depth (the envelope as a
        backpressure ladder), floored at the Fig. 12 min interval and
        closing no later than the ceiling the event cancelled would
        have fired."""
        backend = self.backend
        window = backend.backpressure_window_s(
            worker.meeting, worker.box.depth + 1, self.config.mailbox_capacity
        )
        last = worker.last_decision_s
        if last is not None:
            now = self.runtime.now
            window = min(
                max(window, last + backend.min_interval_s - now),
                last + backend.max_interval_s - now,
            )
        self.runtime.sim.schedule(window, lambda: self._close(worker, env))

    def _close(self, worker: _Worker, env: Envelope) -> None:
        """The window closes: its whole batch goes into one decision."""
        drained = worker.box.drain()
        self.stats.dequeued += len(drained)
        self._decide(worker, [env] + drained, opened_at_s=env.event.at_s)

    def _ceiling(self, worker: _Worker) -> None:
        """Fig. 12 ceiling: an idle meeting re-decides its last snapshot."""
        worker.idle = False
        worker.ceiling = None
        now = self.runtime.now
        if now > self._stop_at_s:
            return  # the run is draining; the worker retires
        self.stats.idle_refreshes += 1
        self._decide(worker, [], opened_at_s=now)

    def _decide(
        self, worker: _Worker, batch: List[Envelope], opened_at_s: float
    ) -> None:
        backend = self.backend
        meeting = worker.meeting
        log = obs_events.active_event_log()
        now = self.runtime.now
        if batch:
            trigger = "event"
            cid = batch[0].cid
        else:
            trigger = "time"
            # Capture the predecessor cid before minting so the refresh
            # chain links to the decision it refreshes (trace lineage).
            parent = log.last_cid(meeting) if log is not None else ""
            cid = log.mint(meeting) if log is not None else ""
            if log is not None:
                attrs = {"parent_cid": parent} if parent else {}
                log.emit(
                    obs_events.TIME_TRIGGER,
                    t=now,
                    meeting=meeting,
                    cid=cid,
                    **attrs,
                )
        coalesced = max(0, len(batch) - 1)
        self.stats.coalesced += coalesced
        if log is not None and batch:
            log.emit(
                obs_events.INGRESS_DEQUEUED,
                t=now,
                meeting=meeting,
                cid=cid,
                batch=len(batch),
                coalesced=coalesced,
            )
        payload = backend.payload(meeting)
        job = _Job(worker, batch, opened_at_s, trigger, cid, payload)
        shed_reason = ""
        if worker.box.take_overflow():
            shed_reason = SHED_OVERFLOW
        elif backend.over_budget(meeting, self._in_use + len(self._queue)):
            shed_reason = SHED_ADMISSION
        if not shed_reason:
            if self._in_use < self.config.solve_slots:
                self._in_use += 1
                self._start_service(job)
            else:
                self._queue.append(job)
            return
        if shed_reason == SHED_OVERFLOW:
            self.stats.shed_overflow += 1
        else:
            self.stats.shed_admission += 1
        if log is not None:
            log.emit(
                obs_events.INGRESS_SHED,
                t=now,
                meeting=meeting,
                cid=cid,
                reason=shed_reason,
            )
        with span(obs_names.SPAN_INGRESS_DECIDE):
            result = backend.shed(meeting, payload, now, trigger, cid)
        self._commit(job, result)

    def _start_service(self, job: _Job) -> None:
        """Hold the job's executor slot for its virtual service time."""
        self.runtime.sim.schedule(
            self.backend.service_s(job.worker.meeting, job.payload),
            lambda: self._serve(job),
        )

    def _serve(self, job: _Job) -> None:
        """Service ends: solve, hand the slot on, commit."""
        # The span times the synchronous backend call only.
        with span(obs_names.SPAN_INGRESS_DECIDE):
            result = self.backend.decide(
                job.worker.meeting, job.payload, self.runtime.now,
                job.trigger, job.cid,
            )
        if self._queue:
            self._start_service(self._queue.popleft())
        else:
            self._in_use -= 1
        self._commit(job, result)

    def _commit(self, job: _Job, result: BackendDecision) -> None:
        """Record the decision, push its TMMBR, free the worker."""
        worker = job.worker
        decided_at = self.runtime.now
        decision = Decision(
            meeting=worker.meeting,
            cid=job.cid,
            opened_at_s=job.opened_at_s,
            decided_at_s=decided_at,
            batch=len(job.batch),
            trigger=job.trigger,
            source=result.source,
            digest=result.digest,
            payload=job.payload,
            solution=result.solution,
        )
        self.decisions.append(decision)
        self.stats.decisions += 1
        worker.last_decision_s = decided_at
        reg = get_registry()
        if reg.enabled:
            reg.histogram(obs_names.INGRESS_DECISION_SECONDS).observe(
                decision.latency_s
            )
        log = obs_events.active_event_log()
        if log is not None:
            log.emit(
                obs_events.TMMBR_PUSH
                if result.delivered
                else obs_events.TMMBR_LOST,
                t=decided_at,
                meeting=worker.meeting,
                cid=job.cid,
                source=result.source,
                latency_s=round(decision.latency_s, 6),
            )
        self._next(worker)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def meetings(self) -> List[str]:
        """Meetings with a live mailbox, sorted."""
        return sorted(self._workers)

    def latency_percentile_s(self, q: float) -> float:
        """Nearest-rank percentile of virtual decision latency."""
        if not self.decisions:
            return 0.0
        latencies = sorted(d.latency_s for d in self.decisions)
        rank = max(1, math.ceil(q * len(latencies)))
        return latencies[min(len(latencies), rank) - 1]
