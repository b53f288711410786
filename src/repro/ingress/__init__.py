"""Event-driven ingress: the continuous SEMB/TMMBR control plane.

Public surface of the subsystem (see ``docs/INGRESS.md``):

- :mod:`repro.ingress.aio` — the plane's clock, a thin facade over the
  discrete-event simulator (:class:`SimRuntime`).
- :mod:`repro.ingress.events` — the typed stream vocabulary and the
  seeded stream generator.
- :mod:`repro.ingress.mailbox` — per-meeting bounded mailboxes.
- :mod:`repro.ingress.faults` — delayed/dropped SEMB injected into the
  event stream itself.
- :mod:`repro.ingress.plane` — dispatcher, per-meeting workers,
  backpressure ladder and the bounded solve executor, as plain
  simulator callbacks (one timer per stage).

Seeded end-to-end runs of the plane, with invariant checks and a
canonical report, are :class:`repro.chaos.ChaosRunner`'s job.
"""

from .aio import SimRuntime
from .events import (
    ALL_STREAM_KINDS,
    LinkEstimate,
    PublisherJoin,
    PublisherLeave,
    RejectedEvent,
    SembReport,
    StreamConfig,
    StreamEvent,
    SubscriptionChange,
    generate_stream,
    sort_stream,
)
from .faults import (
    DELAY_SEMB,
    DROP_SEMB,
    StreamFault,
    StreamFaultInjector,
)
from .mailbox import Envelope, Mailbox
from .plane import (
    BackendDecision,
    ClusterBackend,
    Decision,
    IngressBackend,
    IngressConfig,
    IngressPlane,
    PlaneStats,
)

__all__ = [
    "ALL_STREAM_KINDS",
    "BackendDecision",
    "ClusterBackend",
    "Decision",
    "DELAY_SEMB",
    "DROP_SEMB",
    "Envelope",
    "IngressBackend",
    "IngressConfig",
    "IngressPlane",
    "LinkEstimate",
    "Mailbox",
    "PlaneStats",
    "PublisherJoin",
    "PublisherLeave",
    "RejectedEvent",
    "SembReport",
    "SimRuntime",
    "StreamConfig",
    "StreamEvent",
    "StreamFault",
    "StreamFaultInjector",
    "SubscriptionChange",
    "generate_stream",
    "sort_stream",
]
