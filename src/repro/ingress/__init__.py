"""Event-driven ingress: the continuous SEMB/TMMBR control plane.

Public surface of the subsystem (see ``docs/INGRESS.md``):

- :mod:`repro.ingress.aio` — deterministic coroutine runtime on the
  discrete-event simulator (:class:`SimRuntime`, :class:`SimFuture`,
  :class:`VirtualSemaphore`).
- :mod:`repro.ingress.events` — the typed stream vocabulary and the
  seeded stream generator.
- :mod:`repro.ingress.mailbox` — per-meeting bounded mailboxes.
- :mod:`repro.ingress.faults` — delayed/dropped SEMB injected into the
  event stream itself.
- :mod:`repro.ingress.plane` — dispatcher, per-meeting workers,
  backpressure ladder and the bounded solve executor.
- :mod:`repro.ingress.run` — seeded end-to-end runs with invariant
  checks and a canonical byte-deterministic report.
"""

from .aio import SimFuture, SimRuntime, SimTask, VirtualSemaphore
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
from .mailbox import Envelope, Mailbox, MailboxStats
from .plane import (
    BackendDecision,
    ClusterBackend,
    Decision,
    IngressBackend,
    IngressConfig,
    IngressPlane,
    PlaneStats,
)
from .report import IngressReport
from .run import IngressRunConfig, run_ingress

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
    "IngressReport",
    "IngressRunConfig",
    "LinkEstimate",
    "Mailbox",
    "MailboxStats",
    "PlaneStats",
    "PublisherJoin",
    "PublisherLeave",
    "RejectedEvent",
    "SembReport",
    "SimFuture",
    "SimRuntime",
    "SimTask",
    "StreamConfig",
    "StreamEvent",
    "StreamFault",
    "StreamFaultInjector",
    "SubscriptionChange",
    "VirtualSemaphore",
    "generate_stream",
    "run_ingress",
    "sort_stream",
]
