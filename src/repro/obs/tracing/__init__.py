"""Causal trace plane: per-decision trace trees assembled from the
cid-threaded event log, the stage vocabulary, and Perfetto/waterfall
exports of the plane's decisions.

See ``docs/TRACING.md`` for the trace model and stage vocabulary.
"""

from .assembler import TraceAssembler, assemble_trees
from .export import (
    chrome_trace,
    format_waterfall,
    waterfall,
    write_chrome_trace,
)
from .tree import (
    ALL_STAGES,
    LINK_COALESCED,
    LINK_LINEAGE,
    STAGE_DELIVERY,
    STAGE_MAILBOX_DWELL,
    STAGE_SHED,
    STAGE_SOLVE,
    TRACE_SCHEMA,
    StageSpan,
    TraceTree,
)

__all__ = [
    "ALL_STAGES",
    "LINK_COALESCED",
    "LINK_LINEAGE",
    "STAGE_DELIVERY",
    "STAGE_MAILBOX_DWELL",
    "STAGE_SHED",
    "STAGE_SOLVE",
    "StageSpan",
    "TRACE_SCHEMA",
    "TraceAssembler",
    "TraceTree",
    "assemble_trees",
    "chrome_trace",
    "format_waterfall",
    "waterfall",
    "write_chrome_trace",
]
