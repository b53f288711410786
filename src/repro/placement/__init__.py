"""The structural per-meeting cost ``bench/`` fits measured solve time
against (:func:`~repro.placement.loadmodel.meeting_cost`)."""

from .loadmodel import meeting_cost

__all__ = ["meeting_cost"]
