"""The deterministic per-meeting solve-cost estimate the ingress plane
paces decisions on (:func:`~repro.placement.loadmodel.meeting_cost`)."""

from .loadmodel import meeting_cost

__all__ = ["meeting_cost"]
