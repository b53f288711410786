"""A meeting's deterministic solve-cost estimate.

``bench/`` fits measured solve time against :func:`meeting_cost`
(its ``placement.cost_fit_*`` rows); nothing on the decision path reads
it.

Cost model: one KMR iteration runs one MCKP per subscriber over its
followed publishers, so per-iteration work scales with the subscription
edge count, and the iteration bound scales with the publisher count
(Sec. 5).  ``cost = |subscriptions| + |publishers|`` captures both; for
the full-mesh meetings the fleet samples this is exactly ``n**2``.
Against measured solve time the fit is weak (``placement.cost_fit_r2``
in ``bench/`` reads 0.00-0.55), so the cost predicts no latency.
"""

from __future__ import annotations

from ..core.constraints import Problem


def meeting_cost(problem: Problem) -> float:
    """Deterministic solve-cost estimate for one meeting's problem.

    Derived purely from problem structure; see the module docs for the
    model.
    """
    return float(
        max(1, len(problem.subscriptions) + len(problem.publishers))
    )
