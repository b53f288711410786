"""Exact joint optimization via mixed-integer linear programming.

The KMR algorithm (Sec. 4.1) is a fast decomposition heuristic; the paper
benchmarks it against brute-force enumeration, which caps out at toy
sizes.  This module formulates the *entire* joint problem — downlink,
codec, subscription and uplink constraints simultaneously — as a 0/1 ILP
and solves it exactly with ``scipy.optimize.milp`` (HiGHS), giving a true
global optimum to measure the KMR optimality gap on mid-sized meetings.

Variables:

* ``x[e, s]`` — subscription edge ``e`` receives stream ``s`` (one per
  edge-feasible stream);
* ``y[p, s]`` — publisher entity ``p`` encodes stream ``s``.

Constraints:

* at most one ``x`` per edge (zero-or-one subscription);
* per subscriber, ``sum bitrate * x <= downlink`` budget;
* per publisher and resolution, ``sum y <= 1`` (codec capability);
* ``x[e, s] <= y[canonical(e), s]`` (can only receive what is encoded);
* per owner, ``sum bitrate * y <= uplink`` budget (camera + screen share
  drawing on one client uplink).

Objective: maximize total received QoE, minus an epsilon per active
encoding so unneeded streams are switched off (the Fig. 3a behaviour).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix

from .constraints import Problem
from .solution import PolicyEntry, Solution
from .types import ClientId, Resolution, StreamSpec

#: Per-encoding activation penalty (must stay far below any QoE weight).
_ACTIVATION_EPS = 1e-3


class MilpInfeasibleError(RuntimeError):
    """The MILP solver failed (should not happen: x = y = 0 is feasible)."""


def solve_joint_milp(problem: Problem, time_limit_s: float = 30.0) -> Solution:
    """Solve the full orchestration problem to proven optimality.

    Args:
        problem: the orchestration instance (aliases/owners supported).
        time_limit_s: HiGHS time limit; on expiry the incumbent is used.

    Returns:
        A validated-structure :class:`Solution` (call ``validate`` to
        assert it).  The objective equals the maximum achievable total
        received QoE.
    """
    edges = sorted(
        problem.subscriptions, key=lambda e: (e.subscriber, e.publisher)
    )
    # -- variable layout ------------------------------------------------ #
    x_index: Dict[Tuple[int, StreamSpec], int] = {}
    x_meta: List[Tuple[int, StreamSpec]] = []
    for ei, edge in enumerate(edges):
        for stream in problem.feasible_for_edge(edge):
            x_index[(ei, stream)] = len(x_meta)
            x_meta.append((ei, stream))
    y_index: Dict[Tuple[ClientId, StreamSpec], int] = {}
    y_meta: List[Tuple[ClientId, StreamSpec]] = []
    for pub in problem.publishers:
        for stream in problem.feasible_streams[pub]:
            y_index[(pub, stream)] = len(y_meta)
            y_meta.append((pub, stream))
    n_x, n_y = len(x_meta), len(y_meta)
    n = n_x + n_y
    if n == 0:
        return Solution(policies={}, assignments={}, iterations=1)

    objective = np.zeros(n)
    for (ei, stream), col in x_index.items():
        objective[col] = -stream.qoe  # milp minimizes
    for (pub, stream), col in y_index.items():
        objective[n_x + col] = _ACTIVATION_EPS

    rows: List[Tuple[Dict[int, float], float]] = []  # (coeffs, upper bound)

    # At most one stream per edge.
    for ei, edge in enumerate(edges):
        coeffs = {
            x_index[(ei, s)]: 1.0
            for s in problem.feasible_for_edge(edge)
        }
        if coeffs:
            rows.append((coeffs, 1.0))
    # Downlink budgets.
    for sub in problem.subscribers:
        coeffs: Dict[int, float] = {}
        for ei, edge in enumerate(edges):
            if edge.subscriber != sub:
                continue
            for s in problem.feasible_for_edge(edge):
                coeffs[x_index[(ei, s)]] = float(s.bitrate_kbps)
        if coeffs:
            rows.append((coeffs, float(problem.downlink_budget(sub))))
    # Codec capability: one encoding per (publisher, resolution).
    for pub in problem.publishers:
        by_res: Dict[Resolution, List[int]] = {}
        for s in problem.feasible_streams[pub]:
            by_res.setdefault(s.resolution, []).append(
                n_x + y_index[(pub, s)]
            )
        for cols in by_res.values():
            rows.append(({c: 1.0 for c in cols}, 1.0))
    # Coupling x <= y.
    for (ei, stream), col in x_index.items():
        pub = problem.canonical(edges[ei].publisher)
        y_col = n_x + y_index[(pub, stream)]
        rows.append(({col: 1.0, y_col: -1.0}, 0.0))
    # Uplink budgets per owner.
    owners = sorted({problem.owner(p) for p in problem.publishers})
    for owner in owners:
        coeffs = {}
        for pub in problem.publishers:
            if problem.owner(pub) != owner:
                continue
            for s in problem.feasible_streams[pub]:
                coeffs[n_x + y_index[(pub, s)]] = float(s.bitrate_kbps)
        if coeffs:
            rows.append((coeffs, float(problem.uplink_budget(owner))))

    matrix = lil_matrix((len(rows), n))
    upper = np.zeros(len(rows))
    for ri, (coeffs, ub) in enumerate(rows):
        for col, value in coeffs.items():
            matrix[ri, col] = value
        upper[ri] = ub
    constraints = LinearConstraint(
        matrix.tocsr(), -np.inf * np.ones(len(rows)), upper
    )
    result = milp(
        c=objective,
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"time_limit": time_limit_s},
    )
    if result.x is None:
        raise MilpInfeasibleError(result.message)
    values = np.round(result.x).astype(int)

    # -- reassemble a Solution ------------------------------------------ #
    assignments: Dict[ClientId, Dict[ClientId, StreamSpec]] = {}
    audiences: Dict[Tuple[ClientId, Resolution], set] = {}
    chosen: Dict[Tuple[ClientId, Resolution], StreamSpec] = {}
    for (ei, stream), col in x_index.items():
        if values[col] != 1:
            continue
        edge = edges[ei]
        canonical = problem.canonical(edge.publisher)
        assignments.setdefault(edge.subscriber, {})[edge.publisher] = stream
        key = (canonical, stream.resolution)
        chosen[key] = stream
        audiences.setdefault(key, set()).add(edge.subscriber)
    policies: Dict[ClientId, Dict[Resolution, PolicyEntry]] = {}
    for (pub, res), stream in chosen.items():
        policies.setdefault(pub, {})[res] = PolicyEntry(
            stream=stream, audience=frozenset(audiences[(pub, res)])
        )
    return Solution(policies=policies, assignments=assignments, iterations=1)
