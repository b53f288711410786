"""The GSO control algorithm — the paper's core contribution (Sec. 4.1).

Public API re-exports; see the submodules for the algorithm internals:

* :mod:`repro.core.types` — streams, resolutions, QoE weights;
* :mod:`repro.core.ladder` — bitrate-ladder construction;
* :mod:`repro.core.constraints` — the :class:`Problem` model;
* :mod:`repro.core.solver` — the Knapsack-Merge-Reduction loop;
* :mod:`repro.core.bruteforce` — exact comparators;
* :mod:`repro.core.priority`, :mod:`repro.core.virtual`,
  :mod:`repro.core.hysteresis` — the Sec. 4.4 / Sec. 7 extensions.
"""

from .constraints import Bandwidth, Problem, Subscription
from .engine import (
    EngineStats,
    MckpInstanceCache,
    default_mckp_cache,
)
from .explain import ExplainedSolve, explain_solve
from .hysteresis import UpgradeDamper
from .ladder import coarse_ladder, make_ladder, paper_ladder, qoe_utility, scale_qoe
from .mckp import (
    CapacityProfile,
    MckpSolution,
    kernel_stats,
    solve_mckp_dp,
    solve_mckp_dp_mandatory,
    solve_mckp_exhaustive,
)
from .priority import PriorityPolicy, verify_small_stream_protection
from .solution import PolicyEntry, Solution
from .solver import GsoSolver, SolveStats, SolverConfig, solve
from .types import (
    PAPER_RESOLUTIONS,
    ClientId,
    Resolution,
    Role,
    StreamClass,
    StreamKey,
    StreamSpec,
)
from .virtual import ProblemBuilder, screen_id, virtual_id

__all__ = [
    "Bandwidth",
    "CapacityProfile",
    "ClientId",
    "EngineStats",
    "GsoSolver",
    "MckpInstanceCache",
    "MckpSolution",
    "PAPER_RESOLUTIONS",
    "PolicyEntry",
    "PriorityPolicy",
    "Problem",
    "ProblemBuilder",
    "Resolution",
    "Role",
    "Solution",
    "SolveStats",
    "SolverConfig",
    "StreamClass",
    "StreamKey",
    "StreamSpec",
    "Subscription",
    "UpgradeDamper",
    "ExplainedSolve",
    "explain_solve",
    "coarse_ladder",
    "default_mckp_cache",
    "kernel_stats",
    "make_ladder",
    "paper_ladder",
    "qoe_utility",
    "scale_qoe",
    "screen_id",
    "solve",
    "solve_mckp_dp",
    "solve_mckp_dp_mandatory",
    "solve_mckp_exhaustive",
    "verify_small_stream_protection",
    "virtual_id",
]
