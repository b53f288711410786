"""Step 3 (Reduction): uplink constraints (Sec. 4.1.3).

After merging, each publisher entity holds a potential policy set ``P_i``
that respects downlink, subscription and codec constraints — but possibly
not the uplink budget.  Uplink budgets belong to *physical clients*: a
client that publishes both a camera and a screen-share source pays for both
from one uplink, so the check aggregates the policies of all entities an
owner has.  Three outcomes per owner:

* **Accepted** (Eq. 14): total policy bitrate fits the uplink — keep as-is.
* **Fixable** (Eq. 15-17): the total exceeds the uplink, but replacing
  entries with *lower bitrates of the same resolution* can fit.  The paper
  notes this "turns out to be a knapsack problem with a small number of
  feasible combinations"; we solve it optimally with the mandatory-pick MCKP
  (every entry must survive, only its bitrate may drop).
* **Unfixable** (Eq. 18-20): even the per-resolution minimum bitrates exceed
  the uplink.  The highest resolution among the owner's policy entries is
  deleted from the contributing entity's feasible set and the whole
  algorithm restarts from Step 1.  Only one publisher is reduced per
  iteration, as the paper prescribes.

The outcomes are *decided* before anything is *fixed*.  An iteration that
ends in a deletion throws its policies away, so :func:`reduction_step`
first walks the owners with the two sums alone (Eq. 14, Eq. 17) and runs
the fix DP only once no owner is unfixable, i.e. only in the iteration
that terminates the solve.

The fixability test (Eq. 17, :func:`is_fixable`) is concretely: for each
policy resolution, substitute the *cheapest* same-resolution rung from the
feasible set; if even that floor assignment exceeds the uplink budget, no
bitrate shuffle can help and a deletion is forced.  The sum is taken on
the fix DP's capacity grid (weights rounded up to ``granularity``), which
makes it exactly the condition under which :func:`fix_owner` finds a
combination (``docs/SOLVER.md``).  Between the floor and the merged
bitrates, the optimal substitution (Eq. 16) maximizes retained QoE — the
mandatory-pick MCKP below.

Termination: every reduction permanently removes one (publisher entity,
resolution) pair from a finite feasible set, so the KMR loop runs at most
``sum_i |resolutions_i|`` iterations (the bound ``_iteration_bound`` in
:mod:`repro.core.solver` enforces) — this is the paper's Sec. 4.1
convergence argument.  Deletions are observable three ways: the
``repro_kmr_reductions_total`` counter, ``Solution.reduced``, and the
``unfixable: removing ...`` line of each iteration that
:func:`~repro.core.explain.explain_solve` narrates (``repro trace show
--cid`` replays it for one served decision) — see
``docs/OBSERVABILITY.md``.  The step's wall clock lands under the
``kmr.reduction`` span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .constraints import Problem
from .merge import Policies
from .mckp import Item, _grid_weight, solve_mckp_dp_mandatory
from .solution import PolicyEntry
from .types import ClientId, Resolution, StreamSpec, streams_at_resolution


@dataclass(frozen=True)
class ReductionOutcome:
    """Result of Step 3 over all publishers.

    Exactly one of the two fields is set:

    Attributes:
        policies: the final, uplink-feasible policies — the algorithm
            terminates with these.
        reduce: a ``(publisher_entity, resolution)`` pair to delete from the
            feasible set before restarting from Step 1.
    """

    policies: Optional[Policies] = None
    reduce: Optional[Tuple[ClientId, Resolution]] = None

    @property
    def solved(self) -> bool:
        """True when Step 3 accepted/fixed every policy."""
        return self.policies is not None


#: One owner's policy entries, tagged by their publisher entity:
#: list of (entity, resolution, entry).
_OwnerEntries = List[Tuple[ClientId, Resolution, PolicyEntry]]


def check_uplink(entries: _OwnerEntries, budget_kbps: int) -> bool:
    """Eq. 14: does the owner's combined potential policy fit its uplink?"""
    return sum(e.bitrate_kbps for _, _, e in entries) <= budget_kbps


def _fix_candidates(
    entity: ClientId,
    res: Resolution,
    entry: PolicyEntry,
    feasible: Mapping[ClientId, Sequence[StreamSpec]],
) -> List[StreamSpec]:
    """The streams Eq. 16 may replace ``entry`` with: the entity's feasible
    streams of the entry's resolution, not above its bitrate."""
    return [
        s
        for s in streams_at_resolution(feasible.get(entity, []), res)
        if s.bitrate_kbps <= entry.bitrate_kbps
    ]


def is_fixable(
    entries: _OwnerEntries,
    feasible: Mapping[ClientId, Sequence[StreamSpec]],
    budget_kbps: int,
    granularity: int = 1,
) -> bool:
    """Eq. 17: can lowering bitrates (same resolutions kept) fit the uplink?

    True iff every entry has a replacement candidate and the cheapest
    candidates together fit, counted as :func:`fix_owner`'s DP counts
    them: on the ``granularity`` grid, weights rounded up, budget rounded
    down.  Hence ``is_fixable(...) == (fix_owner(...) is not None)``.
    """
    floor_slots = 0
    for entity, res, entry in entries:
        candidates = _fix_candidates(entity, res, entry, feasible)
        if not candidates:
            return False
        floor_slots += _grid_weight(
            min(s.bitrate_kbps for s in candidates), granularity
        )
    return floor_slots <= budget_kbps // granularity


def fix_owner(
    entries: _OwnerEntries,
    feasible: Mapping[ClientId, Sequence[StreamSpec]],
    budget_kbps: int,
    granularity: int = 1,
) -> Optional[List[Tuple[ClientId, Resolution, PolicyEntry]]]:
    """Apply the Eq. 16 fix: lower entry bitrates until the uplink fits.

    Every entry keeps its entity, resolution and audience; only the stream
    bitrate may be replaced by a lower feasible bitrate at the same
    resolution.  Among feasible replacements the QoE-maximal combination is
    chosen.

    Returns:
        The fixed entries, or ``None`` if no feasible replacement exists
        (Eq. 17 violated) — the caller must then reduce.
    """
    classes: List[List[Item]] = []
    class_candidates: List[List[StreamSpec]] = []
    for entity, res, entry in entries:
        candidates = _fix_candidates(entity, res, entry, feasible)
        if not candidates:
            return None
        candidates.sort(key=lambda s: s.bitrate_kbps)
        classes.append([(s.bitrate_kbps, s.qoe) for s in candidates])
        class_candidates.append(candidates)
    result = solve_mckp_dp_mandatory(classes, budget_kbps, granularity=granularity)
    if result is None:
        return None
    fixed: List[Tuple[ClientId, Resolution, PolicyEntry]] = []
    for (entity, res, entry), candidates, pick in zip(
        entries, class_candidates, result.picks
    ):
        fixed.append(
            (entity, res, PolicyEntry(stream=candidates[pick], audience=entry.audience))
        )
    return fixed


def highest_policy_resolution(entries: _OwnerEntries) -> Tuple[ClientId, Resolution]:
    """Eq. 18: the (entity, resolution) pair ``R~_i`` to delete when unfixable."""
    entity, res, _ = max(entries, key=lambda t: t[1])
    return entity, res


def reduction_step(
    problem: Problem,
    policies: Policies,
    feasible: Mapping[ClientId, Sequence[StreamSpec]],
    granularity: int = 1,
) -> ReductionOutcome:
    """Run Step 3 over all publishing owners.

    Owners are visited in sorted order for determinism.  The first owner
    found over budget and unfixable triggers a reduction (one per
    iteration), decided from the Eq. 14 and Eq. 17 sums alone.  Only when
    there is none are the over-budget owners fixed (:func:`fix_owner`)
    and the outcome carries the final policy map (keyed by publisher
    entity).
    """
    # Group policy entries by owning client.
    per_owner: Dict[ClientId, _OwnerEntries] = {}
    for pub in sorted(policies):
        owner = problem.owner(pub)
        for res in sorted(policies[pub], reverse=True):
            per_owner.setdefault(owner, []).append((pub, res, policies[pub][res]))

    owners = sorted(per_owner)
    #: Over-budget (but fixable) owners -> their uplink budget.
    to_fix: Dict[ClientId, int] = {}
    for owner in owners:
        entries = per_owner[owner]
        budget = problem.uplink_budget(owner)
        if check_uplink(entries, budget):
            continue
        if not is_fixable(entries, feasible, budget, granularity):
            return ReductionOutcome(reduce=highest_policy_resolution(entries))
        to_fix[owner] = budget

    final: Policies = {}
    for owner in owners:
        accepted = per_owner[owner]
        if owner in to_fix:
            accepted = fix_owner(accepted, feasible, to_fix[owner], granularity)
            assert accepted is not None, "Eq. 17 held but the fix DP found no fit"
        for entity, res, entry in accepted:
            final.setdefault(entity, {})[res] = entry
    return ReductionOutcome(policies=final)
