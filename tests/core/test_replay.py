"""A re-decided meeting replays its last solve, and must not show it.

``GsoSolver.solve_with_stats(problem, warm=run)`` restarts from the
trajectory the run recorded and answers, merges and checks only what the
changed link reports touch (``docs/SOLVER.md``, "Replaying the previous
decision").  The gate is a *sequence* differential: a meeting is walked
through random steps, and after every step the replayed solve, a cold
solve and the from-scratch reference loop of ``tests/core/reference.py``
must agree on the Solution's pickle bytes, the iteration count and the
reduction sequence.  Pickle bytes, because pickle memoises by identity:
a replay that mixed the previous picture's objects into the Solution
would be ``==`` and still differ.

CI runs this file under ``PYTHONHASHSEED=1`` and ``=2`` as well: audience
``frozenset`` order and string identity are what a replay could leak.
"""

import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import solver as solver_module
from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.solver import GsoSolver, KmrRun, SolverConfig
from repro.core.types import Resolution
from repro.core.virtual import ProblemBuilder, screen_id, virtual_id
from repro.obs import names as obs_names
from repro.obs.registry import enabled_registry

from .reference import reference_solve
from .test_incremental import GENERATORS, problems
from .test_incremental import _webinar as tight_webinar

GRANULARITY = 25
SOLVER = GsoSolver(SolverConfig(granularity_kbps=GRANULARITY))


def _webinar():
    """The 118-client webinar (one viewer shape, every downlink different)
    with three uplinks tight enough for six deletions of two resolutions;
    the from-scratch reference pays 118 knapsacks for each."""
    return tight_webinar(uplinks=(350, 420, 480, 1000, 1000, 2600, 2600, 2600))


def _speaker_first():
    """Virtual publishers and a screen share: aliases and owners."""
    ladder = problems.ladder_with_levels(9)
    builder = ProblemBuilder()
    clients = [f"K{k}" for k in range(6)]
    for k, client in enumerate(clients):
        builder.add_client(client, Bandwidth(500 + 150 * k, 900 + 400 * k), ladder)
    screen = builder.add_screen_share("K1", problems.ladder_with_levels(6))
    for a in clients:
        for b in clients:
            if a == b:
                continue
            if b == "K0":
                builder.subscribe_dual(a, b)
            else:
                builder.subscribe(a, b, Resolution.P360)
        if a != "K1":
            builder.subscribe(a, screen)
    return builder.build()


STARTS = dict(GENERATORS, webinar=_webinar, speaker_first=_speaker_first)


def _fresh(text):
    """An equal ``str`` that is a new, non-interned object."""
    return str(text.encode("utf-8"), "utf-8")


class Meeting:
    """The mutable state a meeting's pictures are rebuilt from, the way a
    world that keeps client state and not ``Problem`` parts rebuilds them."""

    def __init__(self, problem):
        self.ladders = {p: list(s) for p, s in problem.feasible_streams.items()}
        self.full_ladders = dict(self.ladders)
        self.bandwidth = {
            c: [b.uplink_kbps, b.downlink_kbps, b.audio_protection_kbps]
            for c, b in problem.bandwidth.items()
        }
        self.edges = [
            (e.subscriber, e.publisher, e.max_resolution)
            for e in problem.subscriptions
        ]
        self.aliases = dict(problem.aliases)
        self.owners = problem.owners
        self.joined = 0
        #: Spell every id as a new ``str`` object in each picture.
        self.fresh_ids = False
        #: Rebuild every ladder from new ``StreamSpec`` objects per picture.
        self.fresh_ladders = False

    # -- read ------------------------------------------------------------ #

    def picture(self):
        name = _fresh if self.fresh_ids else (lambda text: text)
        ladders = self.ladders
        if self.fresh_ladders:
            ladders = {
                p: [dataclasses.replace(s) for s in streams]
                for p, streams in ladders.items()
            }
        return Problem(
            {name(p): streams for p, streams in ladders.items()},
            {name(c): Bandwidth(*b) for c, b in self.bandwidth.items()},
            [Subscription(name(a), name(b), cap) for a, b, cap in self.edges],
            aliases={name(v): name(t) for v, t in self.aliases.items()},
            owners={name(e): name(o) for e, o in self.owners.items()},
        )

    @property
    def subscribers(self):
        return sorted({a for a, _, _ in self.edges})

    @property
    def owning_clients(self):
        return sorted({self.owners.get(p, p) for p in self.ladders})

    # -- steps: a link report -------------------------------------------- #

    def viewer_within_bucket(self, rng):
        """A downlink moves and stays in its DP bucket: a new Bandwidth,
        the same Step-1 answer."""
        b = self.bandwidth[rng.choice(self.subscribers)]
        effective = max(0, b[1] - b[2])
        b[1] = effective - effective % GRANULARITY + rng.randrange(GRANULARITY) + b[2]

    def viewer_across_buckets(self, rng):
        b = self.bandwidth[rng.choice(self.subscribers)]
        b[1] = max(75, int(b[1] * rng.uniform(0.3, 2.5)))

    def uplink_nudge(self, rng):
        """A few kbps: usually the same deletions."""
        b = self.bandwidth[rng.choice(self.owning_clients)]
        b[0] = max(50, b[0] + rng.choice([-7, -3, 3, 7]))

    def uplink_scale(self, rng):
        """Usually another deletion sequence."""
        b = self.bandwidth[rng.choice(self.owning_clients)]
        b[0] = max(50, int(b[0] * rng.uniform(0.4, 2.2)))

    def uplink_collapse(self, rng):
        """Below the cheapest rung: every resolution is deleted."""
        self.bandwidth[rng.choice(self.owning_clients)][0] = rng.choice([0, 60])

    def uplink_recover(self, rng):
        self.bandwidth[rng.choice(self.owning_clients)][0] = 6000

    def two_clients(self, rng):
        self.viewer_across_buckets(rng)
        rng.choice([self.uplink_nudge, self.uplink_scale, self.viewer_across_buckets])(rng)

    def resubmit(self, rng):
        """Nothing changed; the picture is rebuilt all the same."""

    # -- steps: anything else -------------------------------------------- #

    def join(self, rng):
        client = f"Z{self.joined:02d}"
        self.joined += 1
        self.bandwidth[client] = [400, rng.choice([700, 1800, 5000]), 0]
        self.edges += [
            (client, p, Resolution.P720) for p in self.ladders if p != client
        ]

    def leave(self, rng):
        if len(self.bandwidth) <= 3:
            return
        client = rng.choice(sorted(self.bandwidth))
        gone = {p for p in self.ladders if self.owners.get(p, p) == client}
        gone |= {v for v, t in self.aliases.items() if t in gone}
        del self.bandwidth[client]
        for p in gone:
            self.ladders.pop(p, None)
            self.aliases.pop(p, None)
            self.owners.pop(p, None)
        self.edges = [
            (a, b, cap) for a, b, cap in self.edges if a != client and b not in gone
        ]

    def preference_flip(self, rng):
        client = rng.choice(self.subscribers)
        self.edges = [
            (
                a,
                b,
                cap
                if a != client
                else (Resolution.P360 if cap == Resolution.P720 else Resolution.P720),
            )
            for a, b, cap in self.edges
        ]

    def feasible_set_change(self, rng):
        """A publisher loses its top rung, or gets its ladder back."""
        pub = rng.choice(sorted(self.ladders))
        if len(self.ladders[pub]) > 2 and rng.random() < 0.7:
            self.ladders[pub] = sorted(self.ladders[pub])[:-1]
        else:
            self.ladders[pub] = self.full_ladders.get(pub, self.ladders[pub])

    def screen_share_toggle(self, rng):
        """An owner map change: a client starts or stops a second entity."""
        client = rng.choice(self.owning_clients)
        entity = screen_id(client)
        if entity in self.ladders:
            del self.ladders[entity]
            del self.owners[entity]
            self.edges = [e for e in self.edges if e[1] != entity]
        elif client in self.ladders:
            self.ladders[entity] = problems.ladder_with_levels(6)
            self.owners[entity] = client
            self.edges += [
                (a, entity, Resolution.P720) for a in self.subscribers if a != client
            ][:3]

    def dual_stream_toggle(self, rng):
        """An alias map change: speaker-first on or off for one edge."""
        a, b, _ = rng.choice(self.edges)
        target = self.aliases.get(b, b)
        virtual = virtual_id(target, tag=f"@{a}")
        if virtual in self.aliases:
            del self.aliases[virtual]
            self.edges = [e for e in self.edges if e[1] != virtual]
        elif target in self.ladders:
            self.aliases[virtual] = target
            self.edges.append((a, virtual, Resolution.P180))

    def respell_ids(self, rng):
        self.fresh_ids = not self.fresh_ids

    def rebuild_ladders(self, rng):
        self.fresh_ladders = not self.fresh_ladders


REPORTS = (
    "viewer_within_bucket",
    "viewer_across_buckets",
    "uplink_nudge",
    "uplink_scale",
    "uplink_collapse",
    "uplink_recover",
    "two_clients",
    "resubmit",
)
OTHERS = (
    "join",
    "leave",
    "preference_flip",
    "feasible_set_change",
    "screen_share_toggle",
    "dual_stream_toggle",
    "respell_ids",
    "rebuild_ladders",
)


def check(meeting, run, solver=SOLVER):
    """One decision, three ways; returns the replayed and the cold stats."""
    problem = meeting.picture()
    warm, warm_stats = solver.solve_with_stats(problem, warm=run)
    assert run.problem is problem
    # The other two get a picture of their own: nothing lazily cached on
    # the replayed one, and under ``respell_ids`` other string objects.
    cold, cold_stats = solver.solve_with_stats(meeting.picture())
    want, iterations, reductions = reference_solve(
        meeting.picture(), solver.config, python_dp=False
    )
    assert pickle.dumps(warm) == pickle.dumps(want)
    assert pickle.dumps(cold) == pickle.dumps(want)
    assert warm_stats.iterations == cold_stats.iterations == iterations
    assert warm_stats.reductions == cold_stats.reductions == reductions
    assert warm_stats.engine.step1_solved <= cold_stats.engine.step1_solved
    return warm_stats, cold_stats


def decided_thrice(problem):
    """A meeting and its run after three decisions of ``problem``: two
    remember the picture, the third records its steps.  None replays, and
    cold solves are ``test_incremental``'s to compare."""
    meeting = Meeting(problem)
    run = KmrRun()
    for _ in range(KmrRun.RECORD_FROM):
        assert run.steps == ()
        SOLVER.solve(meeting.picture(), warm=run)
    assert run.steps
    return meeting, run


def walk(start, kinds, seed):
    """One decision per step of a thrice-decided ``start``; returns how
    many Step-1 answers the replays carried over."""
    rng = random.Random(seed)
    meeting, run = decided_thrice(STARTS[start]())
    carried = 0
    for kind in kinds:
        getattr(meeting, kind)(rng)
        warm_stats, cold_stats = check(meeting, run)
        carried += cold_stats.engine.step1_solved - warm_stats.engine.step1_solved
    return carried


class TestSequenceDifferential:
    @settings(max_examples=20, deadline=None)
    @given(
        start=st.sampled_from(sorted(STARTS)),
        kinds=st.lists(st.sampled_from(REPORTS + REPORTS + OTHERS), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    def test_replayed_cold_and_reference_agree_after_every_step(
        self, start, kinds, seed
    ):
        walk(start, kinds, seed)

    @pytest.mark.parametrize("start", sorted(STARTS))
    def test_fixed_seed_walks(self, start):
        # The deterministic twin of the property: every kind of step once,
        # a report before each of the others so that replays happen.
        rng = random.Random(start)
        kinds = []
        for report, other in zip(
            rng.sample(REPORTS, len(REPORTS)), rng.sample(OTHERS, len(OTHERS))
        ):
            kinds += [report, other]
        assert walk(start, kinds, seed=1) > 0, "no step was ever replayed"

    def test_a_walk_of_reports_only_replays_every_step(self):
        meeting, run = decided_thrice(_webinar())
        rng = random.Random(7)
        for kind in REPORTS:
            before = run.steps
            getattr(meeting, kind)(rng)
            warm_stats, cold_stats = check(meeting, run)
            assert run.steps and run.steps is not before
            assert (
                warm_stats.engine.step1_solved < cold_stats.engine.step1_solved
            ), kind


class TestWhatAReplaySolves:
    def test_one_moved_viewer_is_the_only_step1_answer(self):
        meeting, run = decided_thrice(_webinar())
        meeting.bandwidth["V042"][1] = 400
        warm_stats, cold_stats = check(meeting, run)
        everyone = len(meeting.subscribers)
        assert cold_stats.engine.step1_solved >= everyone
        # One answer per iteration the viewer is asked in, at most.
        assert 1 <= warm_stats.engine.step1_solved <= warm_stats.iterations
        assert warm_stats.engine.step1_solved < cold_stats.engine.step1_solved
        # "Skipped" counts answers carried over, from the previous
        # iteration or from the previous decision.
        assert warm_stats.engine.step1_skipped == (
            warm_stats.iterations * everyone - warm_stats.engine.step1_solved
        )
        assert cold_stats.engine.step1_skipped == (
            cold_stats.iterations * everyone - cold_stats.engine.step1_solved
        )

    def test_the_skipped_counter_counts_what_the_stats_count(self):
        meeting, run = decided_thrice(_webinar())
        meeting.bandwidth["V042"][1] = 400
        with enabled_registry() as reg:
            _, stats = SOLVER.solve_with_stats(meeting.picture(), warm=run)
            skipped = reg.counter(obs_names.KMR_STEP1_SKIPPED).value
        assert skipped == stats.engine.step1_skipped > 0

    def test_an_unchanged_resubmit_answers_nobody(self):
        meeting, run = decided_thrice(_webinar())
        warm_stats, _ = check(meeting, run)
        assert warm_stats.engine.step1_solved == 0

    def test_unchanged_steps_run_no_merge_work_and_no_reduction(self, monkeypatch):
        meeting, run = decided_thrice(_webinar())
        calls = []
        step3 = solver_module.reduction_step
        monkeypatch.setattr(
            solver_module,
            "reduction_step",
            lambda *a, **k: calls.append(a) or step3(*a, **k),
        )
        before = run.steps
        problem = meeting.picture()
        SOLVER.solve_with_stats(problem, warm=run)
        assert not calls
        # Nothing moved: every recorded policy map is carried as it is.
        assert [s.policies for s in run.steps] == [s.policies for s in before]
        assert all(a.policies is b.policies for a, b in zip(run.steps, before))
        # An owner's uplink moved: Step 3 is checked again, every iteration.
        meeting.bandwidth["P3"][0] += 1
        _, stats = SOLVER.solve_with_stats(meeting.picture(), warm=run)
        assert len(calls) == stats.iterations

    def test_a_run_given_another_meetings_picture_is_still_exact(self):
        # Two webinars over one edge list share a topology value and
        # differ in every budget: the webinar_large situation.  A run
        # belongs to one meeting; handing it the other's picture must be
        # harmless all the same.
        ours, run = decided_thrice(_webinar())
        theirs = Meeting(_webinar())
        for k, b in enumerate(theirs.bandwidth.values()):
            b[0] += 11 + k
            b[1] += 13 + 2 * k
        assert theirs.picture().same_topology(run.problem)
        check(theirs, run)
        check(ours, run)


class TestWhenARunIsKept:
    def test_steps_are_kept_from_the_third_solve_in_a_row_over_one_topology(self):
        meeting = Meeting(GENERATORS["gallery"]())
        run = KmrRun()
        rng = random.Random(1)
        assert (run.problem, run.streak, run.steps) == (None, 0, ())
        for streak in (1, 2):
            check(meeting, run)
            assert (run.streak, run.steps) == (streak, ())
            meeting.viewer_across_buckets(rng)
        check(meeting, run)
        assert run.streak == 3
        assert len(run.steps) == SOLVER.solve(meeting.picture()).iterations
        # Another edge list starts over.
        meeting.join(rng)
        check(meeting, run)
        assert (run.streak, run.steps) == (1, ())

    def test_a_meeting_whose_every_solve_changes_topology_keeps_none(self):
        meeting = Meeting(GENERATORS["gallery"]())
        run = KmrRun()
        rng = random.Random(3)
        check(meeting, run)
        for _ in range(4):
            meeting.join(rng)
            check(meeting, run)
            assert (run.streak, run.steps) == (1, ())

    def test_two_in_a_row_then_a_change_keeps_none(self):
        # churn_storm's usual history: a link report, then a join.
        meeting = Meeting(GENERATORS["mesh_small"]())
        run = KmrRun()
        rng = random.Random(5)
        for _ in range(3):
            check(meeting, run)
            meeting.viewer_across_buckets(rng)
            check(meeting, run)
            assert (run.streak, run.steps) == (2, ())
            meeting.join(rng)

    def test_incumbent_and_exhaustive_solves_neither_replay_nor_record(self):
        meeting, run = decided_thrice(problems.mesh_meeting(4, 6, seed=1))
        problem = meeting.picture()
        first = SOLVER.solve(problem)
        incumbent = {
            (sub, pub): stream.resolution
            for sub, per_pub in first.assignments.items()
            for pub, stream in per_pub.items()
        }
        sticky, _ = SOLVER.solve_with_stats(problem, incumbent=incumbent, warm=run)
        assert run.steps == () and run.problem is problem
        assert pickle.dumps(sticky) == pickle.dumps(
            SOLVER.solve(meeting.picture(), incumbent=incumbent)
        )
        check(meeting, run)
        assert run.steps
        brute = GsoSolver(
            SolverConfig(granularity_kbps=GRANULARITY, exhaustive_step1=True)
        )
        brute.solve(meeting.picture(), warm=run)
        assert run.steps == ()

    def test_another_config_does_not_replay(self):
        meeting, run = decided_thrice(_webinar())
        exact = GsoSolver(SolverConfig(granularity_kbps=10))
        warm_stats, cold_stats = check(meeting, run, exact)
        assert warm_stats.engine.step1_solved == cold_stats.engine.step1_solved
        assert run.config == exact.config
        warm_stats, cold_stats = check(meeting, run, exact)
        assert warm_stats.engine.step1_solved == 0

    def test_a_solve_that_raises_leaves_the_run_as_it_was(self, monkeypatch):
        meeting, run = decided_thrice(_webinar())
        kept = (run.problem, run.config, run.steps)
        meeting.bandwidth["P2"][0] = 60

        def poisoned(*args, **kwargs):
            raise RuntimeError("poisoned")

        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "reduction_step", poisoned)
            with pytest.raises(RuntimeError, match="poisoned"):
                SOLVER.solve(meeting.picture(), warm=run)
        assert (run.problem, run.config, run.steps) == kept
        assert all(a is b for a, b in zip(run.steps, kept[2]))
        check(meeting, run)
