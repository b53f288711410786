"""Unit tests for the fault vocabulary and schedule composition."""

import pytest

from repro.chaos import faults as F
from repro.chaos.faults import Fault, FaultSchedule


class TestFault:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            Fault(-1.0, F.KILL_SHARD)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Fault(1.0, "meteor_strike")

    def test_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            Fault(1.0, F.DELAY_REPORT, factor=-0.5)

    def test_shifted_moves_time_only(self):
        f = Fault(2.0, F.LOSE_TMMBR, target="m1")
        g = f.shifted(3.5)
        assert g.at_s == 5.5
        assert (g.kind, g.target) == (f.kind, f.target)
        assert f.at_s == 2.0  # original untouched (frozen)

    def test_to_dict_round_trips_fields(self):
        f = Fault(1.5, F.DOWNLINK_COLLAPSE, target="m0", client="A", factor=0.2)
        assert f.to_dict() == {
            "at_s": 1.5,
            "kind": F.DOWNLINK_COLLAPSE,
            "target": "m0",
            "client": "A",
            "factor": 0.2,
        }

    def test_every_kind_is_constructible(self):
        for kind in F.FAULT_KINDS:
            assert Fault(0.0, kind).kind == kind


class TestFaultSchedule:
    def test_add_keeps_timeline_sorted(self):
        s = (
            FaultSchedule()
            .add(Fault(5.0, F.KILL_SHARD))
            .add(Fault(1.0, F.LOSE_TMMBR))
            .add(Fault(3.0, F.DROP_REPORT))
        )
        assert [f.at_s for f in s] == [1.0, 3.0, 5.0]

    def test_merge_combines_without_mutating(self):
        a = FaultSchedule([Fault(1.0, F.LOSE_TMMBR)])
        b = FaultSchedule([Fault(0.5, F.KILL_SHARD)])
        merged = a.merge(b)
        assert len(merged) == 2
        assert len(a) == 1 and len(b) == 1
        assert merged.faults[0].at_s == 0.5

    def test_shifted_schedule(self):
        s = FaultSchedule([Fault(1.0, F.LOSE_TMMBR)]).shifted(2.0)
        assert s.faults[0].at_s == 3.0

    def test_until_truncates(self):
        s = FaultSchedule(
            [Fault(1.0, F.LOSE_TMMBR), Fault(9.0, F.KILL_SHARD)]
        ).until(5.0)
        assert [f.at_s for f in s] == [1.0]

    def test_deterministic_order_for_same_time(self):
        faults = [
            Fault(1.0, F.LOSE_TMMBR, target="m1"),
            Fault(1.0, F.DROP_REPORT, target="m0"),
            Fault(1.0, F.LOSE_TMMBR, target="m0"),
        ]
        a = FaultSchedule(faults)
        b = FaultSchedule(reversed(faults))
        assert a.to_dicts() == b.to_dicts()


class TestSeededSchedule:
    def test_same_seed_same_schedule(self):
        kwargs = dict(
            duration_s=10.0,
            meeting_ids=["m0", "m1"],
            shard_names=["shard-0", "shard-1"],
        )
        a = FaultSchedule.seeded(7, **kwargs)
        b = FaultSchedule.seeded(7, **kwargs)
        assert a.to_dicts() == b.to_dicts()
        assert len(a) == 8

    def test_different_seeds_differ(self):
        kwargs = dict(
            duration_s=10.0,
            meeting_ids=["m0", "m1"],
            shard_names=["shard-0", "shard-1"],
        )
        a = FaultSchedule.seeded(1, **kwargs)
        b = FaultSchedule.seeded(2, **kwargs)
        assert a.to_dicts() != b.to_dicts()

    def test_single_shard_never_draws_shard_death(self):
        s = FaultSchedule.seeded(
            3,
            duration_s=10.0,
            meeting_ids=["m0"],
            shard_names=["shard-0"],
            faults=40,
        )
        kinds = {f.kind for f in s}
        assert F.KILL_SHARD not in kinds
        assert F.RESTART_SHARD not in kinds

    def test_kind_restriction(self):
        s = FaultSchedule.seeded(
            5,
            duration_s=10.0,
            meeting_ids=["m0"],
            shard_names=[],
            faults=10,
            kinds=[F.LOSE_TMMBR],
        )
        assert {f.kind for f in s} == {F.LOSE_TMMBR}

    def test_faults_land_inside_duration(self):
        s = FaultSchedule.seeded(
            9,
            duration_s=6.0,
            meeting_ids=["m0"],
            shard_names=["shard-0", "shard-1"],
            faults=30,
        )
        assert all(0.0 < f.at_s < 6.0 for f in s)


class TestDocsMatch:
    """``docs/RESILIENCE.md`` tables where every fault kind enters the
    control loop; the table is pinned to ``FAULT_KINDS``."""

    ENTRIES = {
        "stream event", "stream window", "backend hook", "simulator action",
    }

    def rows(self):
        import re
        from pathlib import Path

        doc = Path(__file__).resolve().parents[2] / "docs" / "RESILIENCE.md"
        return dict(
            re.findall(r"^\| `(\w+)` \| ([a-z ]+) \|", doc.read_text(), re.M)
        )

    def test_every_fault_kind_has_exactly_one_row(self):
        assert sorted(self.rows()) == sorted(F.FAULT_KINDS)

    def test_enters_as_is_one_of_the_four_entry_points(self):
        rows = self.rows()
        assert set(rows.values()) == self.ENTRIES
        # The two kinds the stream-fault mapping handles are the windows.
        windows = {k for k, v in rows.items() if v == "stream window"}
        assert windows == {F.DROP_REPORT, F.DELAY_REPORT}
        actions = {k for k, v in rows.items() if v == "simulator action"}
        assert actions == set(F.SHARD_KINDS) - {F.OVERLOAD_SHARD}
