"""Units for the fault-injection harness and supervisor policy knobs.

Engine-level recovery behaviour (respawn, rebuild, exactly-once replay,
degraded modes) is covered end-to-end in ``test_parallel_engine.py``;
here we pin the deterministic pieces that do not need worker processes:
directive validation and matching, plan shipping, and the backoff
ladder's arithmetic.
"""

import pytest

from repro.concurrency import FaultDirective, FaultPlan, WorkerSupervisor
from repro.concurrency.supervise import match_faults
from repro.errors import ReproError


class TestFaultDirective:
    def test_validation(self):
        with pytest.raises(ReproError):
            FaultDirective(0, "explode")
        with pytest.raises(ReproError):
            FaultDirective(0, "kill", when="during")
        with pytest.raises(ReproError):
            FaultDirective(0, "kill", nth=0)

    def test_roundtrips_to_dict(self):
        d = FaultDirective(2, "delay", op="scan_many", nth=3,
                           delay_s=0.25, incarnation=1)
        assert FaultDirective(**d.to_dict()) == d


class TestFaultPlan:
    def test_builder_accumulates_and_filters_by_worker(self):
        plan = (
            FaultPlan()
            .kill(1, op="get_many", nth=2)
            .drop_reply(0, op="write_many")
            .delay(1, seconds=0.1, incarnation=1)
        )
        assert len(plan.directives) == 3
        mine = plan.for_worker(1)
        assert [d["action"] for d in mine] == ["kill", "delay"]
        assert plan.for_worker(0)[0]["action"] == "drop"
        assert plan.for_worker(7) == []
        # Shipped form is plain picklable dicts.
        assert all(isinstance(d, dict) for d in mine)


class TestMatchFaults:
    def _plan(self):
        return (
            FaultPlan()
            .kill(0, op="get_many", nth=2)
            .kill(0, op="write_many", nth=1, when="after")
            .drop_reply(0, op="get_many", nth=3)
            .kill(0, op="get_many", nth=1, incarnation=1)
        ).for_worker(0)

    def test_matches_op_ordinal_phase(self):
        ds = self._plan()
        assert match_faults(ds, 0, "get_many", 1, "before") == []
        hit = match_faults(ds, 0, "get_many", 2, "before")
        assert [d["action"] for d in hit] == ["kill"]
        # 'after' kills only match the after phase.
        assert match_faults(ds, 0, "write_many", 1, "before") == []
        assert [
            d["when"] for d in match_faults(ds, 0, "write_many", 1, "after")
        ] == ["after"]
        # Drops always match after (served, reply withheld).
        assert [
            d["action"] for d in match_faults(ds, 0, "get_many", 3, "after")
        ] == ["drop"]

    def test_incarnation_pinning(self):
        ds = self._plan()
        assert match_faults(ds, 1, "get_many", 2, "before") == []
        hit = match_faults(ds, 1, "get_many", 1, "before")
        assert [d["incarnation"] for d in hit] == [1]

    def test_wildcard_op_matches_any_command(self):
        ds = FaultPlan().kill(0, nth=2).for_worker(0)
        assert match_faults(ds, 0, "get_many", 2, "before")
        assert match_faults(ds, 0, "scan_many", 2, "before")
        assert match_faults(ds, 0, "get_many", 1, "before") == []


class _FakeEngine:
    workers = 3


class TestSupervisorPolicy:
    def test_config_validation(self):
        with pytest.raises(ReproError):
            WorkerSupervisor(_FakeEngine(), degraded="maybe")
        with pytest.raises(ReproError):
            WorkerSupervisor(_FakeEngine(), restart_budget=-1)

    def test_backoff_ladder_is_bounded_exponential(self):
        sup = WorkerSupervisor(
            _FakeEngine(), restart_budget=5,
            backoff_base_s=0.1, backoff_cap_s=0.35,
        )
        delays = [
            min(sup.backoff_base_s * (2 ** k), sup.backoff_cap_s)
            for k in range(5)
        ]
        assert delays == [0.1, 0.2, 0.35, 0.35, 0.35]

    def test_initial_books_per_worker(self):
        sup = WorkerSupervisor(_FakeEngine(), restart_budget=2)
        assert sup.restarts_used == [0, 0, 0]
        assert sup.last_recovery_s == [None, None, None]
