"""The shared soak kernel: outcome ledger, replay loop, verdicts."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigError, QueryRejectedError
from repro.integrity.soak import IntegritySoakReport
from repro.prediction.soak import PredictionSoakReport
from repro.resilience.clock import ManualClock
from repro.resilience.soak import (
    OUTCOME_STATUSES,
    LedgerView,
    OutcomeLedger,
    replay,
    verdict,
)
from repro.serving.cluster import ClusterMetrics
from repro.serving.cluster_soak import ClusterSoakReport
from repro.serving.server import DrainReport, ServingMetrics
from repro.serving.soak import SoakReport
from repro.streaming import DegradationSpec
from repro.streaming.soak import StreamSoakReport


class TestOutcomeLedger:
    def test_record_counts_each_terminal_state(self):
        ledger = OutcomeLedger(submitted=len(OUTCOME_STATUSES))
        assert not ledger.accounted
        for status in OUTCOME_STATUSES:
            ledger.record(status)
        assert ledger.accounted
        assert ledger.terminal == 5
        assert ledger.answered == 2
        assert ledger.shed_rate == pytest.approx(0.2)

    def test_unknown_status_is_refused(self):
        with pytest.raises(ConfigError, match="unknown outcome status"):
            OutcomeLedger().record("lost")

    def test_total_sums_field_wise_in_stable_order(self):
        a = OutcomeLedger(submitted=3, served=1, shed=2)
        b = OutcomeLedger(submitted=2, failed=1, deadline_exceeded=1)
        total = OutcomeLedger.total([a, b])
        assert total.as_dict() == {
            "submitted": 5, "served": 1, "served_degraded": 0, "shed": 2,
            "deadline_exceeded": 1, "failed": 1,
        }
        assert list(total.as_dict()) == ["submitted", *OUTCOME_STATUSES]
        assert total.accounted

    def test_empty_ledger_has_zero_shed_rate(self):
        assert OutcomeLedger().shed_rate == 0.0


@dataclasses.dataclass(frozen=True)
class _Report(LedgerView):
    ledger: OutcomeLedger
    name: str = "r"


class TestLedgerView:
    def test_ledger_fields_read_as_the_reports(self):
        report = _Report(OutcomeLedger(submitted=2, served=1, shed=1))
        assert (report.submitted, report.served, report.shed) == (2, 1, 1)
        assert report.accounted and report.answered == 1
        assert report.shed_rate == 0.5

    def test_other_names_still_raise(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            _Report(OutcomeLedger()).nope


@dataclasses.dataclass(frozen=True)
class _Event:
    at_s: float
    name: str


class _System:
    """Records the replay's calls; one queued unit of work per submit."""

    def __init__(self):
        self.clock = ManualClock()
        self.log = []
        self.pending = 0

    def run_until(self, t):
        while self.pending and self.clock.now() < t:
            self.pending -= 1
            self.clock.advance(0.25)
            self.log.append(("ran", self.clock.now()))

    def apply_fault(self, event):
        self.log.append(("fault", event.name, self.clock.now()))


class TestReplay:
    def test_faults_land_before_arrivals_and_work_runs_between(self):
        system = _System()

        def submit(arrival, index):
            system.log.append(("submit", arrival.name, index,
                               system.clock.now()))
            system.pending += 1

        arrivals = [_Event(1.0, "b"), _Event(0.0, "a"), _Event(1.0, "c")]
        n = replay(system, arrivals, submit, faults=[_Event(1.0, "crash")])
        assert n == 3
        assert system.log == [
            ("submit", "a", 0, 0.0),
            ("ran", 0.25),
            ("fault", "crash", 1.0),
            ("submit", "b", 1, 1.0),
            ("submit", "c", 2, 1.0),
        ]

    def test_rejections_do_not_stop_the_replay(self):
        system = _System()
        seen = []

        def submit(arrival, index):
            seen.append(arrival.name)
            raise QueryRejectedError("queue_full", "batch", "full")

        arrivals = [_Event(0.0, "a"), _Event(0.5, "b")]
        assert replay(system, arrivals, submit) == 2
        assert seen == ["a", "b"]
        assert system.clock.now() == 0.5


class TestVerdict:
    def test_first_problem_decides(self):
        assert verdict(()) == 0
        assert verdict(((3, "blind"), (2, "open"))) == 3


def _drain(leftover=0):
    return DrainReport(completed=1, leftover_pending=leftover, in_flight=0)


class TestReportProblems:
    def test_serving_soak(self):
        report = SoakReport(
            arrivals=2, ledger=OutcomeLedger(submitted=2, served=2),
            drain=_drain(), metrics=ServingMetrics(per_class=()),
            final_clock_s=1.0,
        )
        assert report.problems() == ()
        broken = dataclasses.replace(
            report, ledger=OutcomeLedger(submitted=2, served=1),
            drain=_drain(leftover=1),
        )
        assert [code for code, _ in broken.problems()] == [2, 2]
        assert broken.problems()[0][1] == (
            "accounting violation: submitted != sum(terminal states)"
        )
        assert broken.problems()[1][1].startswith("drain left work behind")

    def test_cluster_soak_total_outage_exits_3(self):
        metrics = ClusterMetrics(
            replicas=(), router_shed=(("no_replica", 3),), tenants=(),
            submitted=3, routed=(), rebalances=0,
        )
        report = ClusterSoakReport(
            arrivals=3, fault_events=0, ledger=metrics.ledger(),
            router_shed=metrics.router_shed,
            drain={"completed": 0, "failed_at_drain": 0, "leftover": 0},
            metrics=metrics, final_router_clock_s=1.0,
            final_replica_clocks_s=(),
        )
        assert report.accounted
        assert report.problems() == ((3, "total outage: nothing was served"),)
        leftover = dataclasses.replace(
            report, drain={"completed": 0, "failed_at_drain": 0,
                           "leftover": 2},
        )
        assert leftover.problems()[0] == (
            2, "drain left 2 queries behind"
        )
        assert verdict(leftover.problems()) == 2

    def test_prediction_soak_overrun_beyond_one_batch(self):
        report = PredictionSoakReport(
            arrivals=4, ledger=OutcomeLedger(submitted=4, served=4),
            batches=1, fallback_batches=0, mean_coalesced=4.0,
            p50_latency_s=0.01, p99_latency_s=0.02, max_overrun_s=0.0,
            batch_cost_s=0.01, drain=_drain(), final_clock_s=1.0,
        )
        assert report.problems() == ()
        late = dataclasses.replace(report, max_overrun_s=0.05)
        assert late.problems() == ((
            3, "deadline violation: answered 0.0500s over budget "
               "(> one batch cost 0.0100s)",
        ),)

    def test_stream_soak_ledger_then_blindness(self):
        spec = DegradationSpec(at_s=10.0, duration_s=5.0)
        counters = {"emitted": 5, "aggregated": 4, "late_dropped": 0,
                    "late_side": 0, "deduped": 1, "quarantined": 0}
        report = StreamSoakReport(
            seed=1, duration_s=60.0, n_records=4, n_deliveries=5,
            counters=counters, digest="0" * 64, change_points=(),
            degradations=(spec,), detected=0, crashes=0,
        )
        assert report.accounted == 5 and report.ledger_closed
        assert report.problems(blind_threshold=1.0) == ()
        [(code, message)] = report.problems()
        assert code == 3 and message.startswith("detector blind: 0/1")
        leaky = dataclasses.replace(
            report, counters={**counters, "emitted": 6}
        )
        assert [c for c, _ in leaky.problems()] == [2, 3]

    def test_integrity_soak_violations_before_ineffective(self):
        report = IntegritySoakReport(
            seed=1, eps_grid=(0.0,), mos_bound=0.25, polarity_bound=0.05,
            clean_mos=4.0, clean_polarity=0.1, rows=(), boundary_parsed=0,
            boundary_dropped=0, boundary_quarantined={},
            violations=("mos escaped",), ineffective=("naive held",),
        )
        assert report.problems() == (
            (2, "integrity violation: mos escaped"),
            (3, "sweep ineffective: naive held"),
        )
        assert report.exit_code == 2
        assert dataclasses.replace(report, violations=()).exit_code == 3


class TestCliExitPath:
    def test_soak_problems_reach_stderr_and_exit_code(
        self, monkeypatch, capsys
    ):
        import repro.serving.soak as soak
        from repro.cli import main

        real = soak.run_soak

        def leaky(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(report, drain=_drain(leftover=1))

        monkeypatch.setattr(soak, "run_soak", leaky)
        code = main(["usaas", "soak", "--seed", "7", "--duration-s", "0.5",
                     "--json"])
        assert code == 2
        assert capsys.readouterr().err == (
            "drain left work behind: drain: 1 completed, 1 leftover "
            "pending, 0 in flight\n"
        )
