"""Deterministic overload soak for the prediction serving path.

Drives a coalescer-equipped :class:`~repro.serving.server.UsaasServer`
with a seeded arrival schedule of ``predict_mos`` queries on a
:class:`~repro.resilience.clock.ManualClock`, then closes the books:
every submitted prediction must land in exactly one terminal state, and
any query that carried a deadline and was *answered* must have overrun
it by at most one batch cost (the degradation ladder's invariant).

Arrivals replay through the shared soak kernel
(:func:`repro.resilience.soak.replay`); while idle, the server's
:meth:`~repro.serving.server.UsaasServer.run_until` advances the clock
in steps no larger than half the coalescer's ``max_delay_s``, so
age-due flushes happen promptly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.usaas.query import UsaasQuery
from repro.errors import ConfigError
from repro.perf.columnar import ParticipantColumns
from repro.prediction.coalescer import CoalescerConfig
from repro.prediction.model import ColumnarMosPredictor
from repro.prediction.service import PredictionCostModel, PredictionEngine
from repro.resilience.clock import ManualClock
from repro.resilience.faults import Arrival, FaultPlan
from repro.resilience.soak import LedgerView, OutcomeLedger, Problem, replay
from repro.serving.server import DrainReport, UsaasServer


@dataclass(frozen=True)
class PredictionSoakReport(LedgerView):
    """Closed-books summary of one prediction soak."""

    arrivals: int
    ledger: OutcomeLedger
    batches: int
    fallback_batches: int
    mean_coalesced: float
    p50_latency_s: Optional[float]
    p99_latency_s: Optional[float]
    max_overrun_s: float
    #: Cost of one full coalesced batch: the most an answered query
    #: may overrun its deadline by.
    batch_cost_s: float
    drain: DrainReport
    final_clock_s: float

    def problems(self) -> Tuple[Problem, ...]:
        """Broken serving invariants, in exit-code order (all code 3)."""
        out = []
        if not self.accounted:
            out.append((3, "accounting violation: submitted != sum(terminal "
                           "states) for predict_mos"))
        if self.deadline_exceeded:
            out.append((3, f"deadline violation: {self.deadline_exceeded} "
                           f"prediction(s) answered past their budget"))
        if self.max_overrun_s > self.batch_cost_s:
            out.append((3, f"deadline violation: answered "
                           f"{self.max_overrun_s:.4f}s over budget (> one "
                           f"batch cost {self.batch_cost_s:.4f}s)"))
        return tuple(out)

    def counters_dict(self) -> Dict[str, object]:
        return {
            "arrivals": self.arrivals,
            **self.ledger.as_dict(),
            "batches": self.batches,
            "fallback_batches": self.fallback_batches,
            "mean_coalesced": round(self.mean_coalesced, 6),
            "p50_latency_s": self.p50_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "max_overrun_s": round(self.max_overrun_s, 9),
            "final_clock_s": round(self.final_clock_s, 6),
        }

    def summary(self) -> str:
        return (
            f"prediction soak: {self.submitted} submitted, "
            f"{self.served} served, {self.served_degraded} degraded, "
            f"{self.shed} shed, {self.deadline_exceeded} deadline, "
            f"{self.failed} failed over {self.batches} batch(es) "
            f"({self.fallback_batches} fallback)"
        )


def synthetic_prediction_server(
    columns: ParticipantColumns,
    model: ColumnarMosPredictor,
    seed: int = 0,
    cost_model: Optional[PredictionCostModel] = None,
    coalescer: Optional[CoalescerConfig] = None,
    max_pending: int = 8,
    shed_policy: str = "priority",
    min_feasible_s: Optional[float] = None,
) -> Tuple[UsaasServer, FaultPlan, PredictionEngine]:
    """A clock-charged prediction server on a fresh ``ManualClock``.

    The underlying :func:`~repro.serving.soak.synthetic_soak_service`
    provides the clock and executor plumbing; the engine charges its
    modelled batch cost to that clock (``charge_clock=True``) so
    deadline pressure is real and byte-reproducible.  ``min_feasible_s``
    defaults to the cost of a single-row *fallback* batch: a deadline
    that cannot fit even that is shed at admission as infeasible
    instead of being answered hopelessly late.
    """
    from repro.serving.soak import synthetic_soak_service

    plan = FaultPlan(seed=seed, clock=ManualClock())
    service = synthetic_soak_service(plan)
    cost_model = cost_model or PredictionCostModel()
    engine = PredictionEngine(
        model, columns, clock=plan.clock,
        cost_model=cost_model, charge_clock=True,
    )
    if min_feasible_s is None:
        min_feasible_s = cost_model.fallback_cost_s(1)
    server = UsaasServer(
        service,
        max_pending=max_pending,
        shed_policy=shed_policy,
        min_feasible_s=min_feasible_s,
        prediction=engine,
        coalescer=coalescer or CoalescerConfig(),
    )
    return server, plan, engine


def run_prediction_soak(
    server: UsaasServer,
    arrivals: Sequence[Arrival],
    rows_for: Optional[
        Callable[[Arrival, int], Optional[Tuple[int, ...]]]
    ] = None,
    network: str = "synthetic",
) -> PredictionSoakReport:
    """Feed ``arrivals`` as ``predict_mos`` queries and close the books.

    ``rows_for(arrival, index)`` chooses each query's row subset (None
    = every row of the engine's block); it must be a pure function of
    its arguments so the soak stays deterministic.
    """
    engine = server.prediction
    if engine is None:
        raise ConfigError("prediction soak requires a prediction engine")
    budgets: Dict[int, float] = {}

    def submit(arrival, index):
        rows = rows_for(arrival, index) if rows_for is not None else None
        query = UsaasQuery(network=network, kind="predict_mos", rows=rows)
        ticket = server.submit(
            query, priority=arrival.priority, deadline_s=arrival.deadline_s,
        )
        if arrival.deadline_s is not None:
            budgets[ticket.id] = float(arrival.deadline_s)

    n_arrivals = replay(server, arrivals, submit)
    drain = server.drain()

    counters = server.kind_counters("predict_mos")
    max_overrun = 0.0
    for ticket_id, budget in budgets.items():
        outcome = server.outcomes.get(ticket_id)
        if outcome is None or outcome.latency_s is None:
            continue
        if outcome.status in ("served", "served_degraded"):
            max_overrun = max(max_overrun, outcome.latency_s - budget)
    # The independent arrival count, not the server's, is what the
    # terminal states must add up to.
    ledger = OutcomeLedger.total([counters])
    ledger.submitted = n_arrivals
    max_batch = (
        server.coalescer.config.max_batch if server.coalescer is not None
        else 1
    )
    engine_metrics = engine.metrics()
    return PredictionSoakReport(
        arrivals=n_arrivals,
        ledger=ledger,
        batches=int(engine_metrics["batches"]),
        fallback_batches=int(engine_metrics["fallback_batches"]),
        mean_coalesced=float(engine_metrics["mean_coalesced"]),
        p50_latency_s=counters.as_dict()["p50_latency_s"],
        p99_latency_s=counters.as_dict()["p99_latency_s"],
        max_overrun_s=max(0.0, max_overrun),
        batch_cost_s=engine.cost_model.batch_cost_s(
            max_batch * engine.n_rows
        ),
        drain=drain,
        final_clock_s=server.clock.now(),
    )
