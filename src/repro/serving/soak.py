"""Deterministic overload soak: drive a server through a load spike.

The soak loop is a tiny discrete-event simulation over the server's
injected clock: arrivals (from :meth:`FaultPlan.load_spikes`) are
submitted at their scheduled instants, the server executes queued
queries in priority order between arrivals, and time only moves when a
query *runs* (source fetches, backoff, simulated hangs) or the server
idles until the next arrival.  On a
:class:`~repro.resilience.clock.ManualClock` the whole soak — including
a sustained 5x-capacity spike — executes in microseconds of real time
and is exactly reproducible from the plan's seed.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.resilience.soak import LedgerView, OutcomeLedger, Problem, replay
from repro.serving.server import DrainReport, ServingMetrics, UsaasServer


@dataclass(frozen=True)
class SoakReport(LedgerView):
    """Everything one soak run produced, in a byte-stable shape."""

    arrivals: int
    ledger: OutcomeLedger
    drain: DrainReport
    metrics: ServingMetrics
    final_clock_s: float

    def problems(self) -> Tuple[Problem, ...]:
        """What went wrong, in exit-code order (empty when clean)."""
        out = []
        if not self.accounted:
            out.append((2, "accounting violation: submitted != sum(terminal "
                           "states)"))
        if not self.drain.clean:
            out.append((2, "drain left work behind: " + self.drain.summary()))
        return tuple(out)

    def counters_dict(self) -> Dict[str, object]:
        """Stable dict for byte-identity assertions across runs."""
        return {
            "arrivals": self.arrivals,
            **self.ledger.as_dict(),
            "leftover_pending": self.drain.leftover_pending,
            "in_flight": self.drain.in_flight,
            "per_class": self.metrics.as_dict(),
            "final_clock_s": round(self.final_clock_s, 6),
        }

    def summary(self) -> str:
        return (
            f"soak: {self.submitted} submitted -> {self.served} served, "
            f"{self.served_degraded} degraded, {self.shed} shed "
            f"({self.shed_rate:.0%}), "
            f"{self.deadline_exceeded} deadline-exceeded, "
            f"{self.failed} failed; {self.drain.summary()}"
        )


def run_soak(
    server: UsaasServer,
    arrivals: Sequence,
    query_for=None,
) -> SoakReport:
    """Submit ``arrivals`` against ``server`` and drain.

    ``arrivals`` are objects with ``at_s`` / ``priority`` /
    ``deadline_s`` (see :class:`repro.resilience.faults.Arrival`);
    ``query_for`` maps an arrival to the query it submits (None uses
    ``arrival.query``).  Between arrivals the server works off its
    queue (:meth:`UsaasServer.run_until`); executing a query advances
    the clock, so this is where overload builds up: at 5x capacity the
    queue outgrows the bound and the admission controller sheds.
    """

    def submit(arrival, index):
        query = query_for(arrival) if query_for is not None else arrival.query
        server.submit(
            query,
            priority=arrival.priority,
            deadline_s=getattr(arrival, "deadline_s", None),
        )

    n_arrivals = replay(server, arrivals, submit)
    drain = server.drain()
    metrics = server.metrics()
    return SoakReport(
        arrivals=n_arrivals,
        ledger=metrics.ledger(),
        drain=drain,
        metrics=metrics,
        final_clock_s=server.clock.now(),
    )


# -- a canonical synthetic workload ---------------------------------------
#
# The CLI ``usaas soak`` subcommand and the perf harness's serving phase
# both need a self-contained service whose per-query cost is *simulated*
# (slow-source faults advancing the ManualClock), so overload factors
# are exact and runs are deterministic.  Building it here keeps the two
# consumers byte-compatible.

_DAY0 = dt.datetime(2022, 4, 1, 12, 0)


def _implicit_series():
    from repro.core.signals import ImplicitSignal, SignalSeries
    from repro.core.usaas.privacy import scrub_author

    series = SignalSeries()
    for day in range(10):
        ts = _DAY0 + dt.timedelta(days=day)
        for u in range(12):
            user = scrub_author(f"user-{u}")
            series.append(ImplicitSignal(
                ts, "starlink", "presence", 80.0 + u - day,
                service="teams", user=user,
            ))
            series.append(ImplicitSignal(
                ts, "starlink", "cam_on", 60.0 + (u % 5),
                service="teams", user=user,
            ))
    return series


def _explicit_series():
    from repro.core.signals import ExplicitSignal, SignalSeries
    from repro.core.usaas.privacy import scrub_author

    series = SignalSeries()
    for day in range(10):
        ts = _DAY0 + dt.timedelta(days=day)
        for u in range(12):
            series.append(ExplicitSignal(
                ts, "starlink", "sentiment_polarity", 0.4 - 0.05 * day,
                user=scrub_author(f"poster-{u}"),
            ))
    return series


def synthetic_soak_service(
    plan,
    slow_s: float = 0.05,
    attempt_timeout_s: float = 0.2,
    max_attempts: int = 2,
    include_flaky: bool = False,
):
    """A self-contained USaaS service whose query cost is simulated.

    Two healthy feeds each "take" ``slow_s`` simulated seconds per fetch
    (the plan's slow fault advances its :class:`ManualClock`), so one
    query costs about ``2 * slow_s`` of clock time — which makes
    :func:`estimated_service_time_s` exact enough to dial in a precise
    overload factor.  ``include_flaky`` adds an always-failing third
    feed so every answer is *degraded* and retries/backoff burn deadline
    budget, reusing the PR 1/3 fault specs.
    """
    from repro.core.usaas import UsaasService
    from repro.resilience.executor import ResilienceConfig
    from repro.resilience.faults import ALWAYS_FAIL, always_slow
    from repro.resilience.policy import RetryPolicy

    config = ResilienceConfig(
        retry=RetryPolicy(
            max_attempts=max_attempts, base_delay_s=0.01, jitter=0.1,
            attempt_timeout_s=attempt_timeout_s, seed=plan.seed,
        ),
        min_sources=1,
    )
    service = UsaasService(resilience=config, clock=plan.clock)
    service.register_source("telemetry", plan.wrap_source(
        "telemetry", _implicit_series, always_slow(slow_s)))
    service.register_source("social", plan.wrap_source(
        "social", _explicit_series, always_slow(slow_s)))
    if include_flaky:
        service.register_source("flaky", plan.wrap_source(
            "flaky", _implicit_series, ALWAYS_FAIL))
    return service


def estimated_service_time_s(slow_s: float, n_sources: int = 2) -> float:
    """Simulated clock cost of one fully-healthy query."""
    return float(slow_s) * int(n_sources)


#: Priority classes of the canonical load spike, by arrival share.
SPIKE_PRIORITY_MIX = (
    ("interactive", 0.6), ("batch", 0.3), ("monitoring", 0.1),
)


def spike_spec(overload: float, duration_s: float, deadline_s: float,
               slow_s: float, n_servers: int = 1):
    """A load spike at ``overload`` times the capacity of ``n_servers``
    synthetic services (one serves ``1 / estimated_service_time_s``
    queries per simulated second)."""
    from repro.resilience.faults import LoadSpikeSpec

    return LoadSpikeSpec(
        rate_per_s=overload * n_servers / estimated_service_time_s(slow_s),
        duration_s=duration_s,
        priority_mix=SPIKE_PRIORITY_MIX,
        deadline_s=deadline_s,
    )


def overload_soak(
    seed: int,
    stream: str = "soak",
    overload: float = 5.0,
    duration_s: float = 4.0,
    deadline_s: float = 1.0,
    max_pending: int = 8,
    shed_policy: str = "priority",
    slow_s: float = 0.05,
    include_flaky: bool = False,
) -> SoakReport:
    """The canonical serving soak (``repro usaas soak``): one seeded
    :func:`spike_spec` spike, drawn from the plan's ``stream``, against
    a :func:`synthetic_soak_service` behind a bounded queue."""
    from repro.core.usaas import UsaasQuery
    from repro.resilience import FaultPlan, ManualClock

    plan = FaultPlan(seed=seed, clock=ManualClock())
    service = synthetic_soak_service(
        plan, slow_s=slow_s, include_flaky=include_flaky
    )
    arrivals = plan.load_spikes(
        stream, spike_spec(overload, duration_s, deadline_s, slow_s)
    )
    server = UsaasServer(
        service, max_pending=max_pending, shed_policy=shed_policy
    )
    query = UsaasQuery(network="starlink", service="teams")
    return run_soak(server, arrivals, query_for=lambda arrival: query)
