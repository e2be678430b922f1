"""Deterministic cluster soak: overload + replica failures, replayed.

Extends the single-server soak (:mod:`repro.serving.soak`) to a whole
:class:`~repro.serving.cluster.UsaasCluster`: seeded Poisson arrivals
(:meth:`FaultPlan.cluster_load_spikes`) are interleaved with a replica
fault timeline (:meth:`FaultPlan.replica_faults`) on the router's
:class:`~repro.resilience.clock.ManualClock`.  Between events the
cluster executes queued work in global simulated-time order, so a
replica crash mid-spike exercises the full failover story — queue loss,
breaker discovery, ring rebalance, half-open rejoin — in microseconds
of wall time, byte-identically per seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.usaas.service import UsaasQuery
from repro.errors import ConfigError
from repro.resilience.clock import ManualClock
from repro.resilience.faults import (
    FaultPlan,
    ReplicaFaultEvent,
    ReplicaFaultSpec,
)
from repro.resilience.soak import LedgerView, OutcomeLedger, Problem, replay
from repro.serving.cluster import (
    ClusterMetrics,
    ReplicaHandle,
    TenantPolicy,
    UsaasCluster,
)
from repro.serving.server import UsaasServer


@dataclass(frozen=True)
class ClusterSoakReport(LedgerView):
    """Everything one cluster soak produced, in a byte-stable shape."""

    arrivals: int
    fault_events: int
    ledger: OutcomeLedger
    router_shed: Tuple[Tuple[str, int], ...]
    drain: Dict[str, int]
    metrics: ClusterMetrics
    final_router_clock_s: float
    final_replica_clocks_s: Tuple[Tuple[str, float], ...]

    @property
    def accounted(self) -> bool:
        """Cluster-wide exact-once ledger closed (post drain)."""
        try:
            self.metrics.check_exact_once()
        except ConfigError:
            return False
        return True

    def problems(self) -> Tuple[Problem, ...]:
        """What went wrong, in exit-code order (empty when clean)."""
        out = []
        if not self.accounted:
            out.append((2, "accounting violation: cluster ledger did not "
                           "close"))
        if self.drain["leftover"]:
            out.append((2, f"drain left {self.drain['leftover']} queries "
                           f"behind"))
        if self.submitted and not self.answered:
            out.append((3, "total outage: nothing was served"))
        return tuple(out)

    def counters_dict(self) -> Dict[str, object]:
        """Stable dict for byte-identity assertions across runs."""
        return {
            "arrivals": self.arrivals,
            "fault_events": self.fault_events,
            **self.ledger.as_dict(),
            "router_shed": dict(self.router_shed),
            "drain": dict(self.drain),
            "cluster": self.metrics.as_dict(),
            "final_router_clock_s": round(self.final_router_clock_s, 6),
            "final_replica_clocks_s": {
                name: round(t, 6) for name, t in self.final_replica_clocks_s
            },
        }

    def summary(self) -> str:
        router_shed = sum(n for _, n in self.router_shed)
        return (
            f"cluster soak: {self.submitted} submitted -> "
            f"{self.served} served, {self.served_degraded} degraded, "
            f"{self.shed} shed ({self.shed_rate:.0%}, "
            f"{router_shed} at router), "
            f"{self.deadline_exceeded} deadline-exceeded, "
            f"{self.failed} failed across {len(self.metrics.replicas)} "
            f"replicas ({self.fault_events} fault events, "
            f"{self.metrics.rebalances} rebalances)"
        )


def run_cluster_soak(
    cluster: UsaasCluster,
    arrivals: Sequence,
    fault_events: Sequence[ReplicaFaultEvent] = (),
    query_for=None,
) -> ClusterSoakReport:
    """Replay ``arrivals`` + ``fault_events`` against ``cluster``, drain.

    ``arrivals`` are :class:`~repro.resilience.faults.ClusterArrival`
    objects (``at_s`` / ``priority`` / ``deadline_s`` / ``tenant`` /
    ``key``); fault events come from :meth:`FaultPlan.replica_faults`.
    Both timelines are merged in time order, with a fault event applied
    *before* any arrival at the same instant — an outage starting at
    ``t`` affects the query arriving at ``t``.  Between events the
    replicas execute queued work, their clocks advancing independently
    — this is where the cluster's N-way parallelism (and its loss
    during an outage) shows up.

    ``query_for`` maps an arrival to the query it submits; when None,
    the arrival's own ``query`` attribute is used if present, else a
    default :class:`UsaasQuery` — so a bare
    :class:`~repro.resilience.faults.ClusterArrival` schedule replays
    out of the box.

    Shedding — at the router or at a replica — is normal operation.
    After the last event the cluster drains, which also closes the
    ledger on replicas still dead at drain time.
    """
    default_query = UsaasQuery(network="starlink", service="teams")

    def submit(arrival, index):
        query = (
            query_for(arrival) if query_for is not None
            else getattr(arrival, "query", default_query)
        )
        cluster.submit(
            query,
            key=arrival.key,
            tenant=arrival.tenant,
            priority=arrival.priority,
            deadline_s=getattr(arrival, "deadline_s", None),
        )

    n_arrivals = replay(cluster, arrivals, submit, faults=sorted(
        fault_events, key=lambda e: (e.at_s, e.replica, e.action)
    ))
    drain = cluster.drain()
    metrics = cluster.metrics()
    return ClusterSoakReport(
        arrivals=n_arrivals,
        fault_events=len(fault_events),
        ledger=metrics.ledger(),
        router_shed=metrics.router_shed,
        drain=drain,
        metrics=metrics,
        final_router_clock_s=cluster.clock.now(),
        final_replica_clocks_s=tuple(
            (name, cluster.replica(name).clock.now())
            for name in cluster.replica_names
        ),
    )


def replica_seed(seed: int, index: int) -> int:
    """Stable per-replica sub-seed (cross-process, platform-independent)."""
    digest = hashlib.sha256(f"{seed}:replica:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def synthetic_cluster(
    seed: int,
    n_replicas: int = 3,
    slow_s: float = 0.05,
    attempt_timeout_s: float = 0.2,
    max_pending: int = 8,
    shed_policy: str = "priority",
    tenants: Sequence[TenantPolicy] = (),
    include_flaky: bool = False,
    breaker_recovery_s: float = 2.0,
) -> Tuple[UsaasCluster, FaultPlan]:
    """A self-contained N-replica cluster with simulated query cost.

    Each replica ``r0..r{n-1}`` gets its *own* :class:`ManualClock` and
    :class:`FaultPlan` (sub-seeded via :func:`replica_seed`, so replicas
    draw independent — but per-seed reproducible — source-fault
    streams) wrapped around the PR 5 synthetic soak service.  Returns
    the cluster plus a router-clock :class:`FaultPlan` to draw arrival
    and replica-fault schedules from.
    """
    from repro.serving.soak import synthetic_soak_service

    if n_replicas < 1:
        raise ConfigError("n_replicas must be >= 1")
    router_clock = ManualClock()
    handles: List[ReplicaHandle] = []
    for i in range(n_replicas):
        plan = FaultPlan(seed=replica_seed(seed, i), clock=ManualClock())
        service = synthetic_soak_service(
            plan,
            slow_s=slow_s,
            attempt_timeout_s=attempt_timeout_s,
            include_flaky=include_flaky,
        )
        server = UsaasServer(
            service,
            max_pending=max_pending,
            shed_policy=shed_policy,
        )
        handles.append(ReplicaHandle(
            name=f"r{i}", server=server, clock=plan.clock,
        ))
    cluster = UsaasCluster(
        handles,
        clock=router_clock,
        tenants=tenants,
        breaker_recovery_s=breaker_recovery_s,
    )
    return cluster, FaultPlan(seed=seed, clock=router_clock)


def overload_cluster_soak(
    seed: int,
    stream: str = "cluster-soak",
    n_replicas: int = 3,
    overload: float = 5.0,
    duration_s: float = 4.0,
    deadline_s: float = 1.0,
    max_pending: int = 8,
    shed_policy: str = "priority",
    slow_s: float = 0.05,
    include_flaky: bool = False,
    tenants: Sequence[TenantPolicy] = (),
    tenant_mix: Optional[Sequence[Tuple[str, float]]] = None,
    fault_specs: Optional[Sequence[ReplicaFaultSpec]] = None,
) -> ClusterSoakReport:
    """The canonical cluster soak (``repro usaas cluster-soak``).

    A seeded spike at ``overload`` times the *cluster's* capacity and
    a replica fault timeline, both drawn from the router plan's
    ``stream``, replayed against :func:`synthetic_cluster`.
    ``tenant_mix`` defaults to the tenants' weights (one ``default``
    tenant when there are none).  ``fault_specs`` defaults to the
    canonical failover story: the second replica crashes mid-spike and
    recovers for the spike's tail; ``()`` runs clean.
    """
    from repro.serving.soak import spike_spec

    cluster, plan = synthetic_cluster(
        seed=seed,
        n_replicas=n_replicas,
        slow_s=slow_s,
        max_pending=max_pending,
        shed_policy=shed_policy,
        tenants=tenants,
        include_flaky=include_flaky,
    )
    if tenant_mix is None:
        tenant_mix = (
            tuple((t.name, t.weight) for t in tenants)
            if tenants else (("default", 1.0),)
        )
    arrivals = plan.cluster_load_spikes(
        stream,
        spike_spec(overload, duration_s, deadline_s, slow_s, n_replicas),
        tenant_mix=tenant_mix,
    )
    if fault_specs is None:
        fault_specs = [ReplicaFaultSpec(
            replica="r1" if n_replicas > 1 else "r0", kind="crash",
            at_s=duration_s * 0.375, down_s=duration_s * 0.25,
        )]
    events = plan.replica_faults(stream, *fault_specs) if fault_specs else ()
    query = UsaasQuery(network="starlink", service="teams")
    return run_cluster_soak(
        cluster, arrivals, events, query_for=lambda arrival: query
    )
