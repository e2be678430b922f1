"""The benchmark's workloads, each a set-up plus a closed loop of ops.

Every workload drives the program's public API in-process, from one
thread.  ``setup()`` builds the inputs from the workload seed, ``op(i)``
is the timed unit of work, and ``check(i, result)`` (untimed) returns a
failure reason or None.  Per-op seeds are derived from the workload seed
with :func:`derive_seed`, so the same seed always gives the same inputs.

* ``usaas-warm`` — one ``repro usaas --cache-dir`` answer from a warm
  artifact cache per op, cycling through :func:`queries`.
* ``usaas-cold`` — the same answer from an empty cache on the op's own
  dataset seed: generation, cache write, then the query.
* ``stream-durable`` — one whole stream through ``StreamPipeline.ingest``
  and ``finish`` per op, with checkpoints on and one crash mid-stream,
  resumed with ``StreamPipeline.resume``.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.usaas import (
    UsaasQuery,
    UsaasService,
    social_signals,
    telemetry_signals,
)
from repro.integrity.online import OnlineTrustGate
from repro.perf import ArtifactCache
from repro.resilience.clock import ManualClock
from repro.resilience.faults import FaultPlan
from repro.social import CorpusConfig, CorpusGenerator
from repro.streaming import StreamConfig, StreamPipeline
from repro.streaming.soak import DEFAULT_STREAM_FAULTS
from repro.streaming.sources import default_degradations, synthetic_stream
from repro.telemetry import CallDatasetGenerator, GeneratorConfig

#: The network label of every exported signal (the CLI default).
NETWORK = "starlink"


@dataclass(frozen=True)
class Size:
    """Input sizes: ``full`` is measured, ``smoke`` is for the self-test."""

    n_calls: int
    corpus_start: dt.date
    corpus_end: dt.date
    authors: int
    stream_s: float


SIZES = {
    # The perf harness's "full" scale (1x); the stream spans 20,000
    # simulated seconds, ~168 k deliveries at the stream-soak defaults.
    "full": Size(300, dt.date(2022, 1, 1), dt.date(2022, 12, 31), 1500,
                 20_000.0),
    "smoke": Size(40, dt.date(2022, 1, 1), dt.date(2022, 3, 31), 300,
                  600.0),
}


def queries() -> Tuple[UsaasQuery, ...]:
    """The three queries usaas ops cycle through."""
    return (
        UsaasQuery(network=NETWORK),  # `repro usaas` with no flags
        UsaasQuery(network=NETWORK, service="teams", breakdown="platform"),
        UsaasQuery(network=NETWORK, start=dt.datetime(2022, 1, 1),
                   end=dt.datetime(2022, 4, 1)),
    )


def derive_seed(seed: int, *parts: Any) -> int:
    """A 32-bit seed that is a pure function of ``seed`` and ``parts``."""
    blob = ":".join(str(p) for p in (seed,) + parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


def render(report) -> str:
    """The text `repro usaas` prints: summary, health and trust tables."""
    parts = [
        report.summary,
        f"\n({report.n_implicit} implicit + {report.n_explicit} explicit "
        f"signals)",
    ]
    if report.source_health:
        parts += ["\nsource health:", report.health_table()]
    trust = report.integrity_table()
    if trust:
        parts += ["\ntrust:", trust]
    return "\n".join(parts)


def dir_mb(path: Path) -> float:
    return sum(
        p.stat().st_size for p in path.rglob("*") if p.is_file()
    ) / 1e6


@dataclass
class OpResult:
    """What one op produced: its input size, output and own counters."""

    records: int
    output: Any
    #: Simulated seconds from each emission's event time to the moment
    #: the feeding loop saw it (stream ops only).
    lags: List[float] = field(default_factory=list)
    #: Per-layer counters read from the program's public stats.
    counts: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    #: Ops are run in whole cycles of this many (one per query).
    cycle = 1

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def check(self, i: int, result: OpResult) -> Optional[str]:
        raise NotImplementedError


# -- usaas -------------------------------------------------------------------


class _Usaas(Workload):
    def configs(self, seed: int) -> Tuple[GeneratorConfig, CorpusConfig]:
        size = self.size
        return (
            GeneratorConfig(n_calls=size.n_calls, seed=seed),
            CorpusConfig(seed=seed, span_start=size.corpus_start,
                         span_end=size.corpus_end,
                         author_pool_size=size.authors),
        )

    def answer(self, i: int, seed: int, cache_dir: Path) -> OpResult:
        """One `repro usaas --cache-dir` run, in-process."""
        calls_config, corpus_config = self.configs(seed)
        cache = ArtifactCache(cache_dir)
        rows: Dict[str, int] = {}

        def calls():
            dataset = CallDatasetGenerator(calls_config).generate(cache=cache)
            rows["calls"] = dataset.n_participants
            return telemetry_signals(dataset, network=NETWORK)

        def posts():
            corpus = CorpusGenerator(corpus_config).generate(cache=cache)
            rows["posts"] = len(corpus)
            return social_signals(corpus, network=NETWORK)

        service = UsaasService()
        service.register_source("telemetry", calls)
        service.register_source("social", posts)
        report = service.answer(queries()[i % len(queries())])
        text = render(report)
        health = service.source_health()
        return OpResult(
            records=sum(rows.values()),
            output=(report.degraded, text),
            counts={
                # A fresh service fetches each source once per answer,
                # so every attempt past the first is a retry.
                "resilience.retries": sum(
                    max(0, h.attempts - 1) for h in health
                ),
                "resilience.failures": sum(h.failures for h in health),
            },
        )


class UsaasWarm(_Usaas):
    """Repeated answers from an artifact cache filled during set-up."""

    name = "usaas-warm"
    cycle = 3

    def setup(self) -> None:
        self.data_seed = derive_seed(self.seed, self.name)
        self.cache_dir = self.workdir / "cache"
        calls_config, corpus_config = self.configs(self.data_seed)
        cache = ArtifactCache(self.cache_dir)
        # A miss builds, writes the entry and returns the built dataset:
        # the references below are computed on fresh data, not decoded.
        calls = CallDatasetGenerator(calls_config).generate(cache=cache)
        corpus = CorpusGenerator(corpus_config).generate(cache=cache)
        self.reference: List[str] = []
        for query in queries():
            service = UsaasService()
            service.register_source(
                "telemetry", lambda: telemetry_signals(calls, network=NETWORK)
            )
            service.register_source(
                "social", lambda: social_signals(corpus, network=NETWORK)
            )
            report = service.answer(query)
            if report.degraded:
                raise RuntimeError(f"reference answer degraded: {query}")
            self.reference.append(render(report))
        self.first: Dict[int, str] = {}

    def op(self, i: int) -> OpResult:
        return self.answer(i, self.data_seed, self.cache_dir)

    def check(self, i: int, result: OpResult) -> Optional[str]:
        degraded, text = result.output
        if degraded:
            return "answer degraded"
        q = i % len(self.reference)
        if q not in self.first:
            self.first[q] = text
            if text != self.reference[q]:
                return f"query {q}: warm answer differs from fresh-data answer"
        elif text != self.first[q]:
            return f"query {q}: repeat differs from the first answer"
        return None


class UsaasCold(_Usaas):
    """First answers: each op generates its own datasets into an empty
    cache, then queries them."""

    name = "usaas-cold"
    # Ops of 4 to 6 s fit two cycles in a 25 s run, so the median is
    # taken over six ops, two per query; slower ops fit one cycle.
    cycle = 3

    def setup(self) -> None:
        # Finish lazy imports and first-call set-up (scipy, lexicons) on
        # a smoke-size op, so the first timed op is not billed for them.
        smoke = UsaasCold(self.seed, SIZES["smoke"], self.workdir)
        smoke.answer(0, derive_seed(self.seed, self.name, "warm-up"),
                     self.workdir / "warm-up")
        shutil.rmtree(self.workdir / "warm-up")

    def cache_dir(self, i: int) -> Path:
        return self.workdir / f"cold-{i}"

    def op(self, i: int) -> OpResult:
        shutil.rmtree(self.cache_dir(i), ignore_errors=True)
        return self.answer(i, derive_seed(self.seed, self.name, i),
                           self.cache_dir(i))

    def check(self, i: int, result: OpResult) -> Optional[str]:
        degraded, text = result.output
        try:
            if degraded:
                return "answer degraded"
            # The cold answer ran on freshly built data; answered again
            # from the cache it wrote, it must not change.
            again = self.answer(i, derive_seed(self.seed, self.name, i),
                                self.cache_dir(i))
            if again.output != result.output:
                return "answer from the written cache differs"
            return None
        finally:
            shutil.rmtree(self.cache_dir(i), ignore_errors=True)


# -- streams -----------------------------------------------------------------


@dataclass(frozen=True)
class StreamRun:
    result: Any
    resumes: int


def drive(deliveries, config: StreamConfig, checkpoint_dir: Optional[Path],
          crash_at_s: Optional[float]) -> Tuple[StreamRun, List[float]]:
    """Feed every delivery on a ManualClock, as fast as ingest accepts.

    With ``crash_at_s``, the consumer dies before the first delivery due
    at or after that instant and is rebuilt with StreamPipeline.resume.
    After each ingest the loop stamps newly visible emissions with the
    simulated time, giving each emission's event-time-to-emission lag.
    """
    pipeline = StreamPipeline(config, clock=ManualClock(),
                              checkpoint_dir=checkpoint_dir,
                              trust_gate=OnlineTrustGate())
    stamps: List[float] = []
    resumes = 0
    idx, n = 0, len(deliveries)
    while idx < n:
        delivery = deliveries[idx]
        if crash_at_s is not None and delivery.at_s >= crash_at_s:
            crash_at_s = None
            pipeline, idx = StreamPipeline.resume(
                config, checkpoint_dir, trust_gate=OnlineTrustGate()
            )
            resumes += 1
            # Emissions after the checkpoint are re-emitted on replay.
            del stamps[len(pipeline.emissions):]
            continue
        gap = delivery.at_s - pipeline.clock.now()
        if gap > 0:
            pipeline.clock.advance(gap)
        pipeline.ingest(delivery.record, tags=delivery.injected)
        idx += 1
        if len(pipeline.emissions) > len(stamps):
            stamps += [pipeline.clock.now()] * (
                len(pipeline.emissions) - len(stamps)
            )
    result = pipeline.finish()
    stamps += [pipeline.clock.now()] * (len(result.emissions) - len(stamps))
    lags = [s - e.at_s for s, e in zip(stamps, result.emissions)]
    return StreamRun(result, resumes), lags


class StreamDurable(Workload):
    """One whole stream per op, with checkpoints every 60 simulated
    seconds and one crash mid-stream, resumed from the last checkpoint."""

    name = "stream-durable"

    def setup(self) -> None:
        seed = derive_seed(self.seed, "stream")
        span = self.size.stream_s
        self.degradations = default_degradations(span)
        records = synthetic_stream(
            seed=seed, duration_s=span, degradations=self.degradations,
        )
        self.deliveries = FaultPlan(seed=seed).stream_faults(
            "stream-soak", records, DEFAULT_STREAM_FAULTS
        )
        self.config = StreamConfig(seed=seed)
        self.crash_at_s = span / 2
        self.plain_digest: Optional[str] = None

    def checkpoint_dir(self, i: int) -> Path:
        return self.workdir / f"checkpoints-{i}"

    def op(self, i: int) -> OpResult:
        ckpt = self.checkpoint_dir(i)
        shutil.rmtree(ckpt, ignore_errors=True)
        run, lags = drive(self.deliveries, self.config, ckpt, self.crash_at_s)
        return OpResult(records=len(self.deliveries), output=run, lags=lags)

    def check(self, i: int, result: OpResult) -> Optional[str]:
        run: StreamRun = result.output
        counters = run.result.counters
        result.counts.update(stream_counts(counters))
        result.counts["streaming.checkpoint_dir_mb"] = dir_mb(
            self.checkpoint_dir(i)
        )
        shutil.rmtree(self.checkpoint_dir(i), ignore_errors=True)
        if run.resumes != 1:
            return f"{run.resumes} resumes, expected 1"
        accounted = sum(counters[k] for k in (
            "aggregated", "late_dropped", "late_side", "deduped",
            "quarantined",
        ))
        if counters["emitted"] != accounted:
            return "exactly-once ledger did not close"
        missed = [
            spec for spec in self.degradations
            if not any(
                cp.role == "experience"
                and spec.at_s <= cp.at_s <= spec.at_s + spec.detect_within_s
                for cp in run.result.change_points
            )
        ]
        if missed:
            return f"{len(missed)} degradation(s) not detected"
        if self.plain_digest is None:
            # The crash-resume invariant: the same stream ingested with
            # no checkpoints and no crash emits the same bytes.
            plain, _ = drive(self.deliveries, self.config, None, None)
            self.plain_digest = plain.result.digest
        if run.result.digest != self.plain_digest:
            return "emissions digest differs from the uninterrupted run"
        return None


def stream_counts(counters: Dict[str, int]) -> Dict[str, float]:
    return {
        "streaming.records": counters["emitted"],
        "streaming.emissions": counters["emissions"],
        "streaming.change_points": counters["change_points"],
        "streaming.deduped": counters["deduped"],
        "streaming.late": counters["late_dropped"] + counters["late_side"],
        "streaming.forced_flushes": counters["forced_flushes"],
        "streaming.quarantined": counters["quarantined"],
        "streaming.checkpoints": counters["checkpoints"],
    }


WORKLOADS = {w.name: w for w in (UsaasWarm, UsaasCold, StreamDurable)}
