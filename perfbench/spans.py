"""In-memory span tracer for the benchmark's traced run.

The program itself records no spans.  :func:`instrument` wraps the
public callables of each layer (listed in :data:`SPANS`) for the length
of a ``with`` block and restores the originals afterwards.  Each call
becomes one span ``[name, start_ns, end_ns, parent, op]``; spans stay in
memory and :meth:`Tracer.write` writes them out once the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  Calls are single-threaded and strictly nested, so the self
times of one op plus its ``unattributed`` remainder (op wall time not
covered by any top-level span) add up to the op's wall time exactly;
:meth:`Tracer.op_breakdown` checks that.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``ArtifactCache`` kind -> layer whose generator builds it on a miss.
BUILD_LAYER = {"calls": "telemetry", "corpus": "social"}


class Tracer:
    """Spans and counters of one traced run, grouped by op."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or -1, op id]
        self.spans: List[list] = []
        #: op id -> (start_ns, end_ns)
        self.ops: Dict[int, Tuple[int, int]] = {}
        #: op id -> counter name -> value
        self.counts: Dict[int, Dict[str, float]] = {}
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._op_start = 0

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        if self._stack or self._op is not None:
            raise RuntimeError("an op is already open")
        self._op = op
        self.counts.setdefault(op, {})
        self._op_start = perf_counter_ns()

    def end_op(self) -> None:
        end = perf_counter_ns()
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) left open")
        self.ops[self._op] = (self._op_start, end)
        self._op = None

    # -- spans and counters ------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self._op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def count(self, name: str, n: float = 1) -> None:
        if self._op is None:
            return  # calls outside an op (set-up, checks) are not traced
        counts = self.counts[self._op]
        counts[name] = counts.get(name, 0) + n

    def span_durations_ms(self, op: int, name: str) -> List[float]:
        return [
            (s[2] - s[1]) / 1e6 for s in self.spans
            if s[4] == op and s[0] == name
        ]

    # -- analysis ------------------------------------------------------------

    def op_breakdown(self, op: int) -> Dict[str, float]:
        """Seconds of self time per span name for one op, plus
        ``unattributed``; the values sum to the op's wall time."""
        start, end = self.ops[op]
        child_ns: Dict[int, int] = {}
        own = [(i, s) for i, s in enumerate(self.spans) if s[4] == op]
        top_ns = 0
        for i, (name, s0, s1, parent, _) in own:
            if not start <= s0 <= s1 <= end:
                raise RuntimeError(f"span {name} lies outside its op")
            if parent < 0:
                top_ns += s1 - s0
            else:
                child_ns[parent] = child_ns.get(parent, 0) + (s1 - s0)
        self_s: Dict[str, float] = {}
        for i, (name, s0, s1, _, _) in own:
            self_s[name] = self_s.get(name, 0.0) + (
                s1 - s0 - child_ns.get(i, 0)
            ) / 1e9
        wall_s = (end - start) / 1e9
        self_s["unattributed"] = (end - start - top_ns) / 1e9
        total = sum(self_s.values())
        if abs(total - wall_s) > 1e-6 * max(1.0, wall_s):
            raise RuntimeError(
                f"op {op}: self times sum to {total:.6f}s, wall {wall_s:.6f}s"
            )
        return self_s

    def write(self, path: Path) -> None:
        """Write every span and the per-op counters as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for op, (start, end) in sorted(self.ops.items()):
                f.write(json.dumps({
                    "op": op, "start_ns": start, "end_ns": end,
                    "counts": self.counts.get(op, {}),
                    "self_s": self.op_breakdown(op),
                }) + "\n")
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps([name, start, end, parent, op]) + "\n")


# -- wrapping ----------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def _file_mb(path) -> float:
    try:
        return Path(path).stat().st_size / 1e6
    except OSError:
        return 0.0


def _load_or_build(tracer: Tracer, fn: Callable) -> Callable:
    """Cache lookups: split into read / write / miss-path build spans."""

    @functools.wraps(fn)
    def traced(self, kind, config, build, load, dump):
        layer = BUILD_LAYER.get(kind, "perf.cache")

        def traced_build():
            idx = tracer.open(f"{layer}.build")
            try:
                artifact = build()
            finally:
                tracer.close(idx)
            if kind == "calls":
                tracer.count("telemetry.rows", artifact.n_participants)
            elif kind == "corpus":
                tracer.count("social.posts", len(artifact))
            return artifact

        def traced_load(path):
            tracer.count("perf.cache.read_mb", _file_mb(path))
            idx = tracer.open("perf.cache.read")
            try:
                return load(path)
            finally:
                tracer.close(idx)

        def traced_dump(artifact, path):
            idx = tracer.open("perf.cache.write")
            try:
                return dump(artifact, path)
            finally:
                tracer.close(idx)
                tracer.count("perf.cache.write_mb", _file_mb(path))

        hits, misses = self.hits, self.misses
        idx = tracer.open("perf.cache.load_or_build")
        try:
            return fn(self, kind, config, traced_build, traced_load,
                      traced_dump)
        finally:
            tracer.close(idx)
            tracer.count("perf.cache.hits", self.hits - hits)
            tracer.count("perf.cache.misses", self.misses - misses)

    return traced


def _counted(fn: Callable, on_result=None, on_error=None) -> Callable:
    """A span-free wrapper that only counts (for per-item callables)."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc)
            raise
        if on_result is not None:
            on_result(args, result)
        return result

    return counted


def _targets(tracer: Tracer) -> List[Tuple[Any, str, Callable]]:
    """(owner, attribute, wrapper factory) for every traced callable."""
    from repro.core.signals import SignalSeries
    from repro.core.usaas import adapters, correlator, summarize
    from repro.core.usaas.bias import BiasCorrector
    from repro.core.usaas.privacy import PrivacyGuard
    from repro.core.usaas.service import UsaasReport, UsaasService
    from repro.errors import AnalysisError
    from repro.integrity import trust
    from repro.nlp.sentiment import SentimentAnalyzer
    from repro.perf import columnar
    from repro.perf.cache import ArtifactCache
    from repro.social.corpus import CorpusGenerator
    from repro.streaming.pipeline import StreamPipeline
    from repro.telemetry.generator import CallDatasetGenerator

    def span(name, on_result=None, on_error=None):
        def make(fn):
            inner = fn
            if on_result is not None or on_error is not None:
                inner = _counted(fn, on_result, on_error)
            return _spanned(tracer, name, inner)
        return make

    def count_len(name):
        return lambda args, result: tracer.count(name, len(result))

    def count_filter(args, result):
        tracer.count("core.signals.filter_calls")
        tracer.count("core.signals.filter_in", len(args[0]))
        tracer.count("core.signals.filter_out", len(result))

    def count_trust(args, scores):
        tracer.count("integrity.units", len(scores))
        tracer.count(
            "integrity.flagged",
            sum(1 for s in scores.values() if s.trust < 1.0),
        )

    def skipped(exc):
        if isinstance(exc, AnalysisError):
            tracer.count("core.usaas.correlate_skipped")

    return [
        (ArtifactCache, "load_or_build",
         lambda fn: _load_or_build(tracer, fn)),
        (CallDatasetGenerator, "generate", span("telemetry.generate")),
        (CorpusGenerator, "generate", span("social.generate")),
        (SentimentAnalyzer, "score_many",
         span("nlp.score", count_len("nlp.texts"))),
        (SentimentAnalyzer, "score", lambda fn: _counted(
            fn, lambda a, r: tracer.count("nlp.scored"))),
        (columnar, "participant_columns", span("perf.columnar.build")),
        (columnar, "corpus_columns", span("perf.columnar.build")),
        (adapters, "telemetry_signals",
         span("core.usaas.export", count_len("core.usaas.signals"))),
        (adapters, "social_signals",
         span("core.usaas.export", count_len("core.usaas.signals"))),
        (SignalSeries, "filter", span("core.signals.filter", count_filter)),
        (SignalSeries, "daily_mean", span("core.signals.daily_mean")),
        (PrivacyGuard, "check", span("core.usaas.privacy")),
        (PrivacyGuard, "assert_scrubbed", span("core.usaas.privacy")),
        (BiasCorrector, "apply", span("core.usaas.bias")),
        (correlator, "correlate_series",
         span("core.usaas.correlate", on_error=skipped)),
        (trust, "score_signal_units", span("integrity.trust", count_trust)),
        (summarize, "summarize_insights", span("core.usaas.render")),
        (UsaasReport, "health_table", span("core.usaas.render")),
        (UsaasReport, "integrity_table", span("core.usaas.render")),
        (UsaasService, "answer", span("core.usaas.answer")),
        (StreamPipeline, "ingest", span("streaming.ingest")),
        (StreamPipeline, "checkpoint", span("streaming.checkpoint")),
        (StreamPipeline, "finish", span("streaming.finish")),
        (StreamPipeline, "resume", span("streaming.resume")),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced callable for the block; restore them after.

    A module-level function is also replaced in every loaded module that
    imported it by name (``from x import f``), so callers that bound it
    at import time reach the wrapper too.
    """
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attr, make in _targets(tracer):
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [
                    m for m in list(sys.modules.values())
                    if m is not None and m is not owner
                    and vars(m).get(attr) is raw
                ]
            for holder in holders:
                restore.append((holder, attr, raw))
                setattr(holder, attr, wrapped)
        yield tracer
    finally:
        for holder, attr, raw in reversed(restore):
            setattr(holder, attr, raw)
