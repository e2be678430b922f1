"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload usaas-warm --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Set-up builds the workload's inputs from ``--seed``, afresh until a quarter
of ``--seconds`` has gone into set-up (``setup_s`` is the import time plus
the median set-up); then ops run in a closed loop (one client, one thread) for about ``--seconds`` of op time,
each op checked for correctness outside its timing.

``--trace 0`` prints the end-to-end metrics of that loop.  ``--trace 1``
runs the same loop, replaying each op right after it with every layer's
public entry points wrapped in spans (see ``spans.py``), and prints the
per-layer metrics; the spans go to ``.perfbench-work/traces/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Exit code 0 means
the run finished; correctness is reported in that object, not the code.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


@dataclass
class OpRecord:
    index: int
    wall_s: float
    result: Any  # OpResult, or None when the op raised
    failure: Optional[str]
    #: The process's peak RSS while the op ran, in MB.
    peak_rss_mb: float


def reset_peak_rss() -> None:
    """Lower the kernel's RSS high-water mark (VmHWM) to the current RSS."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """The RSS high-water mark since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_op(workload, i: int, tracer=None) -> OpRecord:
    """Time one op, then check it (neither the check nor its memory is
    billed to the op)."""
    # Each op starts from a clean heap, as a fresh `repro usaas` process
    # would: garbage left by earlier ops is not billed to this one.
    gc.collect()
    reset_peak_rss()
    tracing = contextlib.nullcontext()
    if tracer is not None:
        from spans import instrument

        tracing = instrument(tracer)
    with tracing:
        if tracer is not None:
            tracer.begin_op(i)
        start = time.perf_counter()
        result, failure = None, None
        try:
            result = workload.op(i)
        except Exception as exc:  # an op that raises counts as failed
            failure = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
    peak = peak_rss_mb()
    if failure is None:
        try:
            failure = workload.check(i, result)
        except Exception as exc:
            failure = f"check raised {type(exc).__name__}: {exc}"
    if tracer is not None and result is not None:
        for name, value in result.counts.items():
            tracer.counts[i][name] = tracer.counts[i].get(name, 0) + value
    return OpRecord(i, wall, result, failure, peak)


def closed_loop(workload, seconds: float, tracer=None
                ) -> Tuple[List[OpRecord], List[OpRecord]]:
    """Run whole cycles of ops, stopping at the cycle end nearest to
    ``seconds`` of untraced op time: a further cycle starts only while
    the time so far plus half a mean cycle is short of ``seconds``.  So
    a 20 s stream op is not followed by a second one in a 25 s run.  With a
    tracer, each op is replayed traced right after its untraced run, so
    the pair shares the host's state of the moment."""
    records: List[OpRecord] = []
    traced: List[OpRecord] = []
    elapsed = 0.0
    while (not records or len(records) % workload.cycle
           or elapsed * (1 + 0.5 * workload.cycle / len(records))
           < seconds):
        record = run_op(workload, len(records))
        records.append(record)
        elapsed += record.wall_s
        if tracer is not None:
            traced.append(run_op(workload, record.index, tracer))
    return records, traced


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(records: List[OpRecord], setup_s: float,
               cycle: int) -> Dict[str, Any]:
    walls = [r.wall_s for r in records]
    done = [r for r in records if r.result is not None]
    lags = [lag for r in done for lag in r.result.lags]
    if not lags:
        # usaas answers have no event time: an answer's emission lag is
        # its latency.  The tail is taken over the queries of the cycle,
        # each at its median latency, so that one op slowed by the host
        # does not decide it.
        by_query: Dict[int, List[float]] = {}
        for r in records:
            by_query.setdefault(r.index % cycle, []).append(r.wall_s)
        lags = [statistics.median(w) for w in by_query.values()]
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "records_per_s": (
            sum(r.result.records for r in done) / sum(walls), "1/s"
        ),
        # Streams: simulated event-time-to-emission lag.
        "emit_lag_p99_s": (percentile(lags, 99), "s"),
        # Set-up and the checks are left out: the high-water mark is
        # reset before each op and read right after it.
        "peak_rss_mb": (max(r.peak_rss_mb for r in records), "MB"),
    }


#: per-layer time metric -> span names whose self time it sums
SELF_TIME = {
    "perf.cache.read_s": ("perf.cache.read",),
    "perf.cache.write_s": ("perf.cache.write",),
    "perf.cache.lookup_s": ("perf.cache.load_or_build",),
    "telemetry.generate_s": ("telemetry.generate", "telemetry.build"),
    "social.generate_s": ("social.generate", "social.build"),
    "nlp.score_s": ("nlp.score",),
    "perf.columnar.build_s": ("perf.columnar.build",),
    "core.usaas.export_s": ("core.usaas.export",),
    "core.signals.filter_s": ("core.signals.filter",),
    "core.signals.daily_mean_s": ("core.signals.daily_mean",),
    "core.usaas.privacy_s": ("core.usaas.privacy",),
    "core.usaas.bias_s": ("core.usaas.bias",),
    "core.usaas.correlate_s": ("core.usaas.correlate",),
    "integrity.trust_s": ("integrity.trust",),
    "core.usaas.render_s": ("core.usaas.render",),
    "core.usaas.answer_self_s": ("core.usaas.answer",),
    "streaming.ingest_s": ("streaming.ingest",),
    "streaming.checkpoint_s": ("streaming.checkpoint",),
    "streaming.finish_s": ("streaming.finish",),
    "streaming.resume_s": ("streaming.resume",),
    "trace.unattributed_s": ("unattributed",),
}

#: per-layer count metric -> counter (per-op mean) and unit
COUNTS = {
    "perf.cache.read_mb": "MB",
    "perf.cache.write_mb": "MB",
    "perf.cache.hits": "count",
    "perf.cache.misses": "count",
    "telemetry.rows": "count",
    "social.posts": "count",
    "nlp.texts": "count",
    "core.usaas.signals": "count",
    "core.signals.filter_calls": "count",
    "core.usaas.correlate_skipped": "count",
    "integrity.units": "count",
    "integrity.flagged": "count",
    "resilience.retries": "count",
    "resilience.failures": "count",
    "streaming.records": "count",
    "streaming.emissions": "count",
    "streaming.change_points": "count",
    "streaming.deduped": "count",
    "streaming.checkpoints": "count",
    "streaming.checkpoint_dir_mb": "MB",
}

#: per-layer ratio metric -> (numerator, denominator) counters
RATIOS = {
    "nlp.memo_hit_frac": ("nlp.memo_hits", "nlp.texts"),
    "core.signals.filter_kept_frac": (
        "core.signals.filter_out", "core.signals.filter_in"
    ),
    "streaming.late_frac": ("streaming.late", "streaming.records"),
    "streaming.forced_flush_frac": (
        "streaming.forced_flushes", "streaming.records"
    ),
    "integrity.online.quarantined_frac": (
        "streaming.quarantined", "streaming.records"
    ),
}


def per_layer(tracer, traced: List[OpRecord],
              untraced: List[OpRecord]) -> Dict[str, Any]:
    ops = [r.index for r in traced]
    n = len(ops)
    self_s: Dict[str, float] = {}
    totals: Dict[str, float] = {}
    for op in ops:
        for name, seconds in tracer.op_breakdown(op).items():
            self_s[name] = self_s.get(name, 0.0) + seconds
        for name, value in tracer.counts[op].items():
            totals[name] = totals.get(name, 0) + value
    metrics: Dict[str, Any] = {}
    for metric, names in SELF_TIME.items():
        metrics[metric] = (sum(self_s.get(s, 0.0) for s in names) / n, "s")
    for metric, unit in COUNTS.items():
        metrics[metric] = (totals.get(metric, 0) / n, unit)
    # Texts scored outside the batch memo are the misses.
    totals["nlp.memo_hits"] = (
        totals.get("nlp.texts", 0) - totals.get("nlp.scored", 0)
    )
    for metric, (num, den) in RATIOS.items():
        frac = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
        metrics[metric] = (frac, "frac")
    for metric, pick in (("streaming.checkpoint_first_ms", 0),
                         ("streaming.checkpoint_last_ms", -1)):
        ms = [tracer.span_durations_ms(op, "streaming.checkpoint")
              for op in ops]
        metrics[metric] = (sum(d[pick] for d in ms if d) / n, "ms")
    metrics["trace.overhead_frac"] = (
        sum(r.wall_s for r in traced) / sum(r.wall_s for r in untraced) - 1,
        "frac",
    )
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "full", started: Optional[float] = None
        ) -> Tuple[Dict[str, Any], List[str]]:
    """Set up, measure and check one workload; returns the result object
    and the failed ops' reasons."""
    started = time.perf_counter() if started is None else started
    from workloads import SIZES, WORKLOADS

    imported_s = time.perf_counter() - started
    workdir = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    try:
        # One set-up takes 1 to 14 s and is as exposed to the host's
        # drift as an op: set up afresh until a quarter of ``seconds``
        # has gone into set-up, and keep the last workload.
        setups: List[float] = []
        while not setups or sum(setups) < seconds / 4:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            gc.collect()
            start = time.perf_counter()
            workload = WORKLOADS[workload_name](seed, SIZES[size], workdir)
            workload.setup()
            setups.append(time.perf_counter() - start)
        setup_s = imported_s + statistics.median(setups)
        # The inputs built in set-up live all run; keep the collector
        # from rescanning them during every op.
        gc.collect()
        gc.freeze()
        if trace:
            from spans import Tracer

            tracer = Tracer()
            records, traced = closed_loop(workload, seconds, tracer)
            tracer.write(WORK / "traces" / f"{workload_name}-seed{seed}"
                         f".spans.jsonl.gz")
            metrics = per_layer(tracer, traced, records)
            records = records + traced
        else:
            records, _ = closed_loop(workload, seconds)
            metrics = end_to_end(records, setup_s, workload.cycle)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [r for r in records if r.failure is not None]
    for r in failures:
        print(f"op {r.index} FAILED: {r.failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }, [r.failure for r in failures]


def import_program() -> Optional[str]:
    """Import the program from this checkout's sources, never from an
    installed copy; returns why that failed, or None."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program sources under {SRC}"
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return f"imported repro from {repro.__file__}, not {SRC}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("usaas-warm", "usaas-cold", "stream-durable"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size (smoke: the self-test's)")
    args = parser.parse_args(argv)
    error = import_program()
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    result, _ = run(args.workload, args.seed, args.seconds,
                    bool(args.trace), args.size, started=started)
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed={args.seed} ops={attempted} "
          f"failed={failed} failed_frac={failed / attempted:.4f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
