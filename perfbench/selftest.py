"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, at the small ``smoke`` input size:

* every workload runs, untraced and traced, with no failed op;
* the metrics each run prints are exactly those ``BENCHMARK.json``
  names (``end_to_end`` untraced, ``per_layer`` traced), with its units;
* a deliberately corrupted answer (the cache decoder drops a call) or
  digest (resume loses an emission) fails ops instead of passing, and
  the failure comes from the answer or digest check itself;
* the command prints the result object as its last line, and exits
  non-zero without printing one in a directory that holds only
  ``BENCHMARK.json`` and the benchmark.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from typing import ContextManager, List
from unittest import mock

from run import HERE, ROOT, WORK, import_program, run

SEED = 7
WORKLOADS = ("usaas-warm", "usaas-cold", "stream-durable")


def corrupt_answers() -> ContextManager:
    """Cache decoding silently drops the last call of a dataset."""
    from repro.telemetry.store import CallDataset

    load = CallDataset.from_jsonl

    def lossy(path):
        return CallDataset(list(load(path))[:-1])

    return mock.patch.object(CallDataset, "from_jsonl", lossy)


def corrupt_digests() -> ContextManager:
    """Resuming from a checkpoint loses the last restored emission."""
    from repro.streaming import StreamPipeline

    resume = StreamPipeline.resume

    def lossy(*args, **kwargs):
        pipeline, cursor = resume(*args, **kwargs)
        pipeline.emissions.pop()
        return pipeline, cursor

    return mock.patch.object(StreamPipeline, "resume", lossy)


def main() -> int:
    error = import_program()
    if error is not None:
        print(error, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: List[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        expect(False, "BENCHMARK.json names the benchmark's workloads")
    for name in WORKLOADS:
        for trace in (False, True):
            result, _ = run(name, SEED, 0, trace, "smoke")
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: every op passes its checks")
            expect(units == expected[trace],
                   f"{label}: metric names and units match BENCHMARK.json")

    # Each corruption must be caught by the check under test (its
    # failure reason names it), not by some other failure it causes.
    for name, what, corrupt, caught_by in (
        ("usaas-warm", "answer", corrupt_answers, "differs"),
        ("usaas-cold", "answer", corrupt_answers, "differs"),
        ("stream-durable", "digest", corrupt_digests, "digest"),
    ):
        with corrupt():
            result, reasons = run(name, SEED, 0, False, "smoke")
        expect(not result["correct"] and result["failed"] > 0
               and all(caught_by in reason for reason in reasons),
               f"{name}: a corrupted {what} fails its ops on the "
               f"{what} check")

    command = [sys.executable, "perfbench/run.py", "--workload",
               "stream-durable", "--seed", str(SEED), "--seconds", "0",
               "--size", "smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    keys = set(json.loads(last)) if last.startswith("{") else set()
    expect(done.returncode == 0
           and keys == {"correct", "attempted", "failed", "metrics"},
           "the command's last stdout line is the result object")

    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        command[1:4] = ["perfbench/run.py", "--workload", "usaas-warm"]
        done = subprocess.run(command, cwd=bare, capture_output=True,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and "{" not in done.stdout,
           "without program sources the command fails and prints no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
