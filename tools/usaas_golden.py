#!/usr/bin/env python
"""Golden USaaS answers: render, write and check them byte for byte.

For each golden seed this generates a smoke-size call dataset and social
corpus, answers the three benchmark queries (the `repro usaas` default,
a Teams breakdown by platform, and a January-to-March window) and
renders each answer's summary, source-health and trust tables the way
`repro usaas` prints them, followed by every insight and correlation
with its evidence at full float precision (the summary withholds
low-confidence findings and rounds what it shows).  ``--write`` stores
the text under ``tests/usaas/golden/``; ``--check`` renders it again and
compares — twice per seed: once on freshly generated data, and once on
data served by a warm artifact cache (filled first, then read by fresh
generator instances from the column blocks alone, records undecoded).

    python tools/usaas_golden.py --check    # exit 0 equal, 1 differs
    python tools/usaas_golden.py --write    # refresh the golden files

A rewrite of the query path (signal storage, filtering, bias, trust,
correlation) must leave these bytes unchanged.
"""

from __future__ import annotations

import argparse
import datetime as dt
import difflib
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.core.usaas import (  # noqa: E402
    UsaasQuery,
    UsaasService,
    social_signals,
    telemetry_signals,
)
from repro.perf import ArtifactCache  # noqa: E402
from repro.social import CorpusConfig, CorpusGenerator  # noqa: E402
from repro.telemetry import CallDatasetGenerator, GeneratorConfig  # noqa: E402

GOLDEN_DIR = REPO / "tests" / "usaas" / "golden"
SEEDS = (101, 202, 303)
NETWORK = "starlink"

#: Smoke size: 40 calls and a one-quarter corpus of 300 authors.
N_CALLS = 40
CORPUS_SPAN = (dt.date(2022, 1, 1), dt.date(2022, 3, 31))
AUTHORS = 300


def queries() -> Tuple[UsaasQuery, ...]:
    return (
        UsaasQuery(network=NETWORK),
        UsaasQuery(network=NETWORK, service="teams", breakdown="platform"),
        UsaasQuery(network=NETWORK, start=dt.datetime(2022, 1, 1),
                   end=dt.datetime(2022, 4, 1)),
    )


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


def render_evidence(report) -> str:
    """Every insight and correlation, floats as ``repr`` (bit-exact)."""
    lines = ["insights:"]
    for insight in report.insights:
        lines.append(
            f"  {insight.kind} {insight.confidence!r} {insight.statement} "
            f"{insight.evidence!r}"
        )
    lines.append("correlations:")
    for c in report.correlations:
        lines.append(
            f"  {c.metric_a} x {c.metric_b}: r={c.correlation!r} "
            f"lag={c.best_lag_days} n_days={c.n_days}"
        )
    return "\n".join(lines)


def datasets(seed: int, cache: Optional[ArtifactCache] = None):
    """The seed's call dataset and corpus, from fresh generators."""
    calls = CallDatasetGenerator(
        GeneratorConfig(n_calls=N_CALLS, seed=seed)
    ).generate(cache=cache)
    corpus = CorpusGenerator(CorpusConfig(
        seed=seed, span_start=CORPUS_SPAN[0], span_end=CORPUS_SPAN[1],
        author_pool_size=AUTHORS,
    )).generate(cache=cache)
    return calls, corpus


def render_seed(seed: int, cache: Optional[ArtifactCache] = None) -> str:
    """Every query's rendered answer for one dataset seed.

    With ``cache`` (empty on entry), one pass fills it and every query
    is then answered on datasets that fresh generators read back from it.
    """
    if cache is None:
        calls, corpus = datasets(seed)
    else:
        datasets(seed, cache)
    blocks = []
    for i, query in enumerate(queries()):
        if cache is not None:
            calls, corpus = datasets(seed, cache)
        service = UsaasService()
        service.register_source(
            "telemetry", lambda: telemetry_signals(calls, network=NETWORK)
        )
        service.register_source(
            "social", lambda: social_signals(corpus, network=NETWORK)
        )
        report = service.answer(query)
        blocks.append(
            f"=== query {i}: {query!r}\n{render(report)}\n\n"
            f"{render_evidence(report)}\n"
        )
    return "\n".join(blocks)


def golden_path(seed: int) -> Path:
    return GOLDEN_DIR / f"seed{seed}.txt"


def check() -> Dict[Tuple[int, str], str]:
    """(seed, "fresh" | "cache hit") -> unified diff (or why the cache
    pass did not hit) for every answer that changed."""
    diffs: Dict[Tuple[int, str], str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            path = golden_path(seed)
            want = path.read_text(encoding="utf-8") if path.exists() else ""
            cache = ArtifactCache(Path(tmp) / str(seed))
            for source, got in (
                ("fresh", render_seed(seed)),
                ("cache hit", render_seed(seed, cache)),
            ):
                if got != want:
                    diffs[seed, source] = "".join(difflib.unified_diff(
                        want.splitlines(keepends=True),
                        got.splitlines(keepends=True), fromfile=str(path),
                        tofile=f"rendered seed {seed} ({source})",
                    ))
            # The fill misses on four entries (two record entries, two
            # column blocks); each answer then reads the two blocks only.
            expected = (4, 2 * len(queries()))
            if (cache.misses, cache.hits) != expected:
                diffs[seed, "cache hit"] = (
                    f"cache misses/hits {cache.misses}/{cache.hits}, "
                    f"expected {expected[0]}/{expected[1]}\n"
                )
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="render and store the golden answers")
    mode.add_argument("--check", action="store_true",
                      help="render and compare with the stored answers")
    args = parser.parse_args(argv)
    if args.write:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for seed in SEEDS:
            golden_path(seed).write_text(render_seed(seed), encoding="utf-8")
            print(f"wrote {golden_path(seed).relative_to(REPO)}")
        return 0
    diffs = check()
    for (seed, source), diff in diffs.items():
        print(f"seed {seed} ({source}) differs:\n{diff}")
    if not diffs:
        print(f"golden answers match for seeds {', '.join(map(str, SEEDS))}"
              " (fresh and cache-hit data)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
