"""Performance subsystem: crash-safe sharded execution and caching.

The two data factories (call telemetry and the r/Starlink corpus) run
every unit of work — a call, a day — on its own RNG substream, which
makes them order-free and therefore shardable.  This package provides:

* :class:`ParallelMap` / :func:`plan_shards` — the sharded executor
  with an ordered merge, per-shard retry (:class:`ExecutionPolicy`), a
  hung-worker :class:`Watchdog` and graceful in-process fallback;
* :class:`CheckpointStore` — durable per-shard progress, so an
  interrupted run resumed with ``--resume`` re-executes only the
  missing shards;
* :class:`ArtifactCache` — content-addressed persistence of generated
  datasets keyed on a config fingerprint + schema version;
* :mod:`repro.perf.columnar` — the struct-of-arrays query layer the
  analysis read paths run on (:func:`participant_columns`,
  :func:`corpus_columns`).

See ``docs/performance.md`` for the architecture (its §4 for the
failure and resume model, §6 for the columnar layer).
"""

from repro.perf.cache import (
    ARTIFACT_KINDS,
    ARTIFACT_SCHEMA_VERSION,
    ArtifactCache,
    CacheStats,
    config_fingerprint,
    default_cache_root,
)
from repro.perf.columnar import (
    COLUMNS_SCHEMA,
    CorpusColumns,
    ParticipantColumns,
    SentimentBlock,
    corpus_columns,
    participant_columns,
)
from repro.perf.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
    shard_fingerprint,
)
from repro.perf.parallel import (
    DEFAULT_CHUNKS_PER_WORKER,
    ExecutionPolicy,
    ExecutionReport,
    ParallelMap,
    Shard,
    plan_shards,
    resolve_workers,
    split_evenly,
)
from repro.perf.watchdog import StragglerRecord, StragglerReport, Watchdog

__all__ = [
    "ARTIFACT_KINDS",
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactCache",
    "CacheStats",
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointStore",
    "COLUMNS_SCHEMA",
    "CorpusColumns",
    "config_fingerprint",
    "corpus_columns",
    "default_cache_root",
    "DEFAULT_CHUNKS_PER_WORKER",
    "ExecutionPolicy",
    "ExecutionReport",
    "ParallelMap",
    "ParticipantColumns",
    "participant_columns",
    "SentimentBlock",
    "Shard",
    "StragglerRecord",
    "StragglerReport",
    "Watchdog",
    "plan_shards",
    "resolve_workers",
    "shard_fingerprint",
    "split_evenly",
]
