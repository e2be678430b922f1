"""Determinism contracts of the sharded generation engine.

The headline guarantee: per-unit RNG substreams make serial and
parallel generation **byte-identical**, and the artifact cache returns
datasets equal to freshly generated ones (falling back to regeneration
when an entry is corrupted).
"""

import datetime as dt

import pytest

from repro.netsim.link import LinkProfile
from repro.perf import ArtifactCache
from repro.social import CorpusConfig, CorpusGenerator
from repro.telemetry import CallDatasetGenerator, GeneratorConfig

CALLS = dict(n_calls=16, seed=909, mos_sample_rate=0.2)
CORPUS = dict(
    seed=909,
    span_start=dt.date(2022, 2, 1),
    span_end=dt.date(2022, 3, 15),
    author_pool_size=150,
)


def _bytes_of(artifact, tmp_path, name):
    path = tmp_path / name
    artifact.to_jsonl(path)
    return path.read_bytes()


class TestByteIdenticalParallelism:
    def test_calls_serial_vs_parallel(self, tmp_path):
        serial = CallDatasetGenerator(
            GeneratorConfig(workers=1, **CALLS)
        ).generate()
        parallel = CallDatasetGenerator(
            GeneratorConfig(workers=2, **CALLS)
        ).generate()
        assert _bytes_of(serial, tmp_path, "serial.jsonl") == _bytes_of(
            parallel, tmp_path, "parallel.jsonl"
        )

    def test_corpus_serial_vs_parallel(self, tmp_path):
        serial = CorpusGenerator(CorpusConfig(workers=1, **CORPUS)).generate()
        parallel = CorpusGenerator(CorpusConfig(workers=2, **CORPUS)).generate()
        assert len(serial) == len(parallel)
        assert _bytes_of(serial, tmp_path, "serial.jsonl") == _bytes_of(
            parallel, tmp_path, "parallel.jsonl"
        )

    def test_sweep_serial_vs_parallel(self, tmp_path):
        base = LinkProfile(
            base_latency_ms=20, loss_rate=0.001, jitter_ms=2.0,
            bandwidth_mbps=3.5,
        )

        def sweep(workers):
            gen = CallDatasetGenerator(
                GeneratorConfig(n_calls=0, seed=909, workers=workers)
            )
            return gen.generate_sweep(
                base, "loss", [1e-05, 0.02], calls_per_value=4
            )

        assert _bytes_of(sweep(1), tmp_path, "s.jsonl") == _bytes_of(
            sweep(2), tmp_path, "p.jsonl"
        )

    def test_call_substreams_insensitive_to_dataset_size(self):
        """Adding calls never perturbs existing calls' draws."""
        small = CallDatasetGenerator(
            GeneratorConfig(n_calls=6, seed=909)
        ).generate()
        large = CallDatasetGenerator(
            GeneratorConfig(n_calls=12, seed=909)
        ).generate()
        by_id = {c.call_id: c for c in large}
        for call in small:
            twin = by_id[call.call_id]
            assert [p.network for p in call.participants] == [
                p.network for p in twin.participants
            ]


class TestCachedGeneration:
    def test_calls_cache_hit_equals_fresh(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        config = GeneratorConfig(**CALLS)
        fresh = CallDatasetGenerator(config).generate()
        CallDatasetGenerator(config).generate(cache=cache)  # prime (miss)
        warm = CallDatasetGenerator(config).generate(cache=cache)
        # A miss writes the record entry and its column block; a hit
        # reads only the block (records decode on first access).
        assert cache.hits == 1 and cache.misses == 2
        assert _bytes_of(fresh, tmp_path, "fresh.jsonl") == _bytes_of(
            warm, tmp_path, "warm.jsonl"
        )

    def test_corpus_cache_hit_equals_fresh(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        config = CorpusConfig(**CORPUS)
        fresh = CorpusGenerator(config).generate()
        CorpusGenerator(config).generate(cache=cache)
        warm = CorpusGenerator(config).generate(cache=cache)
        # A miss writes the record entry and its column block; a hit
        # reads only the block (posts decode on first access).
        assert cache.hits == 1 and cache.misses == 2
        assert warm.config == config  # full config survives the round trip
        assert _bytes_of(fresh, tmp_path, "fresh.jsonl") == _bytes_of(
            warm, tmp_path, "warm.jsonl"
        )

    def test_config_change_invalidates(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        CallDatasetGenerator(GeneratorConfig(**CALLS)).generate(cache=cache)
        changed = dict(CALLS, seed=910)
        CallDatasetGenerator(GeneratorConfig(**changed)).generate(cache=cache)
        assert cache.misses == 4 and cache.hits == 0
        assert cache.stats().by_kind == {"calls": 2, "participant-columns": 2}

    def test_corrupted_entry_regenerates(self, tmp_path):
        """A truncated/garbled cache file falls back to regeneration."""
        cache = ArtifactCache(tmp_path / "cache")
        config = GeneratorConfig(**CALLS)
        fresh = CallDatasetGenerator(config).generate(cache=cache)
        path = cache.path_for("calls", config)
        # Truncate mid-record — the classic crash artifact.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2] + b"\n{broken")
        recovered = CallDatasetGenerator(config).generate(cache=cache)
        # The column block is intact, so the torn record entry is found
        # (and evicted) when the records are first decoded.
        assert cache.evictions == 0
        assert [c.call_id for c in recovered] == [c.call_id for c in fresh]
        assert cache.evictions == 1
        assert _bytes_of(recovered, tmp_path, "r.jsonl") == _bytes_of(
            fresh, tmp_path, "f.jsonl"
        )
