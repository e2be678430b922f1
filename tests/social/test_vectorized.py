"""Equivalence and determinism pins for the vectorized corpus engine.

Contract (see :mod:`repro.social.vectorized`): per-day substreams keep
the daily post counts draw-identical to the record path; everything
downstream of the first two draws is re-ordered into block form, so the
corpus is *statistically* equivalent — and *byte-identical* within the
vectorized path across worker counts and cache round-trips.
"""

import datetime as dt
from collections import Counter

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.perf.cache import ArtifactCache
from repro.perf.columnar import CorpusColumns
from repro.social.corpus import CorpusConfig, CorpusGenerator

SPAN = dict(span_start=dt.date(2022, 3, 1), span_end=dt.date(2022, 4, 30))


def config_for(seed, workers=1, **kwargs):
    kwargs.setdefault("author_pool_size", 200)
    return CorpusConfig(seed=seed, workers=workers, **SPAN, **kwargs)


def columns_for(seed, workers=1, cache=None, **kwargs):
    gen = CorpusGenerator(config_for(seed, workers=workers, **kwargs))
    return gen.generate_columns(cache=cache)


def assert_columns_identical(a, b):
    assert (a.span_start, a.span_end) == (b.span_start, b.span_end)
    for name in ("post_id", "author", "topic", "full_text", "created",
                 "month"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("day_index", "popularity", "speed_indices",
                 "speed_download_mbps"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        assert_columns_identical(columns_for(11), columns_for(11))

    def test_seed_changes_output(self):
        assert columns_for(11).post_id != columns_for(12).post_id

    def test_workers_are_invisible(self):
        assert_columns_identical(columns_for(11), columns_for(11, workers=3))

    def test_cache_round_trip_preserves_columns_without_posts(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        built = columns_for(11, cache=cache)
        loaded = columns_for(11, cache=cache)
        assert_columns_identical(built, loaded)
        # The vectorized path never materializes Post objects: the block
        # is all there is, and it round-trips alone.
        assert cache.stats().by_kind == {"corpus-columns-vec": 1}


class TestRecordEquivalence:
    @pytest.fixture(scope="class")
    def pair(self):
        gen = CorpusGenerator(config_for(21))
        return gen.generate(), gen.generate_columns()

    def test_daily_counts_are_draw_identical(self, pair):
        # n_posts comes off each day's substream before the paths
        # diverge, so per-day counts match exactly — not just in
        # distribution.
        corpus, cols = pair
        rec = Counter(p.date for p in corpus)
        start = cols.span_start
        vec = Counter(
            start + dt.timedelta(days=int(d)) for d in cols.day_index
        )
        assert rec == vec
        assert len(cols) == len(corpus)

    def test_sorted_by_created_with_unique_ids(self, pair):
        _, cols = pair
        assert cols.created == sorted(cols.created)
        assert len(set(cols.post_id)) == len(cols)

    def test_speed_indices_point_at_speed_posts(self, pair):
        corpus, cols = pair
        topics = np.array(cols.topic)
        assert set(topics[cols.speed_indices]) == {"speed_test_share"}
        # Internally exact: every speed post is indexed, none missed.
        assert len(cols.speed_indices) == int(
            np.count_nonzero(topics == "speed_test_share")
        )
        # Vs record only statistical — topic draws sit after the paths
        # diverge, so counts agree in distribution, not draw-for-draw.
        assert len(cols.speed_indices) == pytest.approx(
            len(corpus.speed_shares()), rel=0.10
        )

    def test_topic_mix_matches(self, pair):
        corpus, cols = pair
        rec = Counter(p.topic for p in corpus)
        vec = Counter(cols.topic)
        for topic, n in rec.items():
            if n < 30:  # rare topics are too noisy to pin tightly
                continue
            assert vec.get(topic, 0) == pytest.approx(n, rel=0.25), topic

    def test_popularity_mean_matches(self, pair):
        corpus, cols = pair
        rec = np.mean([p.popularity for p in corpus])
        assert cols.popularity.mean() == pytest.approx(rec, rel=0.15)


class TestConcat:
    def _chunk(self, day0, n, speed_at=()):
        created = [
            dt.datetime(2022, 3, 1 + day0, 10 + i % 6, 0) for i in range(n)
        ]
        return CorpusColumns(
            span_start=dt.date(2022, 3, 1),
            span_end=dt.date(2022, 3, 10),
            post_id=[f"d{day0}_{i}" for i in range(n)],
            author=["a"] * n,
            topic=["experience"] * n,
            full_text=["text"] * n,
            created=created,
            day_index=np.full(n, day0, dtype=np.int64),
            month=[(2022, 3)] * n,
            popularity=np.arange(n, dtype=float),
            speed_indices=np.array(sorted(speed_at), dtype=np.int64),
            speed_download_mbps=np.array(
                [100.0 + i if i in speed_at else np.nan for i in range(n)]
            ),
        )

    def test_rejects_empty_chunk_list(self):
        with pytest.raises(SchemaError):
            CorpusColumns.concat([])

    def test_rejects_span_mismatch(self):
        a = self._chunk(0, 2)
        b = self._chunk(1, 2)
        b.span_end = dt.date(2022, 3, 11)
        with pytest.raises(SchemaError):
            CorpusColumns.concat([a, b])

    def test_single_chunk_passthrough(self):
        a = self._chunk(0, 3)
        assert CorpusColumns.concat([a]) is a

    def test_speed_indices_are_reoffset(self):
        a = self._chunk(0, 3, speed_at=(1,))
        b = self._chunk(1, 4, speed_at=(0, 2))
        merged = CorpusColumns.concat([a, b])
        assert len(merged) == 7
        assert merged.speed_indices.tolist() == [1, 3, 5]
        assert merged.speed_download_mbps[merged.speed_indices].tolist() == [
            101.0, 100.0, 102.0,
        ]
        assert merged.post_id == a.post_id + b.post_id
