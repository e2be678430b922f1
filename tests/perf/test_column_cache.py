"""Cache hits served from column blocks, records decoded on demand.

``CallDatasetGenerator.generate(cache=)`` and
``CorpusGenerator.generate(cache=)`` write the record JSONL entry plus a
binary column block (the corpus block with its sentiment) on a miss,
and on a hit load only the block: records decode on first access.
These tests pin that a lazy dataset equals an eager one, that every
unusable cache file is evicted and rebuilt with an unchanged answer,
that the corpus block's key follows the sentiment scorer, and that the
cache's maintenance commands see every kind it writes.
"""

import datetime as dt
import functools
import importlib
import json
import re

import numpy as np
import pytest

from repro.core.usaas import (
    UsaasQuery,
    UsaasService,
    social_signals,
    telemetry_signals,
)
from repro.errors import SchemaError
from repro.nlp.lexicon import VALENCES
from repro.nlp.sentiment import SentimentAnalyzer
from repro.perf import ARTIFACT_KINDS, ArtifactCache
from repro.perf.columnar import corpus_columns, corpus_key
from repro.social import CorpusConfig, CorpusGenerator
from repro.telemetry import CallDatasetGenerator, GeneratorConfig

SEEDS = (101, 202, 303)


def calls_config(seed=101):
    return GeneratorConfig(n_calls=12, seed=seed)


def corpus_config(seed=101):
    return CorpusConfig(
        seed=seed, span_start=dt.date(2022, 2, 1),
        span_end=dt.date(2022, 3, 15), author_pool_size=150,
    )


def generate(cache, seed=101):
    return (
        CallDatasetGenerator(calls_config(seed)).generate(cache=cache),
        CorpusGenerator(corpus_config(seed)).generate(cache=cache),
    )


def answer(calls, corpus):
    """The default `repro usaas` answer as the CLI prints it."""
    service = UsaasService()
    service.register_source(
        "telemetry", lambda: telemetry_signals(calls, network="starlink")
    )
    service.register_source(
        "social", lambda: social_signals(corpus, network="starlink")
    )
    report = service.answer(UsaasQuery(network="starlink"))
    return "\n".join([
        report.summary, report.health_table(), report.integrity_table(),
    ])


@pytest.fixture(scope="module")
def fresh():
    """Freshly generated data (no cache) and its answer."""
    calls = CallDatasetGenerator(calls_config()).generate()
    corpus = CorpusGenerator(corpus_config()).generate()
    return calls, corpus, answer(calls, corpus)


def column_path(cache, kind):
    if kind == "participant-columns":
        return cache.path_for(kind, calls_config())
    return cache.path_for(kind, corpus_key(corpus_config()))


def rewrite(path, **members):
    """Rewrite a column file with some members replaced."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays.update(members)
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def holding_an_object_array(path):
    rewrite(path, **{"created" if "corpus" in path.name else "call_start":
                     np.array([dt.datetime(2022, 1, 1)], dtype=object)})


def truncated(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 3])


def with_a_short_column(path):
    name = "popularity" if "corpus" in path.name else "presence_pct"
    with np.load(path, allow_pickle=False) as npz:
        short = npz[name][:-1]
    rewrite(path, **{name: short})


def in_the_old_jsonl_format(path):
    """What the base64-JSONL column writer left at an entry path."""
    header = {"_columnar": "corpus" if "corpus" in path.name
              else "participants", "schema": 1, "n": 3}
    column = {"name": "popularity", "kind": "f64", "data": "AAAA"}
    path.write_text(json.dumps(header) + "\n" + json.dumps(column) + "\n")


class TestOutsideInput:
    """Cache files are outside input: whatever is on disk, an unusable
    entry is evicted and rebuilt and the answer is unchanged."""

    @pytest.mark.parametrize("kind", ["participant-columns", "corpus-columns"])
    @pytest.mark.parametrize("damage", [
        holding_an_object_array, truncated, with_a_short_column,
        in_the_old_jsonl_format,
    ], ids=lambda f: f.__name__)
    def test_bad_column_block_is_rebuilt(self, tmp_path, fresh, kind, damage):
        cache = ArtifactCache(tmp_path)
        generate(cache)
        damage(column_path(cache, kind))
        calls, corpus = generate(cache)
        assert cache.evictions == 1
        assert answer(calls, corpus) == fresh[2]
        # The rebuilt block serves the next reader cleanly.
        again = ArtifactCache(tmp_path)
        assert answer(*generate(again)) == fresh[2]
        assert (again.hits, again.misses, again.evictions) == (2, 0, 0)

    @pytest.mark.parametrize("kind", ["calls", "corpus"])
    def test_torn_records_behind_a_good_block(self, tmp_path, fresh, kind):
        cache = ArtifactCache(tmp_path)
        generate(cache)
        config = calls_config() if kind == "calls" else corpus_config()
        path = cache.path_for(kind, config)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2] + b"\n{torn")
        calls, corpus = generate(cache)
        # The answer needs only the blocks: the tear is not seen yet.
        assert answer(calls, corpus) == fresh[2]
        assert cache.evictions == 0
        # First record access decodes, finds it, evicts and rebuilds.
        assert list(calls) == list(fresh[0])
        assert list(corpus) == list(fresh[1])
        assert cache.evictions == 1
        assert path.read_bytes() == raw

    @pytest.mark.parametrize("kind", ["calls", "corpus"])
    def test_records_out_of_step_with_the_block_raise_once(
        self, tmp_path, kind
    ):
        cache = ArtifactCache(tmp_path)
        generate(cache)
        config = calls_config() if kind == "calls" else corpus_config()
        path = cache.path_for(kind, config)
        lines = path.read_text().splitlines(keepends=True)
        if kind == "calls":  # same calls, another order
            lines = lines[1:] + lines[:1]
        else:  # one post fewer (posts are re-sorted on load)
            lines = lines[:-1]
        path.write_text("".join(lines))
        pick = 0 if kind == "calls" else 1
        with pytest.raises(SchemaError, match="do not match"):
            list(generate(cache)[pick])
        # The mismatch evicts the block, so the next reader rebuilds it
        # from the records on disk instead of failing again.
        block = "participant-columns" if kind == "calls" else "corpus-columns"
        assert not column_path(cache, block).exists()
        rebuilt = generate(cache)[pick]
        records = list(rebuilt)
        assert len(rebuilt) == len(records) == len(lines) - (kind == "corpus")
        again = ArtifactCache(tmp_path)
        assert list(generate(again)[pick]) == records
        assert again.misses == 0


class TestSentimentStaleness:
    def test_lexicon_change_misses_and_rescores(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        generate(cache)
        before = CorpusGenerator(corpus_config()).generate(cache=cache)
        word = "horrible"
        monkeypatch.setitem(VALENCES, word, -VALENCES[word])
        misses = cache.misses
        corpus = CorpusGenerator(corpus_config()).generate(cache=cache)
        # The block's key carries the scorer's fingerprint: a new entry.
        assert cache.misses == misses + 1
        block = corpus_columns(corpus).sentiment()
        texts = [p.full_text for p in CorpusGenerator(
            corpus_config()).generate()]
        _, positive, negative, neutral = SentimentAnalyzer().score_columns(
            texts
        )
        assert block.positive.tobytes() == positive.tobytes()
        assert block.negative.tobytes() == negative.tobytes()
        assert block.neutral.tobytes() == neutral.tobytes()
        old = corpus_columns(before).sentiment()
        assert old.polarity.tobytes() != block.polarity.tobytes()
        # ...and the re-scored block is what the next reader loads.
        again = ArtifactCache(tmp_path)
        hit = CorpusGenerator(corpus_config()).generate(cache=again)
        assert again.hits == 1 and again.misses == 0
        assert corpus_columns(hit).sentiment().polarity.tobytes() == (
            block.polarity.tobytes()
        )


    @pytest.mark.parametrize("module, name, value", [
        ("repro.nlp.sentiment", "_MIN_BOOST", 0.5),
        ("repro.nlp.sentiment", "_CAPS_MIN_LEN", 2),
        ("repro.nlp.sentiment", "_EXCLAIM_CAP", 1),
        ("repro.nlp.sentiment", "_DOMINANCE_HITS_CAP", 3),
        ("repro.nlp.sentiment", "_MIN_NEUTRAL_WORDS", 2.0),
        ("repro.nlp.tokenize", "_TOKEN_RE", re.compile(r"[A-Za-z]+|[!?]+")),
    ], ids=["min-boost", "caps-len", "exclaim-cap", "dominance-cap",
            "neutral-floor", "tokenizer"])
    def test_scorer_change_misses_and_rescores(
        self, tmp_path, monkeypatch, module, name, value
    ):
        cache = ArtifactCache(tmp_path)
        CorpusGenerator(corpus_config()).generate(cache=cache)
        monkeypatch.setattr(importlib.import_module(module), name, value)
        misses = cache.misses
        corpus = CorpusGenerator(corpus_config()).generate(cache=cache)
        assert cache.misses == misses + 1
        texts = [p.full_text for p in corpus]
        _, positive, _, _ = SentimentAnalyzer().score_columns(texts)
        assert corpus_columns(corpus).sentiment().positive.tobytes() == (
            positive.tobytes()
        )


class TestLazyRecords:
    """A cache-hit dataset equals freshly generated data, record for
    record and query for query, and decodes only when asked."""

    @pytest.fixture(scope="class", params=SEEDS)
    def pair(self, request, tmp_path_factory):
        seed = request.param
        cache = ArtifactCache(tmp_path_factory.mktemp(f"lazy{seed}"))
        generate(cache, seed)
        lazy_calls, lazy_corpus = generate(cache, seed)
        assert lazy_calls._pending is not None
        assert lazy_corpus._pending is not None
        eager = (
            CallDatasetGenerator(calls_config(seed)).generate(),
            CorpusGenerator(corpus_config(seed)).generate(),
        )
        return (lazy_calls, lazy_corpus), eager

    def test_sizes_come_from_the_columns(self, pair):
        (calls, corpus), (want_calls, want_corpus) = pair
        assert len(calls) == len(want_calls)
        assert calls.n_participants == want_calls.n_participants
        assert len(corpus) == len(want_corpus)
        assert calls._pending is not None and corpus._pending is not None

    def test_calls_equal(self, pair, tmp_path):
        (calls, _), (want, _) = pair
        assert list(calls) == list(want)
        assert calls[3] == want[3]
        assert list(calls.participants()) == list(want.participants())
        calls.to_jsonl(tmp_path / "a.jsonl")
        want.to_jsonl(tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (
            tmp_path / "b.jsonl"
        ).read_bytes()
        big = calls.filter_calls(lambda c: c.size > 2)
        assert list(big) == list(want.filter_calls(lambda c: c.size > 2))

    def test_posts_equal(self, pair, tmp_path):
        (_, corpus), (_, want) = pair
        assert list(corpus) == list(want)
        assert corpus.posts() == want.posts()
        day = want.posts()[len(want) // 2].date
        assert corpus.posts_on(day) == want.posts_on(day)
        assert corpus.speed_shares() == want.speed_shares()
        assert corpus.weekly_stats() == want.weekly_stats()
        assert corpus.daily_counts().values.tobytes() == (
            want.daily_counts().values.tobytes()
        )
        corpus.to_jsonl(tmp_path / "a.jsonl")
        want.to_jsonl(tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (
            tmp_path / "b.jsonl"
        ).read_bytes()

    def test_first_access_through_each_entry_point(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        want_calls, _ = generate(cache)
        for touch, decodes in (
            (lambda c, k: c[0], "calls"),
            (lambda c, k: c.to_jsonl(tmp_path / "x.jsonl"), "calls"),
            (lambda c, k: c.filter_calls(lambda call: True), "calls"),
            (lambda c, k: c.rated_participants(), "calls"),
            (lambda c, k: c.append(want_calls[0]), "calls"),
            (lambda c, k: k.posts(), "corpus"),
            (lambda c, k: k.speed_shares(), "corpus"),
            (lambda c, k: k.posts_on(dt.date(2022, 2, 3)), "corpus"),
            (lambda c, k: k.weekly_stats(), "corpus"),
            (lambda c, k: k.daily_counts(), "corpus"),
            (lambda c, k: k.to_jsonl(tmp_path / "y.jsonl"), "corpus"),
        ):
            calls, corpus = generate(cache)
            touch(calls, corpus)
            assert (calls._pending is None, corpus._pending is None) == (
                decodes == "calls", decodes == "corpus"
            )
        calls, _ = generate(cache)
        calls.append(want_calls[0])
        assert len(calls) == len(want_calls) + 1
        assert calls.n_participants == (
            want_calls.n_participants + want_calls[0].size
        )

    def test_hit_answers_without_decoding(self, tmp_path, fresh):
        generate(ArtifactCache(tmp_path))
        cache = ArtifactCache(tmp_path)
        calls, corpus = generate(cache)
        assert answer(calls, corpus) == fresh[2]
        assert calls._pending is not None and corpus._pending is not None
        assert (cache.hits, cache.misses) == (2, 0)

    def test_miss_scores_sentiment_once(self, tmp_path, monkeypatch):
        texts = []
        score_many = SentimentAnalyzer.score_many

        def counting(self, batch):
            batch = list(batch)
            texts.extend(batch)
            return score_many(self, batch)

        monkeypatch.setattr(SentimentAnalyzer, "score_many", counting)
        calls, corpus = generate(ArtifactCache(tmp_path))
        answer(calls, corpus)
        assert len(texts) == len(corpus)

    def test_records_only_cache_builds_the_blocks_once(self, tmp_path, fresh):
        """A cache filled before the column blocks existed (record
        entries only) gains them on first use."""
        cache = ArtifactCache(tmp_path)
        generate(cache)
        for kind in ("participant-columns", "corpus-columns"):
            column_path(cache, kind).unlink()
        calls, corpus = generate(cache)
        assert answer(calls, corpus) == fresh[2]
        assert cache.stats().by_kind == {
            "calls": 1, "corpus": 1, "participant-columns": 1,
            "corpus-columns": 1,
        }
        again = ArtifactCache(tmp_path)
        calls, corpus = generate(again)
        assert (again.hits, again.misses) == (2, 0)
        assert calls._pending is not None


class TestArtifactKinds:
    def test_usaas_fill_lists_every_kind_and_invalidate_clears_it(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.social
        import repro.telemetry
        from repro.cli import main

        # `repro usaas --cache-dir` generates its default datasets; shrink
        # them so the fill runs at test size.
        monkeypatch.setattr(repro.telemetry, "GeneratorConfig",
                            functools.partial(GeneratorConfig, n_calls=12))
        monkeypatch.setattr(repro.social, "CorpusConfig", functools.partial(
            CorpusConfig, span_start=dt.date(2022, 2, 1),
            span_end=dt.date(2022, 3, 15), author_pool_size=150,
        ))
        assert main(["usaas", "--cache-dir", str(tmp_path)]) == 0
        cache = ArtifactCache(tmp_path)
        assert cache.stats().by_kind == {
            "calls": 1, "corpus": 1, "participant-columns": 1,
            "corpus-columns": 1,
        }
        CallDatasetGenerator(calls_config()).generate_columns(cache=cache)
        CorpusGenerator(corpus_config()).generate_columns(cache=cache)
        stats = cache.stats()
        assert stats.by_kind == {kind: 1 for kind in ARTIFACT_KINDS}
        assert stats.total_bytes == sum(
            p.stat().st_size for p in tmp_path.iterdir()
            if p.suffix in (".jsonl", ".npz")
        )
        assert cache.invalidate() == len(ARTIFACT_KINDS)
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_invalidate_kind_choices_are_the_cache_kinds(self):
        from repro.cli import build_parser

        parser = build_parser()
        cache_parser = next(
            a for a in parser._subparsers._group_actions[0].choices.items()
            if a[0] == "cache"
        )[1]
        invalidate = cache_parser._subparsers._group_actions[0].choices[
            "invalidate"
        ]
        kind = next(a for a in invalidate._actions if a.dest == "kind")
        assert tuple(kind.choices) == tuple(ARTIFACT_KINDS)
