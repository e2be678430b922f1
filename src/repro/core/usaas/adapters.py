"""Adapters: domain datasets → unified signal series.

These are the ingestion shims a real USaaS deployment would run next to
each source: the conferencing service exports per-session user actions
(implicit) and ratings (explicit); the social pipeline exports per-post
sentiment polarity weighted by popularity.
"""

from __future__ import annotations

import datetime as dt
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.signals import (
    ExplicitSignal,
    ImplicitSignal,
    SignalKind,
    SignalSeries,
    encode_column,
)
from repro.core.usaas.privacy import scrub_author
from repro.errors import QueryError, SchemaError
from repro.nlp.sentiment import SentimentAnalyzer, SentimentScores
from repro.perf.columnar import corpus_columns, participant_columns
from repro.resilience.policy import Fallback
from repro.social.corpus import RedditCorpus
from repro.telemetry.store import CallDataset


class FallbackSentimentChain:
    """Sentiment scoring with graceful degradation.

    A real deployment scores posts with a hosted service (an Azure-style
    text-analytics API); when that dependency is down the pipeline must
    keep producing polarity signals rather than dropping the whole
    social feed.  This chain tries each ``(name, scorer)`` in order and
    always ends at the offline lexicon
    :class:`~repro.nlp.sentiment.SentimentAnalyzer`, which cannot fail
    on valid text.  It is a drop-in for the ``analyzer=`` argument of
    :func:`social_signals` (only ``.score`` is required).

        chain = FallbackSentimentChain(("azure", azure_scorer))
        series = social_signals(corpus, analyzer=chain)
        chain.served_by  # {"azure": 812, "offline-lexicon": 44}
    """

    OFFLINE = "offline-lexicon"

    def __init__(self, *scorers, offline: Optional[SentimentAnalyzer] = None):
        offline = offline or SentimentAnalyzer()
        links = tuple(scorers) + ((self.OFFLINE, offline.score),)
        self._chain = Fallback(*links)
        self.fallback_calls = 0

    @property
    def served_by(self) -> Dict[str, int]:
        """How many calls each link answered."""
        return dict(self._chain.served_by)

    @property
    def degraded(self) -> bool:
        """True once any call was served by a non-primary link."""
        return self.fallback_calls > 0

    def score(self, text: str) -> SentimentScores:
        result = self._chain.call(text)
        if not isinstance(result.value, SentimentScores):
            raise SchemaError(
                f"sentiment scorer {result.used!r} returned "
                f"{type(result.value).__name__}, expected SentimentScores"
            )
        if result.degraded:
            self.fallback_calls += 1
        return result.value


#: Per-participant signal layout: four implicit rows, then the sparse
#: explicit rating row.  Order matters — it is the record-path order.
_TELEMETRY_METRICS = ("presence", "cam_on", "mic_on", "drop_off", "rating")
_KINDS = (SignalKind.IMPLICIT, SignalKind.EXPLICIT)
_TELEMETRY_KIND_CODES = np.array([0, 0, 0, 0, 1], dtype=np.int32)


def _scrubbed(identifiers: list) -> list:
    return [scrub_author(i) for i in identifiers]


def telemetry_signals(
    dataset: CallDataset,
    network: str,
    service: str = "teams",
    network_of: Optional[Callable] = None,
) -> SignalSeries:
    """Export a call dataset as implicit (+ sparse explicit) signals.

    A plain ``CallDataset`` with a single ``network`` label takes the
    columnar bulk-export path (signal-for-signal identical to
    :func:`telemetry_signals_records`, which remains the reference
    implementation and handles per-participant ``network_of``).

    Args:
        network: network label for every session, unless ``network_of``
            is given.
        network_of: optional ``participant -> network-name`` attribution
            function (a real deployment would map client IPs to ASes).
    """
    if not network and network_of is None:
        raise QueryError("either network or network_of is required")
    if isinstance(dataset, CallDataset) and network_of is None:
        return _telemetry_signals_columnar(dataset, network, service)
    return telemetry_signals_records(dataset, network, service, network_of)


def telemetry_signals_records(
    dataset: CallDataset,
    network: str,
    service: str = "teams",
    network_of: Optional[Callable] = None,
) -> SignalSeries:
    """Record-at-a-time reference implementation of :func:`telemetry_signals`."""
    if not network and network_of is None:
        raise QueryError("either network or network_of is required")
    series = SignalSeries()
    for call in dataset:
        for p in call.participants:
            net = network_of(p) if network_of is not None else network
            author = scrub_author(p.user_id)
            common = dict(
                service=service,
                platform=p.platform,
                country=p.country,
                user=author,
            )
            ts = call.start
            series.append(ImplicitSignal(ts, net, "presence", p.presence_pct, **common))
            series.append(ImplicitSignal(ts, net, "cam_on", p.cam_on_pct, **common))
            series.append(ImplicitSignal(ts, net, "mic_on", p.mic_on_pct, **common))
            series.append(
                ImplicitSignal(ts, net, "drop_off", 100.0 * p.dropped_early, **common)
            )
            if p.rating is not None:
                series.append(
                    ExplicitSignal(ts, net, "rating", float(p.rating), **common)
                )
    return series


def _telemetry_signals_columnar(
    dataset: CallDataset, network: str, service: str
) -> SignalSeries:
    cols = participant_columns(dataset)
    n = len(cols)
    if n == 0:
        return SignalSeries()

    # Interleave: participant i contributes rows [starts[i], starts[i]+sizes[i])
    # — 4 implicit signals plus the rating row when one exists — so the
    # flat signal order equals the nested record-path loops exactly.
    rated = ~np.isnan(cols.rating)
    sizes = 4 + rated.astype(np.int64)
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    row = np.repeat(np.arange(n), sizes)
    pos = np.arange(total) - starts[row]

    vmat = np.empty((5, n))
    vmat[0] = cols.presence_pct
    vmat[1] = cols.cam_on_pct
    vmat[2] = cols.mic_on_pct
    vmat[3] = 100.0 * cols.dropped_early
    vmat[4] = cols.rating  # NaN rows are never selected (pos 4 needs rated)

    user, user_ids = encode_column(cols.user_id)
    country, countries = encode_column(cols.country)
    platform, platforms = encode_column(cols.platform)
    starts_at = np.fromiter(cols.call_start, dtype=object, count=n)
    zeros = np.zeros(total, dtype=np.int32)
    return SignalSeries.from_codes(
        kind=(_TELEMETRY_KIND_CODES[pos], _KINDS),
        timestamps=starts_at[row],
        day=np.fromiter(
            (t.toordinal() for t in cols.call_start), dtype=np.int64, count=n
        )[row],
        network=(zeros, (network,)),
        metric=(pos, _TELEMETRY_METRICS),
        values=vmat[pos, row],
        service=(zeros, (service,)),
        weight=np.ones(total),
        attrs={
            "country": (country[row], countries),
            "platform": (platform[row], platforms),
            "user": (user[row], _scrubbed(user_ids)),
        },
    )


def social_signals(
    corpus: RedditCorpus,
    network: str = "starlink",
    scores: Optional[Dict[str, SentimentScores]] = None,
    analyzer: Optional[SentimentAnalyzer] = None,
    service_of_topic: Optional[Dict[str, str]] = None,
) -> SignalSeries:
    """Export a social corpus as explicit sentiment signals.

    Each post becomes one ``sentiment_polarity`` signal in [-1, 1],
    weighted by popularity (upvotes + comments), so that one viral thread
    counts for the crowd behind it — which is also why the bias corrector
    exists downstream.

    A plain corpus scored by the lexicon analyzer takes the columnar
    path, sharing the corpus-wide sentiment block with the §4 analyses;
    precomputed ``scores`` or a custom scorer (e.g.
    :class:`FallbackSentimentChain`) fall back to
    :func:`social_signals_records`, the reference implementation.
    """
    if (
        scores is None
        and isinstance(corpus, RedditCorpus)
        and (analyzer is None or isinstance(analyzer, SentimentAnalyzer))
    ):
        return _social_signals_columnar(
            corpus, network, analyzer, service_of_topic
        )
    return social_signals_records(
        corpus, network, scores, analyzer, service_of_topic
    )


def social_signals_records(
    corpus: RedditCorpus,
    network: str = "starlink",
    scores: Optional[Dict[str, SentimentScores]] = None,
    analyzer: Optional[SentimentAnalyzer] = None,
    service_of_topic: Optional[Dict[str, str]] = None,
) -> SignalSeries:
    """Post-at-a-time reference implementation of :func:`social_signals`."""
    analyzer = analyzer or SentimentAnalyzer()
    series = SignalSeries()
    for post in corpus:
        s = scores.get(post.post_id) if scores else None
        if s is None:
            s = analyzer.score(post.full_text)
        service = (service_of_topic or {}).get(post.topic)
        series.append(
            ExplicitSignal(
                post.created,
                network,
                "sentiment_polarity",
                s.polarity,
                service=service,
                weight=max(1.0, post.popularity),
                user=scrub_author(post.author),
                topic=post.topic,
            )
        )
        if post.speed_test is not None:
            series.append(
                ExplicitSignal(
                    post.created,
                    network,
                    "reported_downlink_mbps",
                    post.speed_test.download_mbps,
                    user=scrub_author(post.author),
                    topic=post.topic,
                )
            )
    return series


_SOCIAL_METRICS = ("sentiment_polarity", "reported_downlink_mbps")


def _social_signals_columnar(
    corpus: RedditCorpus,
    network: str,
    analyzer: Optional[SentimentAnalyzer],
    service_of_topic: Optional[Dict[str, str]],
) -> SignalSeries:
    cols = corpus_columns(corpus)
    n = len(cols)
    if n == 0:
        return SignalSeries()
    block = cols.sentiment(analyzer)

    # Interleave: one polarity signal per post, plus the speed-report
    # signal right after it for posts carrying a speed test — the exact
    # record-path order.
    has_speed = np.zeros(n, dtype=np.int64)
    has_speed[cols.speed_indices] = 1
    sizes = 1 + has_speed
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    row = np.repeat(np.arange(n), sizes)
    pos = np.arange(total) - starts[row]

    vmat = np.empty((2, n))
    vmat[0] = block.polarity
    vmat[1] = cols.speed_download_mbps
    wmat = np.empty((2, n))
    wmat[0] = np.maximum(1.0, cols.popularity)
    wmat[1] = 1.0

    author, authors = encode_column(cols.author)
    topic, topics = encode_column(cols.topic)
    # Polarity rows carry the topic's service; speed rows carry none.
    topic_service = service_of_topic or {}
    services = [None] + [topic_service.get(t) for t in topics]
    service = np.where(pos == 0, topic[row] + 1, 0).astype(np.int32)
    return SignalSeries.from_codes(
        kind=(np.zeros(total, dtype=np.int32), (SignalKind.EXPLICIT,)),
        timestamps=np.fromiter(cols.created, dtype=object, count=n)[row],
        day=(cols.span_start.toordinal() + cols.day_index)[row],
        network=(np.zeros(total, dtype=np.int32), (network,)),
        metric=(pos, _SOCIAL_METRICS),
        values=vmat[pos, row],
        service=(service, services),
        weight=wmat[pos, row],
        attrs={
            "topic": (topic[row], topics),
            "user": (author[row], _scrubbed(authors)),
        },
    )
