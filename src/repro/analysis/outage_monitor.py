"""Fig. 6: day-wise outage-keyword occurrences in negative threads.

§4.1: *"Fig. 6 plots the day-wise occurrences of these keywords in these
filtered Reddit threads.  Note that these occurrences are only counted if
the user sentiment attached to them was negative to avoid false
positives."*  The negative-sentiment filter is a parameter here because
DESIGN.md calls its ablation out: without it, positive posts that merely
mention outage vocabulary ("no outages since I got the dish!") pollute
the series.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.timeline import DailySeries
from repro.errors import AnalysisError
from repro.nlp.keywords import OUTAGE_KEYWORDS, KeywordDictionary
from repro.nlp.sentiment import SentimentAnalyzer, SentimentScores
from repro.perf.columnar import corpus_columns
from repro.social.corpus import RedditCorpus


@dataclass
class OutageSeries:
    """Daily keyword occurrences plus the contributing thread count."""

    occurrences: DailySeries
    threads: DailySeries

    def top_spike_days(
        self, k: int = 2, min_separation_days: int = 7
    ) -> List[Tuple[dt.date, float]]:
        return self.occurrences.top_peaks(k, min_separation_days)

    def transient_peak_days(
        self,
        spike_threshold: float,
        floor: float = 1.0,
    ) -> List[dt.date]:
        """Days with modest but non-trivial keyword activity.

        These are the "numerous shorter peaks ... correspond[ing] to local
        transient outages" — above the noise floor but below the headline
        spikes.
        """
        if spike_threshold <= floor:
            raise AnalysisError("spike_threshold must exceed floor")
        return [
            day for day, value in self.occurrences.items()
            if floor < value < spike_threshold
        ]


def outage_keyword_series(
    corpus: RedditCorpus,
    dictionary: KeywordDictionary = OUTAGE_KEYWORDS,
    scores: Optional[Dict[str, SentimentScores]] = None,
    negative_only: bool = True,
    analyzer: Optional[SentimentAnalyzer] = None,
) -> OutageSeries:
    """Count outage keywords per day across (optionally negative) threads.

    Args:
        scores: pre-computed per-post sentiment (from
            :func:`repro.analysis.sentiment_timeline.sentiment_timeline`);
            computed on the fly when absent.
        negative_only: apply the paper's negative-sentiment filter
            (threads with positive or neutral sentiment are dropped).
    """
    start, end = corpus.config.span_start, corpus.config.span_end
    occurrences = DailySeries.zeros(start, end)
    threads = DailySeries.zeros(start, end)
    if (
        negative_only
        and scores is None
        and isinstance(corpus, RedditCorpus)
        and (analyzer is None or isinstance(analyzer, SentimentAnalyzer))
    ):
        # Columnar path: the shared sentiment block replaces per-post
        # scoring; the `negative_dominant` mask is the same comparison
        # as the reject filter below, so only keyword counting remains.
        block = corpus_columns(corpus).sentiment(analyzer)
        posts = corpus.posts()
        for i in np.flatnonzero(block.negative_dominant).tolist():
            post = posts[i]
            count = dictionary.count_matches(post.thread_text)
            if count > 0:
                occurrences.add(post.date, count)
                threads.add(post.date)
        return OutageSeries(occurrences=occurrences, threads=threads)

    analyzer = analyzer or SentimentAnalyzer()
    for post in corpus:
        if negative_only:
            s = scores.get(post.post_id) if scores else None
            if s is None:
                s = analyzer.score(post.full_text)
            if s.negative <= max(s.positive, s.neutral):
                continue
        count = dictionary.count_matches(post.thread_text)
        if count > 0:
            occurrences.add(post.date, count)
            threads.add(post.date)
    return OutageSeries(occurrences=occurrences, threads=threads)
