"""Fig. 7: monthly median downlink speed from OCR'd screenshots.

§4.2: screenshots across providers are OCR'd, downlink speeds extracted,
and for each month the median across all shared tests is plotted.  The
paper also checks stability — *"We also plot the monthly median downlink
speeds with 95% and 90% of the monthly speed data picked uniformly at
random — the plots closely follow each other showing that the observed
medians are considerably stable."*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.timeline import Month, MonthlySeries, month_of
from repro.errors import AnalysisError, ExtractionError
from repro.ocr.engine import OcrEngine
from repro.ocr.noise import NoiseModel
from repro.ocr.render import render_screenshot
from repro.perf.columnar import corpus_columns
from repro.rng import derive
from repro.social.corpus import RedditCorpus


@dataclass
class SpeedTrack:
    """Monthly medians plus extraction bookkeeping.

    Attributes:
        median: monthly median downlink (Mbps) from extracted reports.
        subsampled: the stability variants, keyed by kept fraction.
        n_reports: usable extractions per month.
        n_shared / n_extracted: pipeline funnel totals.
        by_provider: per-detected-provider monthly medians — the paper
            aggregates "across test providers like Ookla, Fast, Starlink
            itself, and others", which is only sound if the providers
            agree; :meth:`provider_agreement` quantifies that.
    """

    median: MonthlySeries
    subsampled: Dict[float, MonthlySeries]
    n_reports: Dict[Month, int]
    n_shared: int
    n_extracted: int
    by_provider: Dict[str, MonthlySeries]

    @property
    def extraction_rate(self) -> float:
        if self.n_shared == 0:
            raise AnalysisError("no shared screenshots")
        return self.n_extracted / self.n_shared

    def provider_agreement(self) -> float:
        """Worst relative gap between any provider's monthly median and
        the pooled median, across commonly populated months.

        Small values justify pooling screenshots across providers.
        """
        worst = 0.0
        compared = 0
        for series in self.by_provider.values():
            for month, value in series.items():
                pooled = self.median[month]
                if np.isnan(pooled) or np.isnan(value) or pooled <= 0:
                    continue
                worst = max(worst, abs(value - pooled) / pooled)
                compared += 1
        if compared == 0:
            raise AnalysisError("no commonly populated provider months")
        return worst

    def max_subsample_deviation(self) -> float:
        """Largest relative gap between full and subsampled medians.

        Small values back the paper's "considerably stable" claim.
        """
        worst = 0.0
        for series in self.subsampled.values():
            for month, value in series.items():
                full = self.median[month]
                if np.isnan(full) or np.isnan(value) or full <= 0:
                    continue
                worst = max(worst, abs(value - full) / full)
        return worst


def track_speeds(
    corpus: RedditCorpus,
    noise: Optional[NoiseModel] = None,
    engine: Optional[OcrEngine] = None,
    subsample_fractions: tuple = (0.95, 0.90),
    min_reports_per_month: int = 5,
    seed: int = 0,
) -> SpeedTrack:
    """Run the full screenshot → OCR → monthly-median pipeline.

    Every shared speed test is rendered into a screenshot, corrupted by
    the noise model, and put through the OCR engine; only successfully
    extracted downloads feed the medians.  The analysis never touches the
    ground-truth numbers.
    """
    noise = noise if noise is not None else NoiseModel()
    engine = engine or OcrEngine()
    rng = derive(seed, "analysis", "speed-ocr")

    # Share the one columnar corpus scan with the other §4 analyses
    # instead of re-walking every post for its speed test.
    if isinstance(corpus, RedditCorpus):
        posts = corpus.posts()
        rows = corpus_columns(corpus).speed_indices.tolist()
        shares = [posts[i] for i in rows]
    else:
        shares = corpus.speed_shares()
    per_month: Dict[Month, List[float]] = {}
    per_provider_month: Dict[str, Dict[Month, List[float]]] = {}
    n_extracted = 0
    for post in shares:
        screenshot = noise.apply(rng, render_screenshot(post.speed_test))
        try:
            report = engine.extract(screenshot)
        except ExtractionError:
            continue
        if not report.has_download:
            continue
        n_extracted += 1
        month = month_of(post.date)
        per_month.setdefault(month, []).append(float(report.download_mbps))
        # Grouped by the *detected* provider — the analysis never peeks
        # at the share's ground-truth provider tag.
        per_provider_month.setdefault(report.provider, {}).setdefault(
            month, []
        ).append(float(report.download_mbps))

    if not per_month:
        raise AnalysisError("no usable speed reports extracted")

    medians: Dict[Month, float] = {}
    counts: Dict[Month, int] = {}
    for month, values in per_month.items():
        counts[month] = len(values)
        if len(values) >= min_reports_per_month:
            medians[month] = float(np.median(values))
    if not medians:
        raise AnalysisError("no month reached min_reports_per_month")
    median = MonthlySeries.from_mapping(medians)

    subsampled: Dict[float, MonthlySeries] = {}
    for fraction in subsample_fractions:
        if not 0 < fraction <= 1:
            raise AnalysisError(f"bad subsample fraction {fraction}")
        sub: Dict[Month, float] = {}
        for month, values in per_month.items():
            keep = max(1, int(round(len(values) * fraction)))
            if keep >= min_reports_per_month:
                picked = rng.choice(values, size=keep, replace=False)
                sub[month] = float(np.median(picked))
        subsampled[fraction] = MonthlySeries.from_mapping(
            sub, start=median.start, end=median.end
        )
    by_provider: Dict[str, MonthlySeries] = {}
    for provider, months in per_provider_month.items():
        provider_medians = {
            month: float(np.median(values))
            for month, values in months.items()
            if len(values) >= min_reports_per_month
        }
        if provider_medians:
            by_provider[provider] = MonthlySeries.from_mapping(
                provider_medians, start=median.start, end=median.end
            )

    return SpeedTrack(
        median=median,
        subsampled=subsampled,
        n_reports=counts,
        n_shared=len(shares),
        n_extracted=n_extracted,
        by_provider=by_provider,
    )
