"""Cross-signal correlation: do implicit and explicit feedback agree?

The correlator joins two signal series on their daily means and reports
Pearson correlation, optionally scanning a small lag window — explicit
feedback (social posts, ratings) often trails the network event that
implicit actions react to instantly.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.signals import SignalSeries
from repro.core.stats import pearson
from repro.errors import AnalysisError


@dataclass(frozen=True)
class CorrelationFinding:
    """Result of correlating two daily-mean series.

    Attributes:
        metric_a / metric_b: the two metrics involved.
        correlation: Pearson r at the best lag.
        best_lag_days: lag (of b relative to a) maximising |r|; positive
            means b trails a.
        n_days: overlapping days used.
    """

    metric_a: str
    metric_b: str
    correlation: float
    best_lag_days: int
    n_days: int

    @property
    def strength(self) -> str:
        r = abs(self.correlation)
        if r >= 0.7:
            return "strong"
        if r >= 0.4:
            return "moderate"
        if r >= 0.2:
            return "weak"
        return "negligible"


def _day_arrays(daily: Dict[dt.date, float]) -> Tuple[np.ndarray, np.ndarray]:
    """(day ordinals, means) in the dict's order."""
    return (
        np.fromiter((d.toordinal() for d in daily), dtype=np.int64,
                    count=len(daily)),
        np.fromiter(daily.values(), dtype=float, count=len(daily)),
    )


def _joined(
    a_days: np.ndarray,
    a_values: np.ndarray,
    b_sorted_days: np.ndarray,
    b_sorted_values: np.ndarray,
    lag_days: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pairs (a on day d, b on day d + lag), in a's order."""
    shifted = a_days + lag_days
    pos = np.searchsorted(b_sorted_days, shifted)
    pos[pos == len(b_sorted_days)] = 0
    hit = b_sorted_days[pos] == shifted
    return a_values[hit], b_sorted_values[pos[hit]]


def correlate_series(
    a: SignalSeries,
    b: SignalSeries,
    metric_a: str,
    metric_b: str,
    max_lag_days: int = 3,
    min_overlap_days: int = 10,
) -> CorrelationFinding:
    """Correlate the daily means of two signal series over a lag window."""
    if max_lag_days < 0:
        raise AnalysisError("max_lag_days must be >= 0")
    a_daily = a.filter(metric=metric_a).daily_mean()
    b_daily = b.filter(metric=metric_b).daily_mean()
    if not a_daily or not b_daily:
        raise AnalysisError(
            f"no data for {metric_a!r} or {metric_b!r}"
        )
    a_days, a_values = _day_arrays(a_daily)
    b_days, b_values = _day_arrays(b_daily)
    order = np.argsort(b_days)
    b_days, b_values = b_days[order], b_values[order]
    best: Optional[CorrelationFinding] = None
    for lag in range(-max_lag_days, max_lag_days + 1):
        xs, ys = _joined(a_days, a_values, b_days, b_values, lag)
        if len(xs) < min_overlap_days:
            continue
        r = pearson(xs, ys)
        if best is None or abs(r) > abs(best.correlation):
            best = CorrelationFinding(
                metric_a=metric_a,
                metric_b=metric_b,
                correlation=r,
                best_lag_days=lag,
                n_days=len(xs),
            )
    if best is None:
        raise AnalysisError(
            f"fewer than {min_overlap_days} overlapping days between "
            f"{metric_a!r} and {metric_b!r} at every lag"
        )
    return best
