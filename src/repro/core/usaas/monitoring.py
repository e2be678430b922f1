"""Continuous monitoring: USaaS as an alarm service.

§6: *"Both service and network providers could proactively act based on
USaaS output."*  The batch ``answer()`` path tells a stakeholder what has
happened; this module watches a signal stream and tells them the moment
something *starts* happening, by replaying the series day by day through
the engagement drift detector.

:func:`watch_metric` returns every alarm the detector would have raised
across the series' history — running it daily in production amounts to
keeping only the last day's verdict.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.signals import SignalSeries
from repro.engagement.early_warning import DriftDetector
from repro.errors import AnalysisError


@dataclass(frozen=True)
class Alarm:
    """One raised alarm.

    Attributes:
        day: the day the alarm fired.
        metric: which metric drifted.
        z_score: that day's z-score against the learned baseline.
        day_mean: the day's mean metric value.
        n_signals: how many signals the day aggregated.
    """

    day: dt.date
    metric: str
    z_score: float
    day_mean: float
    n_signals: int


def watch_metric(
    series: SignalSeries,
    metric: str,
    detector: Optional[DriftDetector] = None,
    rearm: bool = True,
) -> List[Alarm]:
    """Replay a signal series through a drift detector.

    Args:
        series: the signal stream (any kind/network mix — filter first).
        metric: the metric to watch.
        detector: detector settings; default watches for drops.
        rearm: after an alarm, reset the streak so distinct episodes
            produce distinct alarms (False = first alarm only).

    Returns:
        Alarms in chronological order.
    """
    subset = series.filter(metric=metric)
    if len(subset) == 0:
        raise AnalysisError(f"no signals carry metric {metric!r}")
    # Group by day ordinal: a stable sort keeps each day's values in
    # series order, and bincount sums in that order (np.sum would add
    # pairwise and round differently), so day means keep their bits.
    days = subset.day_ordinals()
    values = subset.value_array()
    ordinals, group, counts = np.unique(
        days, return_inverse=True, return_counts=True
    )
    sums = np.bincount(group, weights=values, minlength=len(ordinals))
    by_day = values[np.argsort(days, kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()

    detector = detector or DriftDetector()
    alarms: List[Alarm] = []
    previously_alarmed = False
    for g, ordinal in enumerate(ordinals.tolist()):
        z = detector.observe(by_day[bounds[g]:bounds[g + 1]])
        if detector.has_alarmed and not previously_alarmed:
            alarms.append(Alarm(
                day=dt.date.fromordinal(ordinal),
                metric=metric,
                z_score=float(z) if z is not None else float("nan"),
                day_mean=float(sums[g] / counts[g]),
                n_signals=int(counts[g]),
            ))
            if rearm:
                detector.rearm()
            else:
                previously_alarmed = True
    return alarms
