"""Per-signal reference implementations of the columnar signal plane.

:class:`~repro.core.signals.SignalSeries` stores signals as columns and
its consumers aggregate with grouped array reductions.  These are the
loops they replaced, one ``Signal`` at a time, kept as test oracles: the
columnar results must equal them exactly — same order, same dict order,
same float bits.
"""

from __future__ import annotations

import datetime as dt
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.signals import Signal, SignalKind
from repro.core.stats import trimmed_mean
from repro.core.usaas.monitoring import Alarm
from repro.core.usaas.privacy import is_scrubbed
from repro.engagement.early_warning import DriftDetector
from repro.errors import PrivacyError, SchemaError
from repro.integrity.trust import (
    BURST_DAY_POSTS,
    FRAUD_CONSTANT_FRAC,
    FRAUD_MIN_RATINGS,
    TrustScore,
)


def filter_signals(
    signals: List[Signal],
    kind: Optional[SignalKind] = None,
    network: Optional[str] = None,
    service: Optional[str] = None,
    metric: Optional[str] = None,
    start: Optional[dt.datetime] = None,
    end: Optional[dt.datetime] = None,
    **attrs: str,
) -> List[Signal]:
    def keep(s: Signal) -> bool:
        if kind is not None and s.kind is not kind:
            return False
        if network is not None and s.network != network:
            return False
        if service is not None and s.service != service:
            return False
        if metric is not None and s.metric != metric:
            return False
        if start is not None and s.timestamp < start:
            return False
        if end is not None and s.timestamp > end:
            return False
        return all(s.attr(k) == v for k, v in attrs.items())

    return [s for s in signals if keep(s)]


def weighted_mean(signals: List[Signal]) -> float:
    if not signals:
        raise SchemaError("cannot average an empty signal series")
    total_weight = sum(s.weight for s in signals)
    if total_weight == 0:
        raise SchemaError("all signals have zero weight")
    return sum(s.value * s.weight for s in signals) / total_weight


def daily_mean(signals: List[Signal]) -> Dict[dt.date, float]:
    sums: Dict[dt.date, float] = {}
    weights: Dict[dt.date, float] = {}
    for s in signals:
        sums[s.date] = sums.get(s.date, 0.0) + s.value * s.weight
        weights[s.date] = weights.get(s.date, 0.0) + s.weight
    return {
        day: sums[day] / weights[day] for day in sums if weights[day] > 0
    }


def bias_apply(
    signals: List[Signal], per_author_daily_cap: int, weight_cap_quantile: float
) -> List[Signal]:
    if not signals:
        return []
    if per_author_daily_cap > 0:
        seen: Dict[Tuple[str, object], int] = {}
        kept: List[Signal] = []
        for signal in signals:
            author = signal.attr("user") or "?"
            key = (author, signal.date)
            seen[key] = seen.get(key, 0) + 1
            if seen[key] <= per_author_daily_cap:
                kept.append(signal)
        signals = kept
    if weight_cap_quantile < 1 and signals:
        weights = np.array([s.weight for s in signals])
        cap = float(np.quantile(weights, weight_cap_quantile))
        cap = max(cap, 1.0)
        signals = [
            Signal(
                kind=s.kind, timestamp=s.timestamp, network=s.network,
                metric=s.metric, value=s.value, service=s.service,
                weight=min(s.weight, cap), attrs=s.attrs,
            )
            for s in signals
        ]
    return list(signals)


def distinct_users(signals: List[Signal]) -> int:
    return len({s.attr("user") for s in signals if s.attr("user")})


def assert_scrubbed(signals: List[Signal]) -> None:
    for signal in signals:
        user = signal.attr("user")
        if user and not is_scrubbed(user):
            raise PrivacyError(
                f"signal at {signal.timestamp} carries raw identifier"
            )


def score_signal_units(signals: List[Signal]) -> Dict[str, TrustScore]:
    per_user: Dict[str, Dict[str, object]] = {}
    for s in signals:
        unit = s.attr("user")
        if unit is None:
            continue
        entry = per_user.setdefault(unit, {"ratings": [], "days": {}})
        if s.metric == "rating":
            entry["ratings"].append(int(round(s.value)))
        days = entry["days"]
        days[s.date] = days.get(s.date, 0) + 1
    scores: Dict[str, TrustScore] = {}
    for unit in sorted(per_user):
        entry = per_user[unit]
        ratings = entry["ratings"]
        days = entry["days"]
        bias = 0.0
        flags = []
        if len(ratings) >= FRAUD_MIN_RATINGS:
            bias = max(
                sum(1 for r in ratings if r == extreme) / len(ratings)
                for extreme in (1, 5)
            )
            if bias >= FRAUD_CONSTANT_FRAC:
                flags.append("rating_fraud")
        if max(days.values()) >= BURST_DAY_POSTS:
            flags.append("burst")
        if "rating_fraud" in flags:
            trust = 0.0
        elif flags:
            trust = 0.5
        else:
            trust = 1.0
        scores[unit] = TrustScore(
            unit=unit, n_items=sum(days.values()), duplicate_ratio=0.0,
            burst_peak=max(days.values()), rating_bias=bias,
            flags=tuple(flags), trust=trust,
        )
    return scores


def integrity_means(
    subset: List[Signal], scores: Dict[str, TrustScore]
) -> Optional[Tuple[float, float]]:
    """(naive mean, trust-filtered trimmed mean) of the service's
    integrity section; None when no signal keeps a positive trust."""
    values: List[float] = []
    kept: List[float] = []
    for signal in subset:
        unit = signal.attr("user")
        trust = scores[unit].trust if unit in scores else 1.0
        values.append(signal.value)
        if trust > 0:
            kept.append(signal.value)
    if not kept:
        return None
    return (
        float(np.mean(values)),
        float(trimmed_mean(np.array(kept, dtype=float))),
    )


def breakdown_means(
    subset: List[Signal], attribute: str
) -> List[Tuple[str, int, float]]:
    """(attribute value, group size, group mean), sorted by value."""
    groups: Dict[str, List[float]] = {}
    for signal in subset:
        value = signal.attr(attribute)
        if value is not None:
            groups.setdefault(value, []).append(signal.value)
    return [
        (name, len(values), float(np.mean(values)))
        for name, values in sorted(groups.items())
    ]


def watch_metric(
    signals: List[Signal], metric: str, detector: DriftDetector, rearm: bool
) -> List[Alarm]:
    """The per-signal day loop of :func:`repro.core.usaas.watch_metric`."""
    by_day: Dict[dt.date, List[float]] = {}
    for signal in signals:
        if signal.metric == metric:
            by_day.setdefault(signal.date, []).append(signal.value)
    alarms: List[Alarm] = []
    previously_alarmed = False
    for day in sorted(by_day):
        values = by_day[day]
        z = detector.observe(values)
        if detector.has_alarmed and not previously_alarmed:
            alarms.append(Alarm(
                day=day,
                metric=metric,
                z_score=float(z) if z is not None else float("nan"),
                day_mean=float(sum(values) / len(values)),
                n_signals=len(values),
            ))
            if rearm:
                detector.rearm()
            else:
                previously_alarmed = True
    return alarms
