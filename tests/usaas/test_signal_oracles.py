"""The columnar signal plane equals its per-signal oracles, bit for bit.

Random series — tied timestamps, zero weights, missing users, empty
filter results, attribute filters and ``service=None`` — go through the
columnar :class:`SignalSeries` and its consumers (bias, privacy, trust,
the service's integrity and breakdown sections) and through the loops in
:mod:`tests.usaas.signal_oracles`.  Results must compare ``==`` with
dict order included, and every float must have the same bits.
"""

import datetime as dt
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signals import Signal, SignalKind, SignalSeries
from repro.core.usaas import BiasCorrector, PrivacyGuard, UsaasService
from repro.errors import PrivacyError, SchemaError
from repro.integrity.trust import score_signal_units
from tests.usaas import signal_oracles as oracle

BASE = dt.datetime(2022, 3, 1)
USERS = ("u_000000000001", "u_000000000002", "u_000000000003", "raw-id")


def bits(x):
    """A float's exact bit pattern (NaN-safe, -0.0 distinct)."""
    return struct.pack("<d", x)


def signal_key(s):
    return (s.kind, s.timestamp, s.network, s.metric, bits(s.value),
            s.service, bits(s.weight), s.attrs)


def assert_same_signals(got, want):
    got, want = list(got), list(want)
    assert got == want
    assert [signal_key(s) for s in got] == [signal_key(s) for s in want]


def assert_same_daily(got, want):
    assert list(got) == list(want)  # dict order
    assert [bits(v) for v in got.values()] == [bits(v) for v in want.values()]


@st.composite
def signals(draw, days=7):
    # A handful of hours over a few days: plenty of same-day and
    # same-instant ties.
    day = draw(st.integers(0, days - 1))
    hour = draw(st.sampled_from([0, 9, 9, 23]))
    metric = draw(st.sampled_from(["presence", "rating", "sentiment_polarity"]))
    if metric == "rating":
        # Mostly one-star (rating-fraud territory), plus halves that
        # round to even.
        value = draw(st.sampled_from([1.0, 1.0, 1.0, 1.4, 2.5, 3.0, 4.5, 5.0]))
    else:
        value = draw(st.floats(-100, 100, allow_nan=False, width=64))
    attrs = {}
    user = draw(st.sampled_from(USERS + (None,)))
    if user is not None:
        attrs["user"] = user
    platform = draw(st.sampled_from(["ios", "android", None]))
    if platform is not None:
        attrs["platform"] = platform
    return Signal(
        kind=draw(st.sampled_from(list(SignalKind))),
        timestamp=BASE + dt.timedelta(days=day, hours=hour),
        network=draw(st.sampled_from(["starlink", "fiber"])),
        metric=metric,
        value=value,
        service=draw(st.sampled_from([None, "teams", "zoom"])),
        weight=draw(st.sampled_from([0.0, 1.0, 2.5])
                    | st.floats(0, 1e4, allow_nan=False)),
        attrs=tuple(sorted(attrs.items())),
    )


series_lists = st.lists(signals(), max_size=40)

criteria = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(list(SignalKind)),
    "network": st.sampled_from(["starlink", "fiber", "absent"]),
    "service": st.sampled_from(["teams", "zoom", "absent"]),
    "metric": st.sampled_from(["presence", "rating", "absent"]),
    "start": st.sampled_from([
        BASE, BASE + dt.timedelta(days=1, hours=9),
        BASE + dt.timedelta(days=4, minutes=1),
    ]),
    "end": st.sampled_from([
        BASE + dt.timedelta(hours=9), BASE + dt.timedelta(days=2),
        BASE + dt.timedelta(days=5, hours=23, microseconds=1),
    ]),
    "platform": st.sampled_from(["ios", "android", "absent"]),
    "user": st.sampled_from(USERS),
})


def built(rows, how):
    """The same rows through each way a series is filled."""
    if how == "signals":
        return SignalSeries(rows)
    series = SignalSeries()
    if how == "append":
        for s in rows:
            series.append(s)
        return series
    half = len(rows) // 2
    for chunk in (rows[:half], rows[half:]):
        series.extend_columns(
            [s.kind for s in chunk], [s.timestamp for s in chunk],
            [s.network for s in chunk], [s.metric for s in chunk],
            [s.value for s in chunk], [s.service for s in chunk],
            [s.weight for s in chunk], [s.attrs for s in chunk],
        )
    return series


HOW = st.sampled_from(["signals", "append", "extend_columns"])


class TestSeriesMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(series_lists, HOW)
    def test_round_trip(self, rows, how):
        assert_same_signals(built(rows, how), rows)

    @settings(max_examples=200, deadline=None)
    @given(series_lists, criteria, HOW)
    def test_filter(self, rows, crit, how):
        got = built(rows, how).filter(**crit)
        assert_same_signals(got, oracle.filter_signals(rows, **crit))

    @settings(max_examples=150, deadline=None)
    @given(series_lists, criteria)
    def test_daily_and_weighted_mean(self, rows, crit):
        subset = SignalSeries(rows).filter(**crit)
        want_rows = oracle.filter_signals(rows, **crit)
        assert_same_daily(subset.daily_mean(), oracle.daily_mean(want_rows))
        try:
            want = oracle.weighted_mean(want_rows)
        except SchemaError as exc:
            with pytest.raises(SchemaError, match=str(exc)):
                subset.weighted_mean()
        else:
            assert bits(subset.weighted_mean()) == bits(want)

    @settings(max_examples=150, deadline=None)
    @given(series_lists, st.integers(0, 3),
           st.sampled_from([0.5, 0.9, 1.0]))
    def test_bias(self, rows, cap, quantile):
        corrector = BiasCorrector(per_author_daily_cap=cap,
                                  weight_cap_quantile=quantile)
        assert_same_signals(
            corrector.apply(SignalSeries(rows)),
            oracle.bias_apply(rows, cap, quantile),
        )

    @settings(max_examples=100, deadline=None)
    @given(series_lists)
    def test_privacy(self, rows):
        series = SignalSeries(rows)
        guard = PrivacyGuard(min_users=1)
        assert guard.distinct_users(series) == oracle.distinct_users(rows)
        try:
            oracle.assert_scrubbed(rows)
        except PrivacyError as exc:
            with pytest.raises(PrivacyError) as got:
                guard.assert_scrubbed(series)
            assert str(got.value) == str(exc)
        else:
            guard.assert_scrubbed(series)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(signals(days=2), min_size=30, max_size=90))
    def test_trust(self, rows):
        # Two days and up to 90 signals: bursts (8+ per user-day) and
        # rating fraud both occur.
        got = score_signal_units(SignalSeries(rows))
        want = oracle.score_signal_units(rows)
        assert list(got.items()) == list(want.items())
        # Any iterable of signals is still accepted.
        assert score_signal_units(iter(rows)) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(signals(days=2), max_size=90))
    def test_integrity_section(self, rows):
        explicit = SignalSeries(rows).filter(kind=SignalKind.EXPLICIT)
        section = UsaasService()._integrity_section(explicit)
        want_rows = oracle.filter_signals(rows, kind=SignalKind.EXPLICIT)
        scores = oracle.score_signal_units(want_rows)
        subset = oracle.filter_signals(want_rows, metric="rating")
        if not subset:
            subset = oracle.filter_signals(want_rows,
                                           metric="sentiment_polarity")
        want = oracle.integrity_means(subset, scores) if scores and subset else None
        if want is None:
            assert section is None
        else:
            assert (bits(section.naive_value), bits(section.robust_value)) == (
                bits(want[0]), bits(want[1])
            )

    @settings(max_examples=100, deadline=None)
    @given(series_lists, st.sampled_from(["platform", "user", "absent"]),
           st.integers(1, 3))
    def test_breakdown(self, rows, attribute, min_group_size):
        insights = UsaasService()._breakdown_insights(
            SignalSeries(rows), "presence", attribute, min_group_size
        )
        want = [
            (name, n, mean)
            for name, n, mean in oracle.breakdown_means(rows, attribute)
            if n >= min_group_size
        ]
        got = [
            (i.statement.split(f"{attribute}=")[1].split(" ")[0],
             int(dict(i.evidence)["n"]), dict(i.evidence)["mean"])
            for i in insights
        ]
        assert [(name, n) for name, n, _ in got] == [
            (name, n) for name, n, _ in want
        ]
        assert [bits(m) for _, _, m in got] == [bits(m) for _, _, m in want]


@st.composite
def monitored_rows(draw):
    """Several weeks of one metric with level shifts (so the detector
    alarms, sometimes more than once), other-metric noise, and rows
    shuffled so a day's signals are not contiguous."""
    rows = []
    for day in range(draw(st.integers(4, 30))):
        level = draw(st.sampled_from([70.0, 70.0, 70.0, 40.0]))
        for _ in range(draw(st.integers(1, 20))):
            rows.append(Signal(
                kind=SignalKind.IMPLICIT,
                timestamp=BASE + dt.timedelta(
                    days=day, hours=draw(st.sampled_from([0, 9, 23]))),
                network="starlink",
                metric=draw(st.sampled_from(["presence"] * 4 + ["cam_on"])),
                value=level + draw(st.floats(-9, 9, allow_nan=False)),
            ))
    return draw(st.permutations(rows))


class TestWatchMetricMatchesOracle:
    @settings(max_examples=100, deadline=None)
    @given(monitored_rows(), st.booleans(), st.integers(3, 6),
           st.sampled_from([0.5, 1.5, 3.0]), st.integers(1, 2),
           st.sampled_from(["drop", "rise", "both"]))
    def test_alarms(self, rows, rearm, warmup, z, streak, direction):
        from repro.core.usaas import watch_metric
        from repro.engagement.early_warning import DriftDetector

        def detector():
            return DriftDetector(warmup_days=warmup, z_threshold=z,
                                 consecutive_days=streak, direction=direction)

        got_detector, want_detector = detector(), detector()
        got = watch_metric(SignalSeries(rows), "presence", got_detector,
                           rearm=rearm)
        want = oracle.watch_metric(rows, "presence", want_detector, rearm)
        assert got == want
        assert [(a.day, bits(a.z_score), bits(a.day_mean), a.n_signals)
                for a in got] == [
            (a.day, bits(a.z_score), bits(a.day_mean), a.n_signals)
            for a in want
        ]
        assert got_detector == want_detector  # same state left behind
