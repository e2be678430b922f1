"""Column storage of SignalSeries: buffered appends and weight rules."""

import datetime as dt
import math

import numpy as np
import pytest

from repro.core.signals import (
    ExplicitSignal,
    ImplicitSignal,
    Signal,
    SignalKind,
    SignalSeries,
)
from repro.errors import SchemaError

TS = dt.datetime(2022, 3, 1, 10, 0)


def _rows(n):
    ts = [TS + dt.timedelta(seconds=37 * i) for i in range(n)]
    kinds = [SignalKind.EXPLICIT if i % 3 else SignalKind.IMPLICIT
             for i in range(n)]
    metrics = [f"m{i % 4}:win" for i in range(n)]
    values = [0.5 * i - 3.0 for i in range(n)]
    weights = [float(i % 5) for i in range(n)]
    return kinds, ts, metrics, values, weights


class TestAmortisedAppend:
    def test_one_row_appends_equal_one_bulk_call(self):
        n = 20_000
        kinds, ts, metrics, values, weights = _rows(n)
        bulk = SignalSeries()
        bulk.extend_columns(kinds, ts, "starlink", metrics, values,
                            weight=weights)
        drip = SignalSeries()
        for i in range(n):
            drip.extend_columns([kinds[i]], [ts[i]], "starlink",
                                [metrics[i]], [values[i]],
                                weight=[weights[i]])
        # Every append stored its own chunk; none merged earlier rows.
        assert len(drip._parts) == n
        assert drip._consolidations == 0
        assert len(drip) == n
        assert drip._consolidations == 0  # len() is not a read of rows
        assert list(drip) == list(bulk)
        assert drip._consolidations == 1
        assert len(drip._parts) == 1
        # Further reads reuse the merged block.
        drip.daily_mean()
        drip.filter(metric="m1:win")
        assert drip._consolidations == 1

    def test_appends_after_a_read_keep_earlier_block(self):
        series = SignalSeries([ImplicitSignal(TS, "n", "m", 1.0)])
        assert len(series.filter(metric="m")) == 1
        block = series._parts[0]
        series.append(ImplicitSignal(TS, "n", "m", 2.0))
        assert series._parts[0] is block  # not copied by the append
        assert series.values() == [1.0, 2.0]

    def test_filtered_series_is_unaffected_by_later_appends(self):
        series = SignalSeries([ImplicitSignal(TS, "n", "m", 1.0)])
        subset = series.filter(network="n")
        series.append(ImplicitSignal(TS, "n", "m", 2.0))
        assert subset.values() == [1.0]

    def test_columns_are_read_only(self):
        series = SignalSeries([ImplicitSignal(TS, "n", "m", 1.0)])
        with pytest.raises(ValueError):
            series.value_array()[0] = 5.0

    def test_caller_arrays_are_copied(self):
        values = np.array([1.0, 2.0])
        series = SignalSeries()
        series.extend_columns(SignalKind.IMPLICIT, [TS, TS], "n", "m", values)
        values[0] = 99.0
        assert series.values() == [1.0, 2.0]
        assert values.flags.writeable


class TestNonFiniteWeights:
    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_signal_rejects(self, weight):
        with pytest.raises(SchemaError, match=r"weight must be finite, got"):
            Signal(SignalKind.IMPLICIT, TS, "net", "m", 1.0, weight=weight)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_extend_columns_rejects_with_the_same_message(self, weight):
        with pytest.raises(SchemaError) as from_signal:
            ExplicitSignal(TS, "net", "m", 1.0, weight=weight)
        series = SignalSeries()
        with pytest.raises(SchemaError) as from_columns:
            series.extend_columns(
                SignalKind.EXPLICIT, [TS, TS], "net", "m", [1.0, 2.0],
                weight=[1.0, weight],
            )
        assert str(from_columns.value) == str(from_signal.value)
        with pytest.raises(SchemaError, match="finite"):
            series.extend_columns(
                SignalKind.EXPLICIT, [TS], "net", "m", [1.0], weight=weight
            )
        assert len(series) == 0  # nothing half-appended

    def test_first_bad_row_wins(self):
        # Row 0 has a bad weight, row 1 an empty network: the per-row
        # order of Signal.__post_init__ reports row 0's weight.
        with pytest.raises(SchemaError, match="finite"):
            SignalSeries().extend_columns(
                SignalKind.IMPLICIT, [TS, TS], ["n", ""], "m", [1.0, 2.0],
                weight=[math.nan, 1.0],
            )
        with pytest.raises(SchemaError, match="requires a network"):
            SignalSeries().extend_columns(
                SignalKind.IMPLICIT, [TS, TS], ["", "n"], "m", [1.0, 2.0],
                weight=[1.0, math.nan],
            )


class TestEdgeTypes:
    def test_getitem_materialises_one_signal(self):
        rows = [ImplicitSignal(TS, "n", "m", float(i), user=f"u{i}")
                for i in range(3)]
        series = SignalSeries(rows)
        assert series[1] == rows[1]
        assert series[-1] == rows[-1]
        with pytest.raises(IndexError):
            series[3]

    def test_unsorted_and_repeated_attr_keys_round_trip(self):
        odd = Signal(SignalKind.IMPLICIT, TS, "n", "m", 1.0,
                     attrs=(("user", "b"), ("platform", "x"), ("user", "c")))
        series = SignalSeries([odd, ImplicitSignal(TS, "n", "m", 2.0)])
        assert list(series) == [odd, ImplicitSignal(TS, "n", "m", 2.0)]
        assert len(series.filter(user="b")) == 1  # first match, like attr()
        assert len(series.filter(user="c")) == 0

    def test_aware_timestamps_filter_like_datetime_comparison(self):
        east = dt.timezone(dt.timedelta(hours=5))
        early = ImplicitSignal(dt.datetime(2022, 3, 1, 4, tzinfo=east),
                               "n", "m", 1.0)
        late = ImplicitSignal(dt.datetime(2022, 3, 1, 6, tzinfo=east),
                              "n", "m", 2.0)
        series = SignalSeries([early, late])
        start = dt.datetime(2022, 3, 1, 0, 30, tzinfo=dt.timezone.utc)
        assert series.filter(start=start).values() == [2.0]
        assert list(series.daily_mean()) == [dt.date(2022, 3, 1)]
        with pytest.raises(TypeError):
            series.filter(start=dt.datetime(2022, 3, 1))
