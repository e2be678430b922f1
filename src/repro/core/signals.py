"""The unified user-signal model at the heart of USaaS (§5).

The paper's framework consumes two families of user feedback:

* **implicit** signals — in-session user actions captured privately by an
  application (mute, camera-off, drop-off, session duration), and
* **explicit** signals — feedback users volunteer, either in-app (star
  ratings → MOS) or offline on social media (posts, speed-test shares).

Both are normalised here into :class:`Signal` records carrying a timestamp,
a source network/service, a named metric and a value, so the correlator can
join them without caring where they came from.

:class:`Signal` is the edge type callers build and read.  A
:class:`SignalSeries` stores its signals column by column (see the class
docstring), so filters are boolean masks and aggregates are grouped
``np.bincount`` reductions instead of loops over signal objects.
"""

from __future__ import annotations

import datetime as dt
import enum
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import SchemaError


class SignalKind(enum.Enum):
    """Whether a user produced the signal deliberately."""

    IMPLICIT = "implicit"
    EXPLICIT = "explicit"


def _check_weight(weight: Any) -> None:
    """The one weight rule, shared by every way a signal is built."""
    if weight < 0:
        raise SchemaError(f"weight must be non-negative, got {weight}")
    if not math.isfinite(weight):
        raise SchemaError(f"weight must be finite, got {weight}")


@dataclass(frozen=True)
class Signal:
    """One observation of user feedback.

    Attributes:
        kind: implicit (action) vs explicit (volunteered feedback).
        timestamp: when the signal was produced.
        network: the access network it pertains to (e.g. ``"starlink"``).
        service: the networked service, if any (e.g. ``"teams"``).
        metric: the signal's name (e.g. ``"presence"``, ``"sentiment_pos"``).
        value: numeric value of the signal.
        weight: aggregation weight (e.g. upvotes for a social post);
            finite and non-negative.
        attrs: free-form dimensions (platform, country, ...) used for
            cohorting; values must be strings to stay hashable/groupable.
    """

    kind: SignalKind
    timestamp: dt.datetime
    network: str
    metric: str
    value: float
    service: Optional[str] = None
    weight: float = 1.0
    attrs: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.network:
            raise SchemaError("signal requires a network")
        if not self.metric:
            raise SchemaError("signal requires a metric name")
        _check_weight(self.weight)

    def attr(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    @property
    def date(self) -> dt.date:
        return self.timestamp.date()


def ImplicitSignal(
    timestamp: dt.datetime,
    network: str,
    metric: str,
    value: float,
    service: Optional[str] = None,
    weight: float = 1.0,
    **attrs: str,
) -> Signal:
    """Convenience constructor for implicit (user-action) signals."""
    return Signal(
        kind=SignalKind.IMPLICIT,
        timestamp=timestamp,
        network=network,
        metric=metric,
        value=value,
        service=service,
        weight=weight,
        attrs=tuple(sorted(attrs.items())),
    )


def ExplicitSignal(
    timestamp: dt.datetime,
    network: str,
    metric: str,
    value: float,
    service: Optional[str] = None,
    weight: float = 1.0,
    **attrs: str,
) -> Signal:
    """Convenience constructor for explicit (volunteered) signals."""
    return Signal(
        kind=SignalKind.EXPLICIT,
        timestamp=timestamp,
        network=network,
        metric=metric,
        value=value,
        service=service,
        weight=weight,
        attrs=tuple(sorted(attrs.items())),
    )


# -- grouped reductions -------------------------------------------------------


def _first_appearance_groups(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group codes numbered in order of each key's first appearance.

    Returns ``(codes, first)``: ``codes[i]`` is row i's group and
    ``first[g]`` the row where group g first appears, so groups come out
    in the order a dict filled while scanning the rows would hold them.
    """
    if len(keys) == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank[inverse.ravel()], first[order]


def encode_column(column: Iterable[Any]) -> Tuple[np.ndarray, List[Any]]:
    """Dictionary-encode a column: ``(codes, values)`` with
    ``values[codes[i]] == column[i]`` and values in first-seen order."""
    column = list(column)
    values = list(dict.fromkeys(column))
    index = {v: i for i, v in enumerate(values)}
    codes = np.fromiter(map(index.__getitem__, column), dtype=np.int32,
                        count=len(column))
    return codes, values


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, bit-identical to a Python ``+=`` loop.

    ``np.sum`` adds pairwise, which rounds differently; ``np.bincount``
    accumulates in index order.
    """
    if len(values) == 0:
        return 0.0
    return float(
        np.bincount(np.zeros(len(values), dtype=np.intp), weights=values)[0]
    )


# -- column storage -----------------------------------------------------------

#: Datetime encoding: microseconds from the epoch (wall time when naive,
#: UTC when aware) and proleptic-Gregorian day ordinals.
_EPOCH = dt.datetime(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_MICROSECOND = dt.timedelta(microseconds=1)
_DAY_MICROSECONDS = 86_400_000_000

#: Coded scalar fields of a signal; ``layout`` codes each signal's attr
#: key order (a tuple of attribute slots, see :class:`_Columns`).
_CODED = ("kind", "network", "service", "metric", "layout")

Slot = Tuple[str, int]


def _instant(t: dt.datetime) -> Tuple[int, bool]:
    """(microsecond key, aware) under which Python orders datetimes."""
    offset = t.utcoffset()
    if offset is None:
        return (t - _EPOCH) // _MICROSECOND, False
    return (t.replace(tzinfo=None) - offset - _EPOCH) // _MICROSECOND, True


def _object_array(values: Sequence) -> np.ndarray:
    """A fresh 1-d object array (``np.array`` would nest tuples into
    2-d, and inspects every element, which is ten times slower)."""
    return np.fromiter(values, dtype=object, count=len(values))


def _first_falsy(column: Sequence) -> Optional[int]:
    if all(column):
        return None
    return next(i for i, v in enumerate(column) if not v)


def _first_bad_weight(weights: np.ndarray) -> Optional[int]:
    good = (weights >= 0) & np.isfinite(weights)
    return None if good.all() else int(np.argmin(good))


def _validate_rows(
    bad_network: Optional[int],
    bad_metric: Optional[int],
    bad_weight: Optional[int],
    shown: Any,
) -> None:
    """Raise the error :class:`Signal` would raise for the first bad row.

    Rows are checked network, metric, weight — the order of
    ``Signal.__post_init__`` — and the first failing row wins.
    ``shown(i)`` returns row i's weight as the caller passed it.
    """
    failing = [
        (row, rank) for rank, row in enumerate(
            (bad_network, bad_metric, bad_weight)
        ) if row is not None
    ]
    if not failing:
        return
    row, rank = min(failing)
    if rank == 0:
        raise SchemaError("signal requires a network")
    if rank == 1:
        raise SchemaError("signal requires a metric name")
    _check_weight(shown(row))


class _Vocab:
    """The distinct values of one coded column, indexed by code."""

    __slots__ = ("values", "index")

    def __init__(self, values: List[Any], index: Dict[Any, int]) -> None:
        self.values = values
        self.index = index

    @classmethod
    def encode(cls, column: Iterable[Any]) -> Tuple[np.ndarray, "_Vocab"]:
        """Codes for every entry, numbered by first appearance."""
        codes, values = encode_column(column)
        return codes, cls(values, {v: i for i, v in enumerate(values)})

    @staticmethod
    def merge(vocabs: Sequence["_Vocab"]) -> Tuple["_Vocab", List[Optional[np.ndarray]]]:
        """One vocabulary covering all, plus each input's code remap
        (None where the input's codes carry over unchanged)."""
        base = vocabs[0]
        if all(v is base for v in vocabs):
            return base, [None] * len(vocabs)
        values = list(base.values)
        index = dict(base.index)
        remaps: List[Optional[np.ndarray]] = [None]
        for vocab in vocabs[1:]:
            if vocab is base:
                remaps.append(None)
                continue
            remap = np.empty(len(vocab.values), dtype=np.int32)
            for j, v in enumerate(vocab.values):
                code = index.get(v)
                if code is None:
                    code = index[v] = len(values)
                    values.append(v)
                remap[j] = code
            remaps.append(remap)
        return _Vocab(values, index), remaps


def _remap(codes: np.ndarray, remap: Optional[np.ndarray]) -> np.ndarray:
    if remap is None:
        return codes
    # A trailing -1 keeps "absent" (-1) codes absent.
    return np.append(remap, np.int32(-1))[codes]


class _Raw(NamedTuple):
    """Validated rows not yet encoded into columns (a small append)."""

    n: int
    kind: List[Any]
    timestamps: List[Any]
    network: List[str]
    metric: List[str]
    value: List[float]
    service: List[Optional[str]]
    weight: List[float]
    attrs: List[Tuple[Tuple[str, str], ...]]

    @classmethod
    def of_signals(cls, rows: List[Signal]) -> "_Raw":
        return cls(
            n=len(rows),
            kind=[s.kind for s in rows],
            timestamps=[s.timestamp for s in rows],
            network=[s.network for s in rows],
            metric=[s.metric for s in rows],
            value=[s.value for s in rows],
            service=[s.service for s in rows],
            weight=[s.weight for s in rows],
            attrs=[s.attrs for s in rows],
        )


class _Columns:
    """One immutable run of signals, stored column by column.

    * ``codes[f]`` / ``vocabs[f]`` for f in :data:`_CODED`: int32 codes
      and the distinct values they index;
    * ``slots``: one column per attribute slot ``(key, occurrence)`` —
      codes into that slot's vocabulary, -1 where a signal lacks the
      key.  A signal's ``layout`` is the tuple of its slots in its own
      attr order, so ``attrs`` materialise exactly as they were given;
    * ``ts``: the original datetime objects; ``day``: their date
      ordinals; ``value`` / ``weight``: float64.  Which timestamps are
      timezone-aware is worked out on the first time-window filter.

    Arrays are never written after construction, so filtered and
    concatenated columns can share them.
    """

    __slots__ = ("n", "codes", "vocabs", "slots", "ts", "day", "value",
                 "weight", "_aware")

    def __init__(
        self,
        codes: Dict[str, np.ndarray],
        vocabs: Dict[str, _Vocab],
        slots: Dict[Slot, Tuple[np.ndarray, _Vocab]],
        ts: np.ndarray,
        day: np.ndarray,
        value: np.ndarray,
        weight: np.ndarray,
        aware: Optional[np.ndarray] = None,
    ) -> None:
        self.n = len(ts)
        self.codes = codes
        self.vocabs = vocabs
        self.slots = slots
        self.ts = ts
        self.day = day
        self.value = value
        self.weight = weight
        self._aware = aware
        arrays = [ts, day, value, weight, *codes.values()]
        arrays += [c for c, _ in slots.values()]
        if aware is not None:
            arrays.append(aware)
        for arr in arrays:
            if len(arr) != self.n:
                raise SchemaError(
                    f"signal columns disagree on length: {len(arr)} vs {self.n}"
                )
            arr.flags.writeable = False

    @classmethod
    def empty(cls) -> "_Columns":
        none = np.zeros(0, dtype=np.int32)
        return cls(
            {f: none for f in _CODED}, {f: _Vocab([], {}) for f in _CODED},
            {}, np.empty(0, dtype=object), np.zeros(0, dtype=np.int64),
            np.zeros(0), np.zeros(0),
        )

    @classmethod
    def from_raw(cls, chunks: Sequence[_Raw]) -> "_Columns":
        """Encode buffered rows (all chunks, in order) into columns."""
        def flat(field_: str) -> List[Any]:
            return list(chain.from_iterable(getattr(c, field_) for c in chunks))

        codes: Dict[str, np.ndarray] = {}
        vocabs: Dict[str, _Vocab] = {}
        for f in _CODED[:-1]:
            codes[f], vocabs[f] = _Vocab.encode(flat(f))
        attr_codes, attr_vocab = _Vocab.encode(flat("attrs"))
        codes["layout"], vocabs["layout"], slots = _slot_columns(
            attr_codes, attr_vocab.values
        )
        timestamps = flat("timestamps")
        return cls(
            codes, vocabs, slots,
            ts=_object_array(timestamps),
            day=np.fromiter(
                (t.toordinal() for t in timestamps), dtype=np.int64,
                count=len(timestamps),
            ),
            value=np.array(flat("value"), dtype=np.float64),
            weight=np.array(flat("weight"), dtype=np.float64),
        )

    @staticmethod
    def concat(blocks: Sequence["_Columns"]) -> "_Columns":
        codes: Dict[str, np.ndarray] = {}
        vocabs: Dict[str, _Vocab] = {}
        for f in _CODED:
            vocabs[f], remaps = _Vocab.merge([b.vocabs[f] for b in blocks])
            codes[f] = np.concatenate([
                _remap(b.codes[f], r) for b, r in zip(blocks, remaps)
            ])
        slots: Dict[Slot, Tuple[np.ndarray, _Vocab]] = {}
        for slot in dict.fromkeys(s for b in blocks for s in b.slots):
            having = [b.slots[slot][1] for b in blocks if slot in b.slots]
            vocab, remaps = _Vocab.merge(having)
            parts = []
            it = iter(remaps)
            for b in blocks:
                if slot in b.slots:
                    parts.append(_remap(b.slots[slot][0], next(it)))
                else:
                    parts.append(np.full(b.n, -1, dtype=np.int32))
            slots[slot] = (np.concatenate(parts), vocab)
        aware = None
        if all(b._aware is not None for b in blocks):
            aware = np.concatenate([b._aware for b in blocks])
        return _Columns(
            codes, vocabs, slots,
            ts=np.concatenate([b.ts for b in blocks]),
            day=np.concatenate([b.day for b in blocks]),
            value=np.concatenate([b.value for b in blocks]),
            weight=np.concatenate([b.weight for b in blocks]),
            aware=aware,
        )

    def take(self, rows: np.ndarray, weight: Optional[np.ndarray] = None) -> "_Columns":
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)  # one scan, not one per column
        return _Columns(
            {f: c[rows] for f, c in self.codes.items()},
            self.vocabs,
            {s: (c[rows], v) for s, (c, v) in self.slots.items()},
            ts=self.ts[rows],
            day=self.day[rows],
            value=self.value[rows],
            weight=self.weight[rows] if weight is None else weight,
            aware=None if self._aware is None else self._aware[rows],
        )

    def aware(self) -> np.ndarray:
        """Per-signal "timestamp is timezone-aware", computed once."""
        if self._aware is None:
            aware = np.array(
                [t.tzinfo is not None and t.utcoffset() is not None
                 for t in self.ts.tolist()],
                dtype=bool,
            )
            aware.flags.writeable = False
            self._aware = aware
        return self._aware

    def within(self, rows: np.ndarray, bound: dt.datetime, keep) -> np.ndarray:
        """``keep(timestamp, bound)`` for every signal, as a mask; only
        ``rows`` must be right.

        A signal's date decides unless it lies within a day of the
        bound's (an aware timestamp's UTC date is at most one day from
        its own date), so only those few timestamps are compared.
        """
        key, aware = _instant(bound)
        if (self.aware()[rows] != aware).any():
            raise TypeError(
                "can't compare offset-naive and offset-aware datetimes"
            )
        bound_day = key // _DAY_MICROSECONDS + _EPOCH_ORDINAL
        verdict = keep(self.day, bound_day)
        near = rows[np.abs(self.day[rows] - bound_day) <= 1]
        verdict[near] = keep(
            np.fromiter((_instant(t)[0] for t in self.ts[near]),
                        dtype=np.int64, count=len(near)),
            key,
        )
        return verdict

    def attr_column(self, key: str) -> Tuple[np.ndarray, List[Optional[str]]]:
        """Per-signal codes for attribute ``key`` and the value of each
        code, ``None`` standing for "no such key" (what ``attr`` says)."""
        slot = self.slots.get((key, 0))
        if slot is None:
            return np.zeros(self.n, dtype=np.int32), [None]
        codes, vocab = slot
        missing = codes < 0
        if missing.any():
            codes = np.where(missing, len(vocab.values), codes).astype(np.int32)
        return codes, vocab.values + [None]

    def decoded(self, f: str) -> List[Any]:
        values = self.vocabs[f].values
        return [values[c] for c in self.codes[f].tolist()]

    def attr_tuples(self) -> List[Tuple[Tuple[str, str], ...]]:
        layouts = self.vocabs["layout"].values
        slot_rows = {
            s: (c.tolist(), v.values) for s, (c, v) in self.slots.items()
        }
        out = []
        for i, lc in enumerate(self.codes["layout"].tolist()):
            out.append(tuple(
                (s[0], slot_rows[s][1][slot_rows[s][0][i]])
                for s in layouts[lc]
            ))
        return out

    def signals(self) -> Iterator[Signal]:
        new = object.__new__
        for kind, ts, net, met, value, svc, weight, attrs in zip(
            self.decoded("kind"), self.ts.tolist(), self.decoded("network"),
            self.decoded("metric"), self.value.tolist(),
            self.decoded("service"), self.weight.tolist(),
            self.attr_tuples(),
        ):
            s = new(Signal)
            s.__dict__.update(
                kind=kind, timestamp=ts, network=net, metric=met,
                value=value, service=svc, weight=weight, attrs=attrs,
            )
            yield s


def _slot_columns(
    attr_codes: np.ndarray, attr_tuples: Sequence[Tuple[Tuple[str, str], ...]]
) -> Tuple[np.ndarray, _Vocab, Dict[Slot, Tuple[np.ndarray, _Vocab]]]:
    """Split coded attr tuples into a layout column and per-slot columns.

    The work is per distinct tuple; rows only pay one take per slot.
    """
    n_tuples = len(attr_tuples)
    layouts: List[Tuple[Slot, ...]] = []
    per_slot: Dict[Slot, List[Any]] = {}
    for j, attrs in enumerate(attr_tuples):
        seen: Dict[str, int] = {}
        layout = []
        for k, v in attrs:
            occurrence = seen.get(k, 0)
            seen[k] = occurrence + 1
            slot = (k, occurrence)
            layout.append(slot)
            column = per_slot.setdefault(slot, [_ABSENT] * n_tuples)
            column[j] = v
        layouts.append(tuple(layout))
    layout_of_tuple, layout_vocab = _Vocab.encode(layouts)
    slots: Dict[Slot, Tuple[np.ndarray, _Vocab]] = {}
    for slot, column in per_slot.items():
        index: Dict[Any, int] = {}
        codes = np.array(
            [-1 if v is _ABSENT else index.setdefault(v, len(index))
             for v in column],
            dtype=np.int32,
        )
        slots[slot] = (codes[attr_codes], _Vocab(list(index), index))
    return layout_of_tuple[attr_codes], layout_vocab, slots


#: Marks "this tuple lacks the slot" while splitting attr tuples.
_ABSENT = object()


Coded = Tuple[np.ndarray, Sequence[Any]]


class SignalSeries:
    """An append-only collection of signals with filtering and grouped
    aggregates.

    This is the in-memory exchange format between signal *sources*
    (telemetry adapters, social adapters) and the USaaS correlator.

    Internally the series is struct-of-arrays (:class:`_Columns`):
    coded kind / network / service / metric columns, one coded column
    per attribute key (``user``, ``platform``, ``country``, ``topic``
    ...), the original timestamps with their day ordinals, and float64
    value and weight arrays.  :class:`Signal` stays the edge type:
    construction, :meth:`append`, :meth:`extend` and :meth:`extend_columns`
    accept signals or plain columns, and iteration yields signals equal
    to the ones put in.

    Appends are buffered: each call stores its validated rows as one
    pending chunk, and the first read encodes and concatenates every
    pending chunk once.  An append therefore never copies earlier rows.
    """

    def __init__(self, signals: Iterable[Signal] = ()) -> None:
        #: Pending parts in order: encoded columns, raw column chunks
        #: or lists of appended signals.
        self._parts: List[Union[_Columns, _Raw, List[Signal]]] = []
        self._n = 0
        #: How many times pending parts were merged into one block.
        self._consolidations = 0
        self.extend(signals)

    @classmethod
    def _wrap(cls, columns: _Columns) -> "SignalSeries":
        series = cls()
        if columns.n:
            series._parts.append(columns)
            series._n = columns.n
        return series

    @classmethod
    def from_codes(
        cls,
        kind: Coded,
        timestamps: np.ndarray,
        day: np.ndarray,
        network: Coded,
        metric: Coded,
        values: np.ndarray,
        service: Coded,
        weight: np.ndarray,
        attrs: Mapping[str, Coded],
    ) -> "SignalSeries":
        """Build a series straight from coded columns (bulk export).

        Each categorical argument is a ``(codes, vocabulary)`` pair: one
        integer code per signal and the distinct values the codes index.
        ``timestamps`` is an object array of datetimes and ``day`` their
        ``toordinal()`` values.  ``attrs`` maps every attribute key that
        *all* signals carry to its ``(codes, values)`` pair; signals get
        their attrs in sorted key order, as ``ImplicitSignal`` /
        ``ExplicitSignal`` produce them.  Rows are validated like
        :class:`Signal` (the first bad row raises).
        """
        # Columns are frozen once stored, so take copies of the inputs.
        n = len(timestamps)
        weight = np.array(weight, dtype=np.float64)

        def coded(pair: Coded) -> Tuple[np.ndarray, _Vocab]:
            # Re-encoding the vocabulary merges repeated values.
            codes, values = pair
            distinct, vocab = _Vocab.encode(values)
            return distinct[np.asarray(codes)], vocab

        def first_bad(pair: Tuple[np.ndarray, _Vocab]) -> Optional[int]:
            codes, vocab = pair
            falsy = np.array([not v for v in vocab.values], dtype=bool)
            if not falsy.any():
                return None
            rows = np.flatnonzero(falsy[codes])
            return int(rows[0]) if len(rows) else None

        fields = {
            "kind": coded(kind), "network": coded(network),
            "service": coded(service), "metric": coded(metric),
        }
        _validate_rows(first_bad(fields["network"]),
                       first_bad(fields["metric"]),
                       _first_bad_weight(weight), lambda i: weight[i])
        keys = sorted(attrs)
        layout = tuple((k, 0) for k in keys)
        fields["layout"] = coded((np.zeros(n, dtype=np.int32), [layout]))
        columns = _Columns(
            {f: c for f, (c, _) in fields.items()},
            {f: v for f, (_, v) in fields.items()},
            {(k, 0): coded(attrs[k]) for k in keys},
            ts=_object_array(timestamps),
            day=np.array(day, dtype=np.int64),
            value=np.array(values, dtype=np.float64),
            weight=weight,
        )
        return cls._wrap(columns)

    # -- appends -----------------------------------------------------------

    def _push(self, part: Union[_Columns, _Raw]) -> None:
        if part.n:
            self._parts.append(part)
            self._n += part.n

    def append(self, signal: Signal) -> None:
        self.extend((signal,))

    def extend(self, signals: Iterable[Signal]) -> None:
        """Append signals; another series is appended column-wise.

        Consecutive signal appends share one pending list, so a loop of
        :meth:`append` calls costs a list append each.
        """
        if isinstance(signals, SignalSeries):
            self._push(signals._columns())
            return
        rows = list(signals)
        for signal in rows:
            if not isinstance(signal, Signal):
                raise SchemaError(
                    f"expected Signal, got {type(signal).__name__}"
                )
        if not rows:
            return
        if self._parts and isinstance(self._parts[-1], list):
            self._parts[-1].extend(rows)
        else:
            self._parts.append(rows)
        self._n += len(rows)

    def extend_columns(
        self,
        kind: Union[SignalKind, Sequence[SignalKind]],
        timestamps: Sequence[dt.datetime],
        network: Union[str, Sequence[str]],
        metric: Union[str, Sequence[str]],
        values: Sequence[float],
        service: Union[None, str, Sequence[Optional[str]]] = None,
        weight: Union[float, Sequence[float]] = 1.0,
        attrs: Sequence[Tuple[Tuple[str, str], ...]] = (),
    ) -> int:
        """Bulk-append one signal per row of the given columns.

        The columnar analogue of N :meth:`append` calls: every argument
        is either a scalar (broadcast to all rows) or a length-n column.
        ``attrs`` rows must already be sorted key tuples (what the
        ``ImplicitSignal``/``ExplicitSignal`` constructors produce);
        ``attrs=()`` broadcasts the empty tuple.  Values are validated
        with the same checks — and the same error messages — as
        :meth:`Signal.__post_init__`, and nothing is appended when a row
        fails.  The rows are buffered as one chunk, encoded on the next
        read.  Returns the number of signals appended.
        """
        n = len(timestamps)

        def column(name: str, col, scalar: bool) -> list:
            if scalar:
                return [col] * n
            col = col.tolist() if isinstance(col, np.ndarray) else list(col)
            if len(col) != n:
                raise SchemaError(
                    f"extend_columns: {name} has length {len(col)}, "
                    f"expected {n}"
                )
            return col

        kinds = column("kind", kind, isinstance(kind, SignalKind))
        networks = column("network", network, isinstance(network, str))
        metrics = column("metric", metric, isinstance(metric, str))
        value_col = column("values", values, False)
        services = column(
            "service", service, service is None or isinstance(service, str)
        )
        scalar_weight = isinstance(weight, (int, float))
        weights = column("weight", weight, scalar_weight)
        attrs_col = column("attrs", attrs, attrs == ())

        bad_weight = next(
            (i for i, w in enumerate(weights)
             if not (w >= 0 and math.isfinite(w))),
            None,
        )
        _validate_rows(_first_falsy(networks), _first_falsy(metrics),
                       bad_weight, lambda i: weights[i])
        self._push(_Raw(
            n=n, kind=kinds, timestamps=list(timestamps), network=networks,
            metric=metrics, value=value_col, service=services,
            weight=weights, attrs=attrs_col,
        ))
        return n

    def _columns(self) -> _Columns:
        """All rows as one block, encoding pending chunks on first read."""
        parts = self._parts
        if len(parts) == 1 and isinstance(parts[0], _Columns):
            return parts[0]
        if not parts:
            return _EMPTY
        blocks: List[_Columns] = []
        raw: List[_Raw] = []
        for part in parts:
            if isinstance(part, list):
                raw.append(_Raw.of_signals(part))
                continue
            if isinstance(part, _Raw):
                raw.append(part)
                continue
            if raw:
                blocks.append(_Columns.from_raw(raw))
                raw = []
            blocks.append(part)
        if raw:
            blocks.append(_Columns.from_raw(raw))
        columns = blocks[0] if len(blocks) == 1 else _Columns.concat(blocks)
        self._parts = [columns]
        self._consolidations += 1
        return columns

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Signal]:
        return self._columns().signals()

    def __getitem__(self, i: int) -> Signal:
        if not -self._n <= i < self._n:
            raise IndexError("signal index out of range")
        return next(self._columns().take(np.array([i % self._n])).signals())

    def matches(
        self,
        kind: Optional[SignalKind] = None,
        network: Optional[str] = None,
        service: Optional[str] = None,
        metric: Optional[str] = None,
        start: Optional[dt.datetime] = None,
        end: Optional[dt.datetime] = None,
        **attrs: str,
    ) -> np.ndarray:
        """Boolean mask of the signals :meth:`filter` keeps."""
        cols = self._columns()
        mask = np.ones(cols.n, dtype=bool)
        for f, wanted in (("kind", kind), ("network", network),
                          ("service", service), ("metric", metric)):
            if wanted is None:
                continue
            if f == "kind":  # kinds match by identity, like ``is``
                codes = [c for c, k in enumerate(cols.vocabs[f].values)
                         if k is wanted]
                code = codes[0] if codes else None
            else:
                code = cols.vocabs[f].index.get(wanted)
            if code is None:
                mask[:] = False
            else:
                mask &= cols.codes[f] == code
        for bound, keep in ((start, np.greater_equal), (end, np.less_equal)):
            if bound is not None and mask.any():
                mask &= cols.within(np.flatnonzero(mask), bound, keep)
        for k, v in attrs.items():
            codes, names = cols.attr_column(k)
            hits = np.array([name == v for name in names], dtype=bool)
            mask &= hits[codes]
        return mask

    def filter(
        self,
        kind: Optional[SignalKind] = None,
        network: Optional[str] = None,
        service: Optional[str] = None,
        metric: Optional[str] = None,
        start: Optional[dt.datetime] = None,
        end: Optional[dt.datetime] = None,
        **attrs: str,
    ) -> "SignalSeries":
        """Return the subset matching every provided criterion."""
        mask = self.matches(kind, network, service, metric, start, end,
                            **attrs)
        return self.take(mask)

    def take(
        self, rows: Optional[np.ndarray] = None,
        weight: Optional[np.ndarray] = None,
    ) -> "SignalSeries":
        """The signals at ``rows`` (a mask or indices; None = all), in
        series order, with ``weight`` replacing their weights if given."""
        cols = self._columns()
        if rows is None:
            rows = np.arange(cols.n)
        if weight is not None:
            weight = np.array(weight, dtype=np.float64)
        return SignalSeries._wrap(cols.take(rows, weight))

    def attr_codes(self, key: str) -> Tuple[np.ndarray, List[Optional[str]]]:
        """``(codes, values)``: ``values[codes[i]]`` is ``attr(key)`` of
        signal i, ``None`` where it has no such attribute."""
        return self._columns().attr_column(key)

    def value_array(self) -> np.ndarray:
        """Signal values as a read-only float64 array, in series order."""
        return self._columns().value

    def weight_array(self) -> np.ndarray:
        """Signal weights as a read-only float64 array, in series order."""
        return self._columns().weight

    def day_ordinals(self) -> np.ndarray:
        """Each signal's ``date.toordinal()``, read-only int64."""
        return self._columns().day

    def metrics(self) -> List[str]:
        """Distinct metric names, sorted."""
        cols = self._columns()
        names = cols.vocabs["metric"].values
        return sorted({names[c] for c in np.unique(cols.codes["metric"])})

    def values(self) -> List[float]:
        return self._columns().value.tolist()

    def weighted_mean(self) -> float:
        """Weight-aware mean of signal values."""
        if not self._n:
            raise SchemaError("cannot average an empty signal series")
        cols = self._columns()
        total_weight = _sequential_sum(cols.weight)
        if total_weight == 0:
            raise SchemaError("all signals have zero weight")
        return _sequential_sum(cols.value * cols.weight) / total_weight

    def daily_mean(self) -> Dict[dt.date, float]:
        """Per-day weighted mean — the join key for cross-signal queries.

        Days appear in order of their first signal; each day's sums run
        in series order, so the means equal a per-signal ``+=`` loop bit
        for bit.
        """
        cols = self._columns()
        groups, first = _first_appearance_groups(cols.day)
        sums = np.bincount(groups, weights=cols.value * cols.weight,
                           minlength=len(first))
        weights = np.bincount(groups, weights=cols.weight,
                              minlength=len(first))
        return {
            dt.date.fromordinal(day): s / w
            for day, s, w in zip(
                cols.day[first].tolist(), sums.tolist(), weights.tolist()
            )
            if w > 0
        }


_EMPTY = _Columns.empty()
