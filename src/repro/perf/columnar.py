"""Columnar (struct-of-arrays) query layer over the record datasets.

The §3/§4 analyses consume frozen dataclasses record by record; at the
ROADMAP's target scale the *read* path, not the generator, becomes the
bottleneck.  This module converts a :class:`~repro.telemetry.store.CallDataset`
and a Reddit corpus into numpy column blocks **once** — lazily, memoized
on the dataset object, and optionally persisted through the
content-addressed :class:`~repro.perf.cache.ArtifactCache` — so every
engagement curve, signal export and timeline reads contiguous arrays
with zero per-record ``getattr`` loops.

Blocks persist as binary column files: one uncompressed ``.npz``
archive per block, read with ``allow_pickle=False``.  Strings are a
UTF-8 blob plus offsets (or codes plus the distinct values), timestamps
int64 microseconds.  :func:`load_with_columns` serves a cached dataset
from its column block and decodes the records only when something asks
for them.

The contract (property-tested in ``tests/perf/test_columnar.py``): the
columns are the *same* float64 values the records carry, so any analysis
rewired on top of them is float-for-float identical to the record path.
See ``docs/performance.md`` §6 for the file layout and the cache-key
contract.
"""

from __future__ import annotations

import datetime as dt
import json
import zipfile
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.signals import encode_column
from repro.core.timeline import month_of
from repro.errors import SchemaError
from repro.nlp.sentiment import STRONG_THRESHOLD, SentimentAnalyzer, SentimentScores
from repro.telemetry.schema import (
    AGGREGATES,
    ENGAGEMENT_METRICS,
    NETWORK_METRICS,
    ParticipantRecord,
)
from repro.telemetry.store import CallDataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.cache import ArtifactCache

#: Bump when the binary column layout changes; blocks written by another
#: version fail to load and are rebuilt by the cache.
COLUMNS_SCHEMA = 2

#: Attribute used to memoize built columns on the source dataset object.
_MEMO_ATTR = "_columnar_cache"

_US_PER_DAY = 86_400_000_000
_EPOCH = dt.datetime(1970, 1, 1)
_ONE_US = dt.timedelta(microseconds=1)
#: int64 "not a time" (numpy's NaT): a missing timestamp.
_NAT = np.iinfo(np.int64).min


# -- binary column files ---------------------------------------------------


def _write_block(path, kind: str, meta: Dict[str, Any],
                 arrays: Dict[str, np.ndarray]) -> None:
    """Write one block atomically: ``meta`` as a JSON member, then the
    arrays (none of them object arrays)."""
    from repro.io.jsonl import atomic_writer

    header = dict(meta, columnar=kind, schema=COLUMNS_SCHEMA)
    members = {"meta": np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )}
    for name, arr in arrays.items():
        if arr.dtype.hasobject:
            raise SchemaError(f"column {name!r} is an object array")
        members[name] = arr
    # A file handle, not a name: np.savez would append ".npz" to a name.
    with atomic_writer(path, encoding=None) as f:
        np.savez(f, **members)


class _Block:
    """A loaded column file: its header and shape-checked arrays."""

    def __init__(self, path, kind: str) -> None:
        self.path = path
        try:
            loaded = np.load(path, allow_pickle=False)
            if not isinstance(loaded, np.lib.npyio.NpzFile):
                raise ValueError("a single array, not a column archive")
            with loaded as npz:
                self._arrays = {name: npz[name] for name in npz.files}
            meta = json.loads(self._arrays.pop("meta").tobytes())
        except (ValueError, KeyError, OSError, EOFError,
                zipfile.BadZipFile) as exc:
            raise SchemaError(f"{path}: not a column file: {exc}") from exc
        if not isinstance(meta, dict) or meta.get("columnar") != kind:
            raise SchemaError(f"{path}: not a {kind!r} column file")
        if meta.get("schema") != COLUMNS_SCHEMA:
            raise SchemaError(
                f"{path}: column schema {meta.get('schema')!r}, "
                f"expected {COLUMNS_SCHEMA}"
            )
        if not isinstance(meta.get("n"), int) or meta["n"] < 0:
            raise SchemaError(f"{path}: bad row count {meta.get('n')!r}")
        self.meta = meta
        self.n = meta["n"]

    def has(self, name: str) -> bool:
        return name in self._arrays

    def array(self, name: str, dtype, n: Optional[int] = None) -> np.ndarray:
        """Column ``name``; it must be 1-D ``dtype`` with ``n`` rows
        (default: the block's row count)."""
        try:
            arr = self._arrays[name]
        except KeyError:
            raise SchemaError(
                f"{self.path}: missing column {name!r}"
            ) from None
        want = self.n if n is None else n
        if arr.dtype != np.dtype(dtype) or arr.shape != (want,):
            raise SchemaError(
                f"{self.path}: column {name!r} is {arr.dtype}{arr.shape}, "
                f"expected {np.dtype(dtype)}({want},)"
            )
        return arr

    def text(self, name: str, count: Optional[int] = None) -> List[str]:
        """A blob + offsets string column of ``count`` strings (default:
        the block's row count)."""
        offsets = self.array(f"{name}.offsets", np.int64,
                             (self.n if count is None else count) + 1)
        blob = self._arrays.get(f"{name}.blob")
        if blob is None or blob.dtype != np.uint8 or blob.ndim != 1:
            raise SchemaError(f"{self.path}: column {name!r} has no blob")
        if (offsets[0] != 0 or offsets[-1] != len(blob)
                or (np.diff(offsets) < 0).any()):
            raise SchemaError(f"{self.path}: column {name!r} bad offsets")
        return _unpack_strings(blob, offsets)

    def coded(self, name: str) -> List[str]:
        """A codes + distinct-values string column."""
        codes = self.array(f"{name}.codes", np.int32)
        n_values = len(self._arrays.get(f"{name}.values.offsets", [0])) - 1
        values = self.text(f"{name}.values", n_values)
        if len(codes) and (codes.min() < 0 or codes.max() >= len(values)):
            raise SchemaError(
                f"{self.path}: column {name!r} code out of range"
            )
        return np.array(values, dtype=object)[codes].tolist()

    def datetimes(self, name: str) -> List[Optional[dt.datetime]]:
        """An int64-microsecond column as naive datetimes (NaT = None)."""
        return self.array(name, np.int64).view("datetime64[us]").tolist()


def _pack_strings(out: Dict[str, np.ndarray], name: str,
                  values: Sequence[str]) -> None:
    """Store ``values`` as one UTF-8 blob plus ``len + 1`` byte offsets."""
    data = "".join(values).encode("utf-8")
    # ASCII (the common case): character lengths are byte lengths, so
    # no per-string bytes objects are made.
    sized = values if len(data) == sum(map(len, values)) else [
        v.encode("utf-8") for v in values
    ]
    offsets = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, sized), dtype=np.int64,
                          count=len(values)), out=offsets[1:])
    out[f"{name}.blob"] = np.frombuffer(data, dtype=np.uint8)
    out[f"{name}.offsets"] = offsets


def _unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> List[str]:
    data = blob.tobytes()
    bounds = offsets.tolist()
    try:
        text = data.decode("utf-8")
        if len(text) == len(data):  # ASCII: byte offsets are char offsets
            return [text[a:b] for a, b in zip(bounds, bounds[1:])]
        return [data[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        raise SchemaError(f"string column is not UTF-8: {exc}") from exc


def _pack_coded(out: Dict[str, np.ndarray], name: str,
                values: Sequence[str]) -> None:
    """Store a repetitive string column as int32 codes + distinct values."""
    codes, distinct = encode_column(values)
    out[f"{name}.codes"] = codes
    _pack_strings(out, f"{name}.values", distinct)


def _pack_datetimes(name: str,
                    values: Sequence[Optional[dt.datetime]]) -> np.ndarray:
    """Naive datetimes (None allowed) as int64 microseconds since 1970."""
    try:
        return np.fromiter(
            (_NAT if t is None else (t - _EPOCH) // _ONE_US for t in values),
            dtype=np.int64, count=len(values),
        )
    except TypeError as exc:  # aware: no difference with a naive epoch
        raise SchemaError(
            f"column {name!r}: only naive datetimes persist"
        ) from exc


# -- participant columns ---------------------------------------------------


@dataclass
class ParticipantColumns:
    """Struct-of-arrays view of participant sessions (plus call start).

    One row per participant session, in dataset order (calls in order,
    participants within each call in order) — the exact order
    :meth:`CallDataset.participants` yields.  Float columns hold the
    identical float64 values the records carry; ``rating`` uses NaN for
    the unrated majority.
    """

    call_id: List[str]
    user_id: List[str]
    platform: List[str]
    country: List[str]
    call_start: List[Optional[dt.datetime]]
    session_duration_s: np.ndarray
    presence_pct: np.ndarray
    cam_on_pct: np.ndarray
    mic_on_pct: np.ndarray
    conditioning: np.ndarray
    dropped_early: np.ndarray
    rating: np.ndarray
    network: Dict[str, Dict[str, np.ndarray]]

    def __len__(self) -> int:
        return len(self.call_id)

    def metric(self, name: str, stat: str = "mean") -> np.ndarray:
        """Column analogue of :meth:`ParticipantRecord.metric`."""
        try:
            return self.network[name][stat]
        except KeyError:
            raise SchemaError(f"no aggregate {name!r}/{stat!r}") from None

    def engagement_values(self, name: str) -> np.ndarray:
        """Engagement column; ``dropped_early`` maps to 0/100 like the
        record path's ``100.0 * float(p.dropped_early)``."""
        if name == "dropped_early":
            return self.dropped_early * 100.0
        if name not in ENGAGEMENT_METRICS:
            raise SchemaError(f"unknown engagement metric {name!r}")
        return getattr(self, name)

    def window_mask(self, windows: Iterable) -> np.ndarray:
        """Row mask for sessions inside every condition window.

        Windows are duck-typed (``.metric`` / ``.stat`` / ``.low`` /
        ``.high``) so this layer stays independent of
        :mod:`repro.engagement.cohort`; the comparisons are the exact
        ones :meth:`ConditionWindow.contains` performs.
        """
        mask = np.ones(len(self), dtype=bool)
        for w in windows:
            arr = self.metric(w.metric, w.stat)
            mask &= (arr >= w.low) & (arr <= w.high)
        return mask

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dataset(cls, dataset: CallDataset) -> "ParticipantColumns":
        records: List[ParticipantRecord] = []
        starts: List[Optional[dt.datetime]] = []
        for call in dataset:
            for p in call.participants:
                records.append(p)
                starts.append(call.start)
        return cls.from_records(records, call_starts=starts)

    @classmethod
    def from_records(
        cls,
        records: Sequence[ParticipantRecord],
        call_starts: Optional[Sequence[Optional[dt.datetime]]] = None,
    ) -> "ParticipantColumns":
        n = len(records)
        if call_starts is None:
            call_starts = [None] * n
        elif len(call_starts) != n:
            raise SchemaError(
                f"call_starts has length {len(call_starts)}, expected {n}"
            )
        network: Dict[str, Dict[str, np.ndarray]] = {}
        for m in NETWORK_METRICS:
            network[m] = {
                s: np.fromiter(
                    (p.network[m][s] for p in records), dtype=float, count=n
                )
                for s in AGGREGATES
            }
        return cls(
            call_id=[p.call_id for p in records],
            user_id=[p.user_id for p in records],
            platform=[p.platform for p in records],
            country=[p.country for p in records],
            call_start=list(call_starts),
            session_duration_s=np.fromiter(
                (p.session_duration_s for p in records), dtype=float, count=n
            ),
            presence_pct=np.fromiter(
                (p.presence_pct for p in records), dtype=float, count=n
            ),
            cam_on_pct=np.fromiter(
                (p.cam_on_pct for p in records), dtype=float, count=n
            ),
            mic_on_pct=np.fromiter(
                (p.mic_on_pct for p in records), dtype=float, count=n
            ),
            conditioning=np.fromiter(
                (p.conditioning for p in records), dtype=float, count=n
            ),
            dropped_early=np.fromiter(
                (p.dropped_early for p in records), dtype=bool, count=n
            ),
            rating=np.fromiter(
                (
                    np.nan if p.rating is None else float(p.rating)
                    for p in records
                ),
                dtype=float,
                count=n,
            ),
            network=network,
        )

    @classmethod
    def concat(cls, chunks: Sequence["ParticipantColumns"]) -> "ParticipantColumns":
        """Stitch shard-built chunks back into one block, in chunk order.

        The vectorized generator builds one chunk per ParallelMap shard;
        concatenating in submission order reproduces dataset row order.
        """
        if not chunks:
            return cls.from_records([])
        if len(chunks) == 1:
            return chunks[0]
        network: Dict[str, Dict[str, np.ndarray]] = {
            m: {
                s: np.concatenate([c.network[m][s] for c in chunks])
                for s in AGGREGATES
            }
            for m in NETWORK_METRICS
        }
        return cls(
            call_id=[x for c in chunks for x in c.call_id],
            user_id=[x for c in chunks for x in c.user_id],
            platform=[x for c in chunks for x in c.platform],
            country=[x for c in chunks for x in c.country],
            call_start=[x for c in chunks for x in c.call_start],
            session_duration_s=np.concatenate(
                [c.session_duration_s for c in chunks]
            ),
            presence_pct=np.concatenate([c.presence_pct for c in chunks]),
            cam_on_pct=np.concatenate([c.cam_on_pct for c in chunks]),
            mic_on_pct=np.concatenate([c.mic_on_pct for c in chunks]),
            conditioning=np.concatenate([c.conditioning for c in chunks]),
            dropped_early=np.concatenate([c.dropped_early for c in chunks]),
            rating=np.concatenate([c.rating for c in chunks]),
            network=network,
        )

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Write the block as a binary column file (atomically)."""
        arrays: Dict[str, np.ndarray] = {}
        for name in ("call_id", "user_id", "platform", "country"):
            _pack_coded(arrays, name, getattr(self, name))
        arrays["call_start"] = _pack_datetimes("call_start", self.call_start)
        for name in _PARTICIPANT_FLOATS:
            arrays[name] = np.asarray(getattr(self, name), dtype=np.float64)
        arrays["dropped_early"] = np.asarray(self.dropped_early, dtype=bool)
        for m in NETWORK_METRICS:
            for s in AGGREGATES:
                arrays[f"network:{m}:{s}"] = np.asarray(
                    self.network[m][s], dtype=np.float64
                )
        _write_block(path, "participants", {"n": len(self)}, arrays)

    @classmethod
    def load(cls, path) -> "ParticipantColumns":
        """Read a block written by :meth:`save`; SchemaError if unusable."""
        block = _Block(path, "participants")
        return cls(
            call_id=block.coded("call_id"),
            user_id=block.coded("user_id"),
            platform=block.coded("platform"),
            country=block.coded("country"),
            call_start=block.datetimes("call_start"),
            dropped_early=block.array("dropped_early", bool),
            network={
                m: {
                    s: block.array(f"network:{m}:{s}", np.float64)
                    for s in AGGREGATES
                }
                for m in NETWORK_METRICS
            },
            **{
                name: block.array(name, np.float64)
                for name in _PARTICIPANT_FLOATS
            },
        )


#: ParticipantColumns' per-session float64 columns (besides ``network``).
_PARTICIPANT_FLOATS = (
    "session_duration_s", "presence_pct", "cam_on_pct", "mic_on_pct",
    "conditioning", "rating",
)


# -- sentiment block -------------------------------------------------------


@dataclass
class SentimentBlock:
    """Per-post sentiment as columns, shared by every §4 analysis.

    The float64 columns hold the exact values the default analyzer's
    :class:`SentimentScores` carry, so masks computed here match
    per-record property checks bit for bit.  ``scores`` (the objects,
    for the per-post dict the timeline exposes) is built from the
    columns on first use: a block loaded from a column file never
    scored anything.
    """

    positive: np.ndarray
    negative: np.ndarray
    neutral: np.ndarray
    strong_positive: np.ndarray = field(init=False)
    strong_negative: np.ndarray = field(init=False)
    negative_dominant: np.ndarray = field(init=False)
    polarity: np.ndarray = field(init=False)
    _scores: Optional[List[SentimentScores]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # Same comparisons as SentimentScores.is_strong_* and the outage
        # monitor's `negative <= max(positive, neutral)` reject filter.
        self.strong_positive = self.positive >= STRONG_THRESHOLD
        self.strong_negative = self.negative >= STRONG_THRESHOLD
        self.negative_dominant = (
            (self.negative > self.positive) & (self.negative > self.neutral)
        )
        self.polarity = self.positive - self.negative

    @classmethod
    def score(
        cls, texts: Sequence[str], analyzer: Optional[SentimentAnalyzer] = None
    ) -> "SentimentBlock":
        """Score ``texts`` once (default analyzer unless given)."""
        scores, positive, negative, neutral = (
            analyzer or SentimentAnalyzer()
        ).score_columns(texts)
        return cls(positive, negative, neutral, _scores=scores)

    @property
    def scores(self) -> List[SentimentScores]:
        if self._scores is None:
            self._scores = [
                SentimentScores(positive=p, negative=n, neutral=u)
                for p, n, u in zip(
                    self.positive.tolist(), self.negative.tolist(),
                    self.neutral.tolist(),
                )
            ]
        return self._scores

    def __len__(self) -> int:
        return len(self.positive)

# -- corpus columns --------------------------------------------------------


@dataclass
class CorpusColumns:
    """Struct-of-arrays view of a social corpus, plus the shared per-day
    index and (lazily) the shared sentiment block.

    One row per post, in corpus order (sorted by ``created``).  The four
    §4 analyses (sentiment timeline, outage monitor, speed tracker,
    fulcrum) all read this one block instead of re-scanning the corpus.
    """

    span_start: dt.date
    span_end: dt.date
    post_id: List[str]
    author: List[str]
    topic: List[str]
    full_text: List[str]
    created: List[dt.datetime]
    day_index: np.ndarray
    month: List[Tuple[int, int]]
    popularity: np.ndarray
    speed_indices: np.ndarray
    #: Download Mbps of each post's speed test; NaN for posts without one.
    speed_download_mbps: np.ndarray
    _sentiment: Optional[SentimentBlock] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.post_id)

    @property
    def n_days(self) -> int:
        return (self.span_end - self.span_start).days + 1

    def sentiment(self, analyzer: Optional[SentimentAnalyzer] = None) -> SentimentBlock:
        """Score every post once and share the block.

        With the default analyzer (``None``) the block is memoized on
        this object, so the timeline, the outage monitor, the fulcrum
        and the USaaS social export all reuse one scoring pass.  An
        explicit analyzer scores fresh (it may be configured differently).
        """
        if analyzer is None:
            if self._sentiment is None:
                self._sentiment = SentimentBlock.score(self.full_text)
            return self._sentiment
        return SentimentBlock.score(self.full_text, analyzer)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_corpus(cls, corpus) -> "CorpusColumns":
        posts = list(corpus)
        start = corpus.config.span_start
        end = corpus.config.span_end
        n = len(posts)
        created = [p.created for p in posts]
        day_index = np.fromiter(
            ((c.date() - start).days for c in created), dtype=np.int64, count=n
        )
        return cls(
            span_start=start,
            span_end=end,
            post_id=[p.post_id for p in posts],
            author=[p.author for p in posts],
            topic=[p.topic for p in posts],
            full_text=[p.full_text for p in posts],
            created=created,
            day_index=day_index,
            month=[month_of(c.date()) for c in created],
            popularity=np.fromiter(
                (p.popularity for p in posts), dtype=float, count=n
            ),
            speed_indices=np.fromiter(
                (i for i, p in enumerate(posts) if p.speed_test is not None),
                dtype=np.int64,
            ),
            speed_download_mbps=np.fromiter(
                (
                    np.nan if p.speed_test is None
                    else p.speed_test.download_mbps
                    for p in posts
                ),
                dtype=float,
                count=n,
            ),
        )

    @classmethod
    def concat(cls, chunks: Sequence["CorpusColumns"]) -> "CorpusColumns":
        """Stitch shard-built chunks into one block, in chunk order.

        All chunks must share the span (they are slices of one corpus
        config); ``speed_indices`` are re-offset into the merged row
        space.  Chunk order is preserved — callers that need corpus order
        (sorted by ``created``) sort afterwards.
        """
        if not chunks:
            raise SchemaError("CorpusColumns.concat needs at least one chunk")
        if len(chunks) == 1:
            return chunks[0]
        spans = {(c.span_start, c.span_end) for c in chunks}
        if len(spans) > 1:
            raise SchemaError(f"chunks span different ranges: {sorted(spans)}")
        offsets = np.cumsum([0] + [len(c) for c in chunks[:-1]])
        return cls(
            span_start=chunks[0].span_start,
            span_end=chunks[0].span_end,
            post_id=[x for c in chunks for x in c.post_id],
            author=[x for c in chunks for x in c.author],
            topic=[x for c in chunks for x in c.topic],
            full_text=[x for c in chunks for x in c.full_text],
            created=[x for c in chunks for x in c.created],
            day_index=np.concatenate([c.day_index for c in chunks]),
            month=[x for c in chunks for x in c.month],
            popularity=np.concatenate([c.popularity for c in chunks]),
            speed_indices=np.concatenate(
                [c.speed_indices + off for c, off in zip(chunks, offsets)]
            ),
            speed_download_mbps=np.concatenate(
                [c.speed_download_mbps for c in chunks]
            ),
        )

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Write the block (and its default-analyzer sentiment, when
        scored) as a binary column file (atomically)."""
        arrays: Dict[str, np.ndarray] = {}
        _pack_strings(arrays, "post_id", self.post_id)
        _pack_coded(arrays, "author", self.author)
        _pack_coded(arrays, "topic", self.topic)
        _pack_strings(arrays, "full_text", self.full_text)
        arrays["created"] = _pack_datetimes("created", self.created)
        arrays["popularity"] = np.asarray(self.popularity, dtype=np.float64)
        arrays["speed_indices"] = np.asarray(
            self.speed_indices, dtype=np.int64
        )
        arrays["speed_download_mbps"] = np.asarray(
            self.speed_download_mbps, dtype=np.float64
        )
        if self._sentiment is not None:
            for name in _SENTIMENT_COLUMNS:
                arrays[name] = getattr(self._sentiment, name)
        _write_block(path, "corpus", {
            "n": len(self),
            "n_speed": len(self.speed_indices),
            "span_start": self.span_start.isoformat(),
            "span_end": self.span_end.isoformat(),
        }, arrays)

    @classmethod
    def load(cls, path) -> "CorpusColumns":
        """Read a block written by :meth:`save`; SchemaError if unusable.

        The sentiment block is restored when the file carries one.
        """
        block = _Block(path, "corpus")
        try:
            start = dt.datetime.fromisoformat(block.meta["span_start"])
            end = dt.datetime.fromisoformat(block.meta["span_end"])
            n_speed = int(block.meta["n_speed"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: bad corpus header: {exc}") from exc
        created_us = block.array("created", np.int64)
        if (created_us == _NAT).any():
            raise SchemaError(f"{path}: column 'created' has missing times")
        speed_indices = block.array("speed_indices", np.int64, n_speed)
        if n_speed and (
            speed_indices[0] < 0 or speed_indices[-1] >= block.n
            or (np.diff(speed_indices) <= 0).any()
        ):
            raise SchemaError(f"{path}: column 'speed_indices' out of order")
        months = created_us.view("datetime64[us]").astype(
            "datetime64[M]"
        ).astype(np.int64)
        cols = cls(
            span_start=start.date(),
            span_end=end.date(),
            post_id=block.text("post_id"),
            author=block.coded("author"),
            topic=block.coded("topic"),
            full_text=block.text("full_text"),
            created=block.datetimes("created"),
            day_index=created_us // _US_PER_DAY - (start - _EPOCH).days,
            month=list(zip((months // 12 + 1970).tolist(),
                           (months % 12 + 1).tolist())),
            popularity=block.array("popularity", np.float64),
            speed_indices=speed_indices,
            speed_download_mbps=block.array("speed_download_mbps", np.float64),
        )
        if block.has("positive"):
            cols._sentiment = SentimentBlock(*(
                block.array(name, np.float64) for name in _SENTIMENT_COLUMNS
            ))
        return cols


_SENTIMENT_COLUMNS = ("positive", "negative", "neutral")


# -- factories (memoized + cacheable) --------------------------------------


ParticipantSource = Union[CallDataset, "ParticipantColumns",
                          Iterable[ParticipantRecord]]


def _remember(source: Any, token: int, cols: Any) -> None:
    source.__dict__[_MEMO_ATTR] = (token, cols)


def _recall(source: Any, token: int) -> Any:
    memo = source.__dict__.get(_MEMO_ATTR)
    if memo is not None and memo[0] == token:
        return memo[1]
    return None


def participant_columns(source: ParticipantSource) -> ParticipantColumns:
    """Columns for a dataset — built once, memoized on the dataset.

    ``source`` may be a :class:`CallDataset` (memoized on the object,
    invalidated by :meth:`CallDataset.append`), already-built
    :class:`ParticipantColumns` (returned as-is), or any iterable of
    participant records (built ad hoc, no memo).  A dataset from
    ``CallDatasetGenerator.generate(cache=)`` arrives with its cached
    block already memoized (:func:`load_with_columns`).
    """
    if isinstance(source, ParticipantColumns):
        return source
    if isinstance(source, CallDataset):
        token = source.n_participants
        cols = _recall(source, token)
        if cols is None:
            cols = ParticipantColumns.from_dataset(source)
            _remember(source, token, cols)
        return cols
    return ParticipantColumns.from_records(list(source))


def corpus_key(config: Any) -> Dict[str, Any]:
    """Cache key of a corpus column block: the corpus config plus the
    default scorer's fingerprint, because the block carries that
    scorer's sentiment.  A lexicon or scorer change therefore misses
    through the content-addressed key, like a config change."""
    return {"corpus": config, "scorer": SentimentAnalyzer().fingerprint()}


def _scored(cols: CorpusColumns) -> CorpusColumns:
    cols.sentiment()
    return cols


def corpus_columns(corpus) -> CorpusColumns:
    """Columns for a corpus — built once, memoized on the corpus object.

    ``corpus`` is duck-typed (iteration in sorted-post order plus a
    ``config`` with the span) so this layer does not import
    :mod:`repro.social`.  A corpus from ``CorpusGenerator.generate(cache=)``
    arrives with its cached block (sentiment included) already memoized
    (:func:`load_with_columns`).
    """
    if isinstance(corpus, CorpusColumns):
        return corpus
    token = len(corpus)
    cols = _recall(corpus, token)
    if cols is None:
        cols = CorpusColumns.from_corpus(corpus)
        _remember(corpus, token, cols)
    return cols


def load_with_columns(
    cache: "ArtifactCache",
    kind: str,
    config: Any,
    build: Callable[[], Any],
    load: Callable[[Any], Any],
    dump: Callable[[Any, Any], Any],
    lazy: Callable[[Any, Callable[[], Any]], Any],
) -> Any:
    """A cached dataset served from its column block, records on demand.

    ``kind`` is ``"calls"`` (a :class:`CallDataset`) or ``"corpus"`` (a
    corpus), with the record entry's ``build``/``load``/``dump``
    adapters.  The column block lives beside it under
    ``participant-columns`` / ``corpus-columns``:

    * hit: the block is loaded and ``lazy(columns, load_records)``
      builds the dataset, whose records come from
      ``load_records()`` — the record entry through
      ``cache.load_or_build``, so a missing or corrupt entry is still
      evicted and rebuilt — on first record access.  Records whose
      ``call_id`` / ``post_id`` sequence differs from the block's raise
      :class:`SchemaError` and evict the block, so the next call
      rebuilds it from the records;
    * miss: the records come from the record entry (or are built and
      written), the block is built from them and written, and the
      records are returned with the block memoized on them.
    """
    if kind == "calls":
        columns_kind, key = "participant-columns", config
        to_columns, cls = ParticipantColumns.from_dataset, ParticipantColumns
        token: Callable[[Any], int] = lambda ds: ds.n_participants
        ids_of: Callable[[Any], List[str]] = lambda ds: [
            p.call_id for call in ds for p in call.participants
        ]
        ids_column = "call_id"
    elif kind == "corpus":
        columns_kind, key = "corpus-columns", corpus_key(config)
        cls = CorpusColumns
        to_columns = lambda corpus: _scored(CorpusColumns.from_corpus(corpus))
        token = len
        ids_of = lambda corpus: [p.post_id for p in corpus]
        ids_column = "post_id"
    else:
        raise SchemaError(f"no column block for artifact kind {kind!r}")

    def load_records() -> Any:
        return cache.load_or_build(kind, config, build, load, dump)

    in_hand: List[Any] = []

    def build_columns() -> Any:
        in_hand.append(load_records())
        return to_columns(in_hand[0])

    cols = cache.load_or_build(
        columns_kind, key, build_columns, load=cls.load, dump=cls.save
    )

    def checked_records() -> Any:
        records = load_records()
        ids = ids_of(records)
        if ids != list(getattr(cols, ids_column)):
            cache.evict(columns_kind, key)
            raise SchemaError(
                f"cached {kind} records do not match their column block "
                f"({len(ids)} vs {len(cols)} rows); the block is evicted"
            )
        return records

    records = in_hand[0] if in_hand else lazy(cols, checked_records)
    _remember(records, token(records), cols)
    return records
