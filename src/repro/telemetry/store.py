"""In-memory call dataset with filtering and (de)serialisation.

:class:`CallDataset` is what the generator produces and what every §3
analysis consumes.  It deliberately mirrors how one would query the real
telemetry store: iterate calls, iterate participant sessions, filter by
call-level and participant-level predicates.
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.errors import SchemaError
from repro.telemetry.schema import CallRecord, ParticipantRecord


class CallDataset:
    """An ordered collection of :class:`CallRecord`.

    A dataset served from a cached column block
    (:meth:`from_columns`) holds no records until something asks for
    them: ``len()`` and :attr:`n_participants` come from the columns,
    and the first record access decodes the records once.
    """

    def __init__(self, calls: Iterable[CallRecord] = ()) -> None:
        self._records: List[CallRecord] = list(calls)
        #: (columns, load) until a lazy dataset's records are decoded.
        self._pending: Optional[
            Tuple[Any, Callable[[], Iterable[CallRecord]]]
        ] = None

    @classmethod
    def from_columns(
        cls, columns: Any, load: Callable[[], Iterable[CallRecord]]
    ) -> "CallDataset":
        """A dataset over ``columns`` (a ``ParticipantColumns`` block)
        whose records come from ``load()`` on first record access.

        Calls are the block's runs of equal ``call_id``; ``load`` must
        return records in that order (it checks them; see
        :func:`repro.perf.columnar.load_with_columns`).
        """
        dataset = cls()
        dataset._pending = (columns, load)
        return dataset

    @property
    def _calls(self) -> List[CallRecord]:
        if self._pending is not None:
            self._records = list(self._pending[1]())
            self._pending = None
        return self._records

    def __len__(self) -> int:
        if self._pending is not None:
            ids = self._pending[0].call_id
            return sum(1 for a, b in zip([None] + ids[:-1], ids) if a != b)
        return len(self._records)

    def __iter__(self) -> Iterator[CallRecord]:
        return iter(self._calls)

    def __getitem__(self, i: int) -> CallRecord:
        return self._calls[i]

    def append(self, call: CallRecord) -> None:
        if not isinstance(call, CallRecord):
            raise SchemaError(f"expected CallRecord, got {type(call).__name__}")
        self._calls.append(call)
        # Columns built by repro.perf.columnar are memoized here; a
        # mutation must drop them so the next query rebuilds.
        self.__dict__.pop("_columnar_cache", None)

    def participants(self) -> Iterator[ParticipantRecord]:
        """All participant sessions across all calls."""
        for call in self._calls:
            yield from call.participants

    @property
    def n_participants(self) -> int:
        if self._pending is not None:
            return len(self._pending[0])
        return sum(call.size for call in self._records)

    def filter_calls(self, predicate: Callable[[CallRecord], bool]) -> "CallDataset":
        return CallDataset(call for call in self._calls if predicate(call))

    def rated_participants(self) -> List[ParticipantRecord]:
        """Sessions that carry explicit feedback (the MOS subset)."""
        return [p for p in self.participants() if p.rating is not None]

    # --- persistence ---------------------------------------------------

    def to_jsonl(self, path: Union[str, Path]) -> None:
        """Write one JSON object per call (atomically: tmp + replace).

        An interrupted export can never leave a truncated file that
        later fails :meth:`from_jsonl` — the destination only appears
        once every record is on disk.
        """
        from repro.io.jsonl import atomic_writer

        with atomic_writer(path) as f:
            for call in self._calls:
                f.write(json.dumps(_call_to_dict(call)) + "\n")

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "CallDataset":
        calls = []
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    calls.append(_call_from_dict(json.loads(line)))
                except (ValueError, KeyError) as exc:
                    raise SchemaError(f"{path}:{line_no}: bad record: {exc}") from exc
        return cls(calls)


def _call_to_dict(call: CallRecord) -> dict:
    return {
        "call_id": call.call_id,
        "start": call.start.isoformat(),
        "scheduled_duration_s": call.scheduled_duration_s,
        "is_enterprise": call.is_enterprise,
        "participants": [
            {
                "call_id": p.call_id,
                "user_id": p.user_id,
                "platform": p.platform,
                "country": p.country,
                "session_duration_s": p.session_duration_s,
                "presence_pct": p.presence_pct,
                "cam_on_pct": p.cam_on_pct,
                "mic_on_pct": p.mic_on_pct,
                "dropped_early": p.dropped_early,
                "network": p.network,
                "rating": p.rating,
                "conditioning": p.conditioning,
            }
            for p in call.participants
        ],
    }


def _call_from_dict(data: dict) -> CallRecord:
    participants = [
        ParticipantRecord(
            call_id=pd["call_id"],
            user_id=pd["user_id"],
            platform=pd["platform"],
            country=pd["country"],
            session_duration_s=pd["session_duration_s"],
            presence_pct=pd["presence_pct"],
            cam_on_pct=pd["cam_on_pct"],
            mic_on_pct=pd["mic_on_pct"],
            dropped_early=pd["dropped_early"],
            network=pd["network"],
            rating=pd["rating"],
            conditioning=pd.get("conditioning", 0.5),
        )
        for pd in data["participants"]
    ]
    return CallRecord(
        call_id=data["call_id"],
        start=dt.datetime.fromisoformat(data["start"]),
        scheduled_duration_s=data["scheduled_duration_s"],
        is_enterprise=data["is_enterprise"],
        participants=participants,
    )


#: Public record codec for one call — the checkpoint layer persists
#: per-shard progress in exactly the serialisation `to_jsonl` uses, so a
#: resumed shard is byte-identical to a regenerated one.
call_to_record = _call_to_dict
call_from_record = _call_from_dict
