"""Persistence and report-rendering helpers."""

from repro.io.jsonl import (
    SalvageResult,
    atomic_writer,
    iter_jsonl,
    read_jsonl,
    salvage_jsonl,
    write_jsonl,
)
from repro.io.locks import file_lock
from repro.io.tables import format_series, format_table, ljust_table

__all__ = [
    "SalvageResult",
    "atomic_writer",
    "file_lock",
    "format_series",
    "format_table",
    "iter_jsonl",
    "ljust_table",
    "read_jsonl",
    "salvage_jsonl",
    "write_jsonl",
]
