"""Checkpointed resume for sharded generation runs.

A long parallel run should not lose everything to one crash, power cut
or Ctrl-C.  The :class:`CheckpointStore` gives
:class:`~repro.perf.parallel.ParallelMap` durable progress: each
completed shard is written to its own JSONL file (atomically, via
``.tmp`` + ``os.replace``) and recorded in a ``manifest.json`` that is
itself rewritten atomically after every commit — so at any instant the
directory holds a consistent set of fully-written shards.  A restarted
run passes the same store back in and re-executes only the shards the
manifest does not vouch for.

The manifest vouches with two hashes per shard (format documented in
DESIGN.md §7):

* the **shard fingerprint** — SHA-256 over ``run_key : index : start :
  stop``, where ``run_key`` is the artifact's config fingerprint
  (:func:`repro.perf.cache.config_fingerprint`).  Any change to the
  config, the schema version or the shard plan (e.g. a different
  ``--workers``) changes the fingerprint, so stale checkpoints are
  silently re-executed, never wrongly reused;
* the **output digest** — SHA-256 over the shard file's exact bytes,
  computed while writing.  A shard file that was truncated, edited or
  torn after commit fails verification and is dropped.

Resume is therefore safe by construction: a kept shard is byte-for-byte
the shard the original run produced, and the substream RNG contract
guarantees the re-executed shards are byte-identical to what the
interrupted run *would* have produced — so a resumed run's merged output
equals an uninterrupted run's, exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.io.jsonl import atomic_writer, json_default
from repro.perf.parallel import Shard

PathLike = Union[str, Path]

#: Bump when the manifest layout or shard file framing changes; old
#: checkpoint directories then re-execute cleanly instead of
#: deserialising into garbage.
CHECKPOINT_SCHEMA_VERSION = "1"

MANIFEST_NAME = "manifest.json"


def shard_fingerprint(run_key: str, shard: Shard) -> str:
    """SHA-256 identity of one shard of one run.

    Binds the run (config fingerprint) to the shard's position *and*
    extent, so a checkpoint taken under one shard plan can never be
    grafted onto another.
    """
    blob = f"{run_key}:{shard.index}:{shard.start}:{shard.stop}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CheckpointStore:
    """Durable per-shard progress for one (run_key, shard plan) run.

    Args:
        root: checkpoint directory (created on first commit).
        run_key: identity of the run — use the artifact's config
            fingerprint so resume can never mix configs.
        encode: maps one in-memory record to a JSON-serialisable value
            (default: identity).
        decode: inverse of ``encode`` (default: identity).

    Counters:
        committed: shards written by this store object.
        resumed: shards served from disk after verification.
        invalid: manifest entries rejected (missing file, digest or
            fingerprint mismatch, wrong record count) and re-executed.
    """

    def __init__(
        self,
        root: PathLike,
        run_key: str,
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self._root = Path(root)
        self._run_key = str(run_key)
        self._encode = encode
        self._decode = decode
        self.committed = 0
        self.resumed = 0
        self.invalid = 0
        self._shards: Dict[int, Dict[str, Any]] = {}
        self._load_manifest()

    @property
    def root(self) -> Path:
        return self._root

    @property
    def run_key(self) -> str:
        return self._run_key

    # -- manifest ---------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self._root / MANIFEST_NAME

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, ValueError):
            # Missing or torn manifest: an empty checkpoint, not an
            # error — the run simply starts from scratch.
            return
        if not isinstance(data, dict):
            return
        if data.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            return
        if data.get("run_key") != self._run_key:
            # A checkpoint for a different config/schema: ignore it
            # wholesale rather than mix artifacts.
            return
        shards = data.get("shards")
        if not isinstance(shards, dict):
            return
        for key, entry in shards.items():
            try:
                index = int(key)
            except (TypeError, ValueError):
                continue
            if isinstance(entry, dict):
                self._shards[index] = entry

    def _write_manifest(self) -> None:
        self._root.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "run_key": self._run_key,
            "shards": {
                str(index): entry
                for index, entry in sorted(self._shards.items())
            },
        }
        # One line, not indented: the manifest is rewritten on every
        # commit, and only the compact form takes json's C encoder.
        with atomic_writer(self._manifest_path()) as f:
            f.write(json.dumps(payload, sort_keys=True) + "\n")

    # -- commit / load ----------------------------------------------------

    def _shard_file(self, index: int) -> Path:
        return self._root / f"shard-{index:05d}.jsonl"

    def commit(self, shard: Shard, records: List[Any]) -> None:
        """Durably record one completed shard.

        The shard file lands atomically, its digest is computed over the
        exact bytes written, and the manifest is rewritten atomically —
        a crash between any two steps leaves a consistent checkpoint
        (at worst the shard is re-executed on resume).
        """
        self._root.mkdir(parents=True, exist_ok=True)
        path = self._shard_file(shard.index)
        digest = hashlib.sha256()
        with atomic_writer(path) as f:
            for record in records:
                value = self._encode(record) if self._encode else record
                line = json.dumps(value, default=json_default) + "\n"
                digest.update(line.encode("utf-8"))
                f.write(line)
        self._shards[shard.index] = {
            "fingerprint": shard_fingerprint(self._run_key, shard),
            "digest": digest.hexdigest(),
            "n_records": len(records),
            "file": path.name,
        }
        self._write_manifest()
        self.committed += 1

    def load(
        self, shard: Shard, head: Optional[int] = None
    ) -> Optional[List[Any]]:
        """The shard's committed records, or None if it must re-execute.

        Verifies the manifest entry end to end — shard fingerprint,
        file presence, byte digest, record count — and drops the entry
        (counting it in ``invalid``) on any mismatch.  With ``head``,
        only the first ``head`` records are parsed and returned; the
        checks still cover the whole file.
        """
        entry = self._shards.get(shard.index)
        if entry is None:
            return None
        expected = shard_fingerprint(self._run_key, shard)
        if entry.get("fingerprint") != expected:
            self._drop(shard.index)
            return None
        path = self._root / str(entry.get("file", ""))
        try:
            raw = path.read_bytes()
        except OSError:
            self._drop(shard.index)
            return None
        if hashlib.sha256(raw).hexdigest() != entry.get("digest"):
            self._drop(shard.index)
            return None
        try:
            lines = [
                line for line in raw.decode("utf-8").splitlines()
                if line.strip()
            ]
            records = [json.loads(line) for line in lines[:head]]
        except ValueError:
            self._drop(shard.index)
            return None
        if len(lines) != entry.get("n_records"):
            self._drop(shard.index)
            return None
        if self._decode:
            records = [self._decode(r) for r in records]
        self.resumed += 1
        return records

    def _drop(self, index: int) -> None:
        self._shards.pop(index, None)
        self.invalid += 1

    def retire_from(self, index: int) -> int:
        """Forget every shard at or above ``index``; returns how many.

        For stores whose shards form a chain (each one extends the
        previous): a run resumed from shard ``j`` calls
        ``retire_from(j + 1)`` before it commits ``j + 1``, so shards an
        earlier run left above ``j`` can never be read as successors of
        the new ones.  The manifest
        is rewritten atomically *before* the files are deleted.
        """
        stale = [i for i in self._shards if i >= index]
        if not stale:
            return 0
        for i in stale:
            del self._shards[i]
        self._write_manifest()
        for i in stale:
            self._shard_file(i).unlink(missing_ok=True)
        return len(stale)

    # -- inspection / cleanup ---------------------------------------------

    def completed_indices(self) -> List[int]:
        """Shard indices the manifest currently vouches for."""
        return sorted(self._shards)

    def discard(self) -> int:
        """Delete the checkpoint's contents (run finished); returns leftovers.

        Foreign files (or a raced delete) are left in place and counted,
        never raised over — discarding a finished checkpoint must not be
        able to fail the run it just completed.
        """
        self._shards.clear()
        if not self._root.is_dir():
            return 0
        leftovers = 0
        for path in self._root.iterdir():
            try:
                os.unlink(path)
            except OSError:
                leftovers += 1
        if leftovers == 0:
            try:
                os.rmdir(self._root)
            except OSError:
                leftovers += 1
        return leftovers

    def summary(self) -> str:
        return (
            f"checkpoint {self._root}: {len(self._shards)} shard(s) held, "
            f"{self.committed} committed, {self.resumed} resumed, "
            f"{self.invalid} invalid"
        )
