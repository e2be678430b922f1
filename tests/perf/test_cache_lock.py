"""The advisory build lock: unit behaviour and a two-writer stress test.

Atomic renames already make individual cache writes safe; the lock's job
is mutual exclusion around the *build*, so two processes missing on the
same fingerprint produce exactly one build — the loser waits, re-checks
and loads the winner's artifact instead of rebuilding into the same
``.tmp`` sibling.
"""

import json
import multiprocessing
import threading
import time
from pathlib import Path

import pytest

from repro.errors import LockTimeoutError
from repro.io.jsonl import read_jsonl, write_jsonl
from repro.io.locks import STALE_LOCK_S, file_lock, remove_lock_file
from repro.perf.cache import ArtifactCache

N_RECORDS = 50


class TestFileLock:
    def test_lock_file_appears_beside_target(self, tmp_path):
        target = tmp_path / "artifact.jsonl"
        with file_lock(target):
            assert (tmp_path / "artifact.jsonl.lock").exists()

    def test_sequential_acquisition_succeeds(self, tmp_path):
        target = tmp_path / "artifact.jsonl"
        for _ in range(3):
            with file_lock(target, timeout_s=1.0):
                pass

    def test_contended_lock_times_out(self, tmp_path):
        # flock conflicts between two open file descriptions even within
        # one process, so holding the lock here starves the inner waiter.
        target = tmp_path / "artifact.jsonl"
        with file_lock(target):
            with pytest.raises(LockTimeoutError, match="artifact.jsonl.lock"):
                with file_lock(target, timeout_s=0.1, poll_s=0.01):
                    pass

    def test_released_lock_is_reacquirable_immediately(self, tmp_path):
        target = tmp_path / "artifact.jsonl"
        with file_lock(target):
            pass
        with file_lock(target, timeout_s=0.1):
            pass

    def test_holder_may_delete_the_lock_file(self, tmp_path):
        # A waiter that wins the lock on the deleted inode must notice
        # and lock a fresh file, or a third writer would get in beside it.
        target = tmp_path / "artifact.jsonl"
        lock_path = tmp_path / "artifact.jsonl.lock"
        waiting, held, done = (threading.Event() for _ in range(3))
        seen = {}

        def waiter():
            waiting.set()
            with file_lock(target, timeout_s=5.0, poll_s=0.01):
                seen["file"] = lock_path.exists()
                held.set()
                done.wait(5.0)

        with file_lock(target):
            thread = threading.Thread(target=waiter)
            thread.start()
            waiting.wait(5.0)
            time.sleep(0.05)  # let the waiter open the old file and poll
            remove_lock_file(target)
        assert held.wait(5.0)
        try:
            assert seen["file"]
            with pytest.raises(LockTimeoutError):
                with file_lock(target, timeout_s=0.1, poll_s=0.01):
                    pass
        finally:
            done.set()
            thread.join(5.0)


class TestFallbackLockfile:
    """The O_CREAT|O_EXCL path used where fcntl does not exist."""

    @pytest.fixture
    def no_fcntl(self, monkeypatch):
        import repro.io.locks as locks

        monkeypatch.setattr(locks, "fcntl", None)

    def test_lockfile_holds_pid_and_is_removed(self, tmp_path, no_fcntl):
        target = tmp_path / "artifact.jsonl"
        lock_path = tmp_path / "artifact.jsonl.lock"
        with file_lock(target):
            assert int(lock_path.read_text()) > 0
        assert not lock_path.exists()

    def test_fresh_foreign_lockfile_blocks(self, tmp_path, no_fcntl):
        target = tmp_path / "artifact.jsonl"
        (tmp_path / "artifact.jsonl.lock").write_text("12345")
        with pytest.raises(LockTimeoutError):
            with file_lock(target, timeout_s=0.1, poll_s=0.01):
                pass

    def test_stale_lockfile_is_broken(self, tmp_path, no_fcntl):
        import os

        target = tmp_path / "artifact.jsonl"
        lock_path = tmp_path / "artifact.jsonl.lock"
        lock_path.write_text("12345")
        stale = time.time() - (STALE_LOCK_S + 60)
        os.utime(lock_path, (stale, stale))
        with file_lock(target, timeout_s=1.0):
            pass  # acquired by breaking the orphan
        assert not lock_path.exists()


class TestCacheBuildLock:
    def test_held_lock_surfaces_timeout_from_load_or_build(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.lock_timeout_s = 0.1
        path = cache.path_for("calls", {"n": 1})
        with file_lock(path):
            with pytest.raises(LockTimeoutError):
                cache.load_or_build(
                    "calls", {"n": 1},
                    build=lambda: [{"i": 1}],
                    load=read_jsonl,
                    dump=lambda art, p: write_jsonl(p, art),
                )
        assert cache.misses == 0  # never got as far as building

    def test_dropped_entries_leave_no_lock_files(self, tmp_path):
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        for kind in ("calls", "corpus"):
            cache.load_or_build(
                kind, {"n": 1},
                build=lambda: [{"i": 1}],
                load=read_jsonl,
                dump=lambda art, p: write_jsonl(p, art),
            )
        assert sorted(p.name for p in root.glob("*.lock")) == sorted(
            cache.path_for(kind, {"n": 1}).name + ".lock"
            for kind in ("calls", "corpus")
        )
        cache.evict("calls", {"n": 1})
        assert [p.name for p in root.glob("calls-*")] == []
        assert cache.invalidate() == 1
        assert sorted(p.name for p in root.iterdir()) == []


def _slow_build():
    time.sleep(0.3)  # widen the race window well past process start skew
    return [{"i": i} for i in range(N_RECORDS)]


def _race_worker(root, barrier, out_path):
    cache = ArtifactCache(root)
    barrier.wait()
    artifact = cache.load_or_build(
        "stress", {"n": N_RECORDS},
        build=_slow_build,
        load=read_jsonl,
        dump=lambda art, path: write_jsonl(path, art),
    )
    Path(out_path).write_text(
        json.dumps({"built": cache.misses, "n_records": len(artifact)})
    )


class TestTwoWriterStress:
    def test_concurrent_writers_build_exactly_once(self, tmp_path):
        root = tmp_path / "cache"
        barrier = multiprocessing.Barrier(2)
        outs = [tmp_path / f"writer-{i}.json" for i in range(2)]
        procs = [
            multiprocessing.Process(
                target=_race_worker, args=(str(root), barrier, str(out))
            )
            for out in outs
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
        assert all(p.exitcode == 0 for p in procs)

        reports = [json.loads(out.read_text()) for out in outs]
        # Exactly one writer built; the other waited on the lock,
        # re-checked and loaded the winner's bytes.
        assert sorted(r["built"] for r in reports) == [0, 1]
        assert all(r["n_records"] == N_RECORDS for r in reports)

        cache = ArtifactCache(root)
        entry = cache.path_for("stress", {"n": N_RECORDS})
        assert read_jsonl(entry) == [{"i": i} for i in range(N_RECORDS)]
        # No torn temporaries left behind by interleaved writers.
        assert list(root.glob("*.tmp")) == []
