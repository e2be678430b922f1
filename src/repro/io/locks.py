"""Advisory file locks for multi-process writers.

Two processes building the same artifact concurrently is a real
scenario — a benchmark sweep and a USaaS query both warming the
:class:`~repro.perf.cache.ArtifactCache`, or two resumed runs pointed at
one checkpoint directory.  Atomic renames already make each individual
write safe; the lock adds *mutual exclusion around the build itself*, so
the second writer waits and then reads the first writer's artifact
instead of redundantly (and concurrently) rebuilding into the same
temporary path.

:func:`file_lock` prefers ``fcntl.flock`` (kernel-managed; evaporates if
the holder dies) and degrades to an ``O_CREAT | O_EXCL`` lockfile on
platforms without ``fcntl``.  A ``flock`` holder may delete the lock
file before releasing it (:func:`remove_lock_file`, so evicted entries
leave nothing behind): a waiter that then wins the lock on the deleted
inode notices that the path no longer names it and retries on a fresh
file.  The fallback breaks stale locks by age, so
a crashed holder cannot wedge every future writer.  Waiting is polled on
an injectable :class:`~repro.resilience.clock.Clock`; running out of
budget raises :class:`~repro.errors.LockTimeoutError`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.errors import LockTimeoutError
from repro.resilience.clock import Clock, MonotonicClock

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

PathLike = Union[str, Path]

#: How long between acquisition attempts while waiting.
DEFAULT_POLL_S = 0.02

#: A fallback lockfile older than this is presumed orphaned by a crashed
#: holder and broken.  Generous: no legitimate build holds a lock for
#: ten minutes.
STALE_LOCK_S = 600.0


@contextmanager
def file_lock(
    path: PathLike,
    timeout_s: float = 30.0,
    poll_s: float = DEFAULT_POLL_S,
    clock: Optional[Clock] = None,
) -> Iterator[None]:
    """Hold an exclusive advisory lock at ``<path>.lock``.

    Cooperating writers (this library's own cache and checkpoint code)
    serialise on it; foreign readers are unaffected — the artifact
    itself is still published by atomic rename.

    Raises:
        LockTimeoutError: the lock was not acquired within ``timeout_s``.
    """
    lock_path = Path(str(path) + ".lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    clock = clock or MonotonicClock()
    deadline = clock.now() + timeout_s
    if fcntl is not None:
        while True:
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                while True:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError:
                        if clock.now() >= deadline:
                            raise LockTimeoutError(
                                f"could not lock {lock_path} within "
                                f"{timeout_s:.1f}s"
                            ) from None
                        clock.sleep(poll_s)
                if _names_inode(lock_path, fd):
                    try:
                        yield
                    finally:
                        fcntl.flock(fd, fcntl.LOCK_UN)
                    return
            finally:
                os.close(fd)
            # The holder we waited on deleted the lock file: the inode
            # we locked guards nothing, so lock the path afresh.
    # Fallback: exclusive-create lockfile.  Unlike flock, a crashed
    # holder leaves the file behind, so age out stale ones.
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            break
        except FileExistsError:
            _break_stale(lock_path)
            if clock.now() >= deadline:
                raise LockTimeoutError(
                    f"could not lock {lock_path} within {timeout_s:.1f}s"
                ) from None
            clock.sleep(poll_s)
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(lock_path)
        except OSError:
            pass  # already removed (broken as stale by a waiting peer)


def remove_lock_file(path: PathLike) -> None:
    """Delete ``path``'s lock file; call only while holding its lock.

    Safe under ``flock``, whose waiters re-check the inode they win.
    The fallback lockfile is deleted on release anyway, and deleting it
    early would let a second holder in, so it is left alone here.
    """
    if fcntl is not None:
        Path(str(path) + ".lock").unlink(missing_ok=True)


def _names_inode(lock_path: Path, fd: int) -> bool:
    """Whether ``lock_path`` still names the file open as ``fd``."""
    try:
        return os.path.samestat(os.stat(lock_path), os.fstat(fd))
    except FileNotFoundError:
        return False


def _break_stale(lock_path: Path) -> bool:
    """Remove a fallback lockfile abandoned by a crashed holder."""
    import time

    try:
        age = time.time() - lock_path.stat().st_mtime
    except OSError:
        return False
    if age <= STALE_LOCK_S:
        return False
    try:
        os.unlink(lock_path)
    except OSError:
        return False
    return True
