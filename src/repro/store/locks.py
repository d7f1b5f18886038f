"""Advisory file locks: capped-backoff acquisition, stale-lock recovery.

Every append to a campaign store happens under an exclusive advisory lock
on a lockfile beside the segment it writes — ``records.lock`` for the
single segment of the v1 single-file layout, ``segments/<prefix>.lock``
for each segment of the v2 sharded layout.  :func:`file_lock` is the
single primitive both use:

* **fcntl where available** — ``fcntl.flock`` on the lockfile, released
  automatically by the kernel if the holder dies, polled with capped
  exponential backoff (a healthy holder releases within one append+fsync,
  so the first retries come quickly; long waits back off to a cap instead
  of burning CPU).  The schedule is deterministic — no jitter, by the
  repository's no-entropy rule (RPR102).
* **``O_EXCL`` lockfile fallback elsewhere** — existence of the lockfile
  is the lock.  The file records its owner (``pid`` and hostname), so a
  lock whose owner is a dead process on this host is *broken* instead of
  wedging every writer until the timeout: a crashed writer cannot wedge a
  fleet on non-POSIX hosts.  Foreign-host or unreadable owner stamps are
  never broken — liveness cannot be probed across machines.

Acquisition waits at most ``timeout_s`` seconds (default
:data:`DEFAULT_LOCK_TIMEOUT_S`, overridable via the
:data:`LOCK_TIMEOUT_ENV` environment variable) and then raises
:class:`~repro.exceptions.StoreLockTimeoutError` naming the lock path and
the wait, so a fleet worker fails loudly instead of hanging forever
behind a wedged peer.

When tracing is enabled the wait is accounted to ``<prefix>_wait_s``
(with ``<prefix>_acquisitions`` / ``<prefix>_timeouts`` counting outcomes
and ``<prefix>_breaks`` counting stale locks broken); the store-wide lock
uses the historical ``store.lock`` prefix, segment locks use
``store.segment.lock``.
"""

from __future__ import annotations

import contextlib
import errno
import os
import socket
import time
from typing import Iterator, Optional

from repro.exceptions import StoreError, StoreLockTimeoutError
from repro.obs import TRACER

try:  # POSIX; absent on some platforms — the lockfile fallback covers those.
    import fcntl
except ImportError:  # pragma: no cover - exercised only on non-POSIX hosts
    fcntl = None  # type: ignore[assignment]


#: Environment variable overriding the store-lock acquisition timeout.
LOCK_TIMEOUT_ENV = "REPRO_STORE_LOCK_TIMEOUT"

#: Default seconds to wait for a store lock before failing loudly.  A
#: healthy holder releases within milliseconds (one append + fsync), so two
#: minutes means a wedged or dead peer, not contention.
DEFAULT_LOCK_TIMEOUT_S = 120.0

#: First retry delay of the capped exponential backoff schedule.
BACKOFF_INITIAL_S = 0.0005

#: Multiplier applied to the delay after every failed attempt.
BACKOFF_FACTOR = 2.0

#: Ceiling the backoff saturates at; bounds worst-case release latency.
BACKOFF_CAP_S = 0.05


def resolve_lock_timeout(timeout_s: Optional[float] = None) -> float:
    """The effective lock timeout: explicit arg, else env override, else default."""
    if timeout_s is None:
        raw = os.environ.get(LOCK_TIMEOUT_ENV)
        if raw is None:
            return DEFAULT_LOCK_TIMEOUT_S
        try:
            timeout_s = float(raw)
        except ValueError:
            raise StoreError(
                f"{LOCK_TIMEOUT_ENV}={raw!r} is not a number of seconds"
            ) from None
    if timeout_s <= 0:
        raise StoreError(
            f"store lock timeout must be positive, got {timeout_s!r}"
        )
    return float(timeout_s)


def backoff_delays(
    initial_s: float = BACKOFF_INITIAL_S,
    factor: float = BACKOFF_FACTOR,
    cap_s: float = BACKOFF_CAP_S,
) -> Iterator[float]:
    """Yield the deterministic capped exponential backoff schedule.

    ``initial_s, initial_s*factor, ...`` saturating at ``cap_s``.  No
    jitter: randomness is banned library-wide (RPR102), and the advisory
    locks here are held for sub-millisecond appends, where a deterministic
    schedule loses nothing measurable to lockstep retries.
    """
    delay = initial_s
    while True:
        yield delay
        delay = min(delay * factor, cap_s)


def owner_stamp() -> bytes:
    """The ``pid\\nhostname\\n`` stamp written into ``O_EXCL`` lockfiles."""
    return f"{os.getpid()}\n{socket.gethostname()}\n".encode("utf-8")


def is_stale_lockfile(lock_path: str) -> bool:
    """Is ``lock_path`` an owner-stamped lockfile whose owner is dead?

    Only lockfiles stamped by *this host* whose pid no longer exists are
    stale; unreadable, unstamped (fcntl-style), or foreign-host lockfiles
    are never judged stale.
    """
    try:
        with open(lock_path, "rb") as handle:
            raw = handle.read(512)
    except OSError:
        return False  # vanished (owner released it) or unreadable
    lines = raw.decode("utf-8", errors="replace").splitlines()
    if len(lines) < 2:
        return False  # no owner stamp (fcntl lockfile, or mid-write)
    try:
        pid = int(lines[0])
    except ValueError:
        return False
    if lines[1] != socket.gethostname():
        return False  # cannot probe liveness across hosts
    return not _pid_alive(pid)


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive, owned by another user
        return True
    return True


@contextlib.contextmanager
def file_lock(
    lock_path: str,
    timeout_s: Optional[float] = None,
    counter_prefix: str = "store.lock",
) -> Iterator[None]:
    """Hold the exclusive advisory lock at ``lock_path`` for the block.

    Reentrant use within one process is *not* supported — the store
    acquires locks only in leaf methods.
    """
    timeout = resolve_lock_timeout(timeout_s)
    tracing = TRACER.enabled
    wait_start = time.perf_counter() if tracing else 0.0
    deadline = time.monotonic() + timeout
    delays = backoff_delays()
    if fcntl is not None:
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError as error:
                    if error.errno not in (errno.EAGAIN, errno.EACCES):
                        raise
                    if time.monotonic() >= deadline:
                        _note_outcome(tracing, wait_start, counter_prefix, "_timeouts")
                        raise StoreLockTimeoutError(lock_path, timeout) from None
                    time.sleep(next(delays))
            _note_outcome(tracing, wait_start, counter_prefix, "_acquisitions")
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
        return
    # Portable fallback: existence of the lockfile is the lock; the owner
    # stamp lets a crashed holder's lock be broken instead of honoured.
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            break
        except OSError as error:
            if error.errno != errno.EEXIST:
                raise
            if is_stale_lockfile(lock_path):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(lock_path)
                if TRACER.enabled:
                    TRACER.add(f"{counter_prefix}_breaks")
                    TRACER.event("store.lock_break", {"path": lock_path})
                continue  # retry the O_EXCL create immediately
            if time.monotonic() >= deadline:
                _note_outcome(tracing, wait_start, counter_prefix, "_timeouts")
                raise StoreLockTimeoutError(lock_path, timeout) from None
            time.sleep(next(delays))
    with os.fdopen(fd, "wb") as handle:
        handle.write(owner_stamp())
        handle.flush()
    _note_outcome(tracing, wait_start, counter_prefix, "_acquisitions")
    try:
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock_path)


def _note_outcome(
    tracing: bool, wait_start: float, prefix: str, outcome: str
) -> None:
    if tracing and TRACER.enabled:
        TRACER.add(f"{prefix}_wait_s", time.perf_counter() - wait_start)
        TRACER.add(f"{prefix}{outcome}")
