"""Durable state-file I/O: one write discipline for every layer.

Every file a campaign persists — journal lines, cache lines, trace
spans, search-state snapshots, ``metrics.prom``, numerical profiles —
goes through the two helpers here:

* :func:`atomic_write` — whole-file replacement via temp file + fsync +
  ``os.replace`` + directory fsync.  Readers see the old bytes or the
  new bytes, never a mixture; a crash leaves at worst a stray
  ``*.tmp`` beside the target (which ``repro doctor`` flags).
* :func:`append_line` — JSONL append with flush + fsync per line.  A
  crash mid-append leaves at worst one torn final line, which loaders
  tolerate (:func:`seal_torn_tail` lets a resuming writer append past
  the tear without gluing onto it).

Every JSONL log is read back here too: :func:`read_jsonl` yields None
for a torn line, and :func:`log_begun` holds that a log exists once any
of its lines parses, so a lone torn header starts over.

Centralizing the discipline is also what makes fault injection honest:
the chaos engine (:mod:`repro.chaos`) intercepts writes *here*, at the
exact syscall boundary a real ENOSPC, failed fsync, or mid-write
SIGKILL would hit, rather than at some mocked layer above it.  Callers
decide policy: an :class:`OSError` from a journal write is fatal
(durability is the journal's contract), while cache/trace/metrics
writes are advisory and degrade to in-memory operation.
"""

from __future__ import annotations

import errno
import json
import os
import signal
from pathlib import Path
from typing import IO, Any, Iterator, Optional, Union

from ..chaos.hooks import active_engine

__all__ = ["atomic_write", "append_line", "seal_torn_tail",
           "fsync_directory", "JsonlAppender", "read_jsonl", "log_begun"]

#: Replacement payload for chaos-corrupted atomic writes: definitely
#: not JSON, definitely not empty — the shape of a bad block.
_CORRUPT_BYTES = b"\x00\x89CHAOS\xff{torn" + b"\x00" * 24


def fsync_directory(directory: Union[str, Path]) -> None:
    """Flush a directory entry so a rename survives power loss.

    Best-effort: some filesystems refuse O_RDONLY fsync on directories;
    the rename itself is already atomic."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _sigkill_self() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def atomic_write(path: Union[str, Path], text: str, *,
                 kind: str = "state") -> None:
    """Atomically replace *path* with *text* (tmp + fsync + replace).

    *kind* names the state-file class for fault injection (one of
    :data:`repro.chaos.plan.IO_TARGETS`, or any label for files chaos
    does not target).  Raises :class:`OSError` on refused writes —
    including injected ENOSPC/EIO — so each caller applies its own
    fatal-vs-advisory policy.
    """
    path = Path(path)
    engine = active_engine()
    mode = engine.io_action(kind) if engine is not None else None
    if mode == "enospc":
        raise OSError(errno.ENOSPC,
                      f"No space left on device (chaos: {kind})")

    data = text.encode("utf-8")
    if mode == "corrupt":
        data = _CORRUPT_BYTES
    elif mode == "torn_kill":
        data = data[:max(1, len(data) // 2)]

    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)

    if mode == "torn_kill":
        # Die with the half-written temp file on disk and the target
        # untouched — the artifact repro doctor reports as a stray tmp.
        _sigkill_self()
    if mode == "fsync_error":
        # Data reached the tmp file but durability could not be
        # confirmed; refuse to publish it.  The stray tmp remains.
        raise OSError(errno.EIO,
                      f"fsync failed (chaos: {kind}); write not published")

    os.replace(tmp, path)
    fsync_directory(path.parent)


def append_line(fh: IO[str], line: str, *, kind: str = "state") -> None:
    """Append one JSONL line (no trailing newline in *line*) with the
    journal's flush+fsync discipline, via an already-open handle.

    Raises :class:`OSError` on refused writes; an injected
    ``torn_kill`` writes a prefix of the line, fsyncs it, and SIGKILLs
    the process — the canonical torn-tail artifact.
    """
    engine = active_engine()
    mode = engine.io_action(kind) if engine is not None else None
    if mode == "enospc":
        raise OSError(errno.ENOSPC,
                      f"No space left on device (chaos: {kind})")
    if mode == "torn_kill":
        fh.write(line[:max(1, len(line) // 2)])
        fh.flush()
        os.fsync(fh.fileno())
        _sigkill_self()

    fh.write(line + "\n")
    fh.flush()
    if mode == "fsync_error":
        raise OSError(errno.EIO,
                      f"fsync failed (chaos: {kind}); durability unknown")
    os.fsync(fh.fileno())


class JsonlAppender:
    """Append-only JSONL writer with the journal's write discipline.

    The one way a long-lived JSONL state file (campaign journal,
    service journal, span trace) is written: canonical ``sort_keys``
    JSON, one line per entry, flush + fsync per append via
    :func:`append_line`.  A predecessor's torn final line is sealed
    before the first append, so a writer can never glue onto a tear.
    Policy stays with the caller: :meth:`append` raises ``OSError``
    (including injected ENOSPC/EIO) for the owner to classify as
    fatal or advisory.
    """

    def __init__(self, path: Union[str, Path], *, kind: str = "state"):
        self.path = Path(path)
        self.kind = kind
        seal_torn_tail(self.path)
        self._fh: Optional[IO[str]] = self.path.open("a")

    def append(self, entry: dict) -> None:
        append_line(self._fh, json.dumps(entry, sort_keys=True),
                    kind=self.kind)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def seal_torn_tail(path: Union[str, Path]) -> bool:
    """Terminate a torn final line so future appends start clean.

    A writer killed mid-append leaves a final line with no newline; a
    later append would otherwise concatenate onto the tear, silently
    swallowing the *new* record too.  Called before reopening any JSONL
    state file for append.  Returns True when a seal was written.
    """
    path = Path(path)
    try:
        if not path.exists() or path.stat().st_size == 0:
            return False
        with path.open("rb+") as fh:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) == b"\n":
                return False
            fh.write(b"\n")
            fh.flush()
            os.fsync(fh.fileno())
        return True
    except OSError:
        return False


def read_jsonl(path: Union[str, Path]) -> Iterator[tuple[int, Any]]:
    """Yield ``(line number, value)`` for each non-blank line of the
    JSONL log at *path*, with *value* None where the line does not
    parse.

    A line that does not parse is a torn write: the tail of a writer
    killed mid-append, or an earlier tear a later writer sealed and
    appended past.  Later lines are still read.  What a torn line
    means (a warning, a count) is the caller's call.
    """
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError:
                value = None
            yield lineno, value


def log_begun(path: Union[str, Path]) -> bool:
    """True once any line of the JSONL log at *path* parses.

    A missing or empty file, or one holding only a torn first line (a
    writer killed before or while writing its header), has not begun:
    a fresh writer accepts it and starts over.
    """
    path = Path(path)
    return path.exists() and any(
        value is not None for _, value in read_jsonl(path))
