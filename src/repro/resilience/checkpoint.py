"""The crash-safe record log behind kill-and-resume.

A :class:`Journal` is an append-only JSONL file of ``{"key", "value"}``
records, one per completed unit of work.  Each record is flushed and
fsynced as it is written, so a killed run loses at most the work in
flight; :meth:`Journal.load` tolerates a truncated final line, which is
exactly what a crash mid-append leaves behind.

Journals are the on-disk format of the completion cache: each
:class:`~repro.delivery.cache.ResponseCache` writer appends to its own
journal segment, one record per successful completion.  A restarted ICL
run over the same cache serves every recorded completion as a hit and only
delivers the remainder.  :class:`CheckpointAbort` is the controlled mid-run
stop used by the ``--max-deliveries`` budget to demonstrate (and test)
kill-and-resume.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, Tuple, Union

PathLike = Union[str, Path]


class CheckpointAbort(RuntimeError):
    """A run stopped early on purpose; the response cache holds completed work."""

    def __init__(self, message: str, *, delivered: int = 0):
        super().__init__(message)
        self.delivered = delivered


class Journal:
    """Append-only, crash-safe JSONL journal of completed work.

    Records are ``{"key": str, "value": <json>}``; ``load`` returns the
    key-to-value mapping of every intact record and stops at the first
    corrupt line (the torn tail of a crashed append).  ``record`` cuts such
    a tail before its first append, keeps the file handle open across
    calls, and fsyncs each append.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._handle = None
        # The concurrent delivery engine journals from worker threads; each
        # append (write + flush + fsync) must be one atomic unit so records
        # never interleave mid-line.
        self._lock = threading.Lock()

    def load(self) -> Dict[str, object]:
        """Completed entries on disk; ``{}`` when the journal doesn't exist."""
        return self._scan()[0]

    def _scan(self) -> Tuple[Dict[str, object], int]:
        """Intact entries, and the byte offset just past the last of them."""
        entries: Dict[str, object] = {}
        intact_end = 0
        try:
            data = self.path.read_bytes()
        except (FileNotFoundError, IsADirectoryError):
            return entries, intact_end
        offset = 0
        for raw in data.splitlines(keepends=True):
            offset += len(raw)
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                break  # torn tail from a crash; later bytes untrustworthy
            if not isinstance(record, dict) or "key" not in record:
                break
            entries[str(record["key"])] = record.get("value")
            intact_end = offset
        return entries, intact_end

    def _open_for_append(self):
        """Open for appending after cutting any torn tail a crash left.

        Appending after torn bytes would glue the first new record onto the
        corrupt line; ``load`` stops there, so every record written after
        the crash would be invisible to the next resume.
        """
        if str(self.path.parent):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        intact_end = self._scan()[1]
        handle = open(self.path, "a+b")
        handle.truncate(intact_end)
        if intact_end:
            handle.seek(intact_end - 1)
            if handle.read(1) != b"\n":
                handle.write(b"\n")  # the crash cut only the newline
        return handle

    def record(self, key: str, value: object) -> None:
        """Append one completed entry (flushed and fsynced).

        Thread-safe: concurrent delivery workers append whole records in
        some order; :meth:`load` replays them into a key-value map, so the
        append order never affects what a reader sees.
        """
        line = json.dumps(
            {"key": key, "value": value}, separators=(",", ":"), sort_keys=True
        )
        with self._lock:
            if self._handle is None:
                self._handle = self._open_for_append()
            self._handle.write(line.encode("utf-8") + b"\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Journal({str(self.path)!r})"


__all__ = ["CheckpointAbort", "Journal"]
