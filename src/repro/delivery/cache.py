"""Content-addressed response cache for chat completions.

Completions are the expensive unit of the ICL protocol (a real API charges
per token; even the simulators dominate benchmark time once latency is
modelled), and they are *pure*: a completion is a function of ``(model,
prompt, repeat-index)`` — the repeat index covers the protocol's
deliberate repeated deliveries of one prompt.  That makes them cacheable
under exactly that key:
``stable_digest("llm-response", model, stable_digest(prompt), repeat)``
(hashing the prompt first keeps keys short for arbitrary prompt text).

The cache is a directory of :class:`~repro.resilience.checkpoint.Journal`
segments, ``<store-root>/llm-response/*.jsonl``, one ``{"key", "value"}``
record per completion, each fsynced as it is appended.  Opening the cache
reads every segment into memory (a torn tail ends its segment), so ``get``
is a dict lookup.  An instance's first
``put`` creates that instance's own segment: the engine's threads share its
locked journal, and two processes never append to one file.  Because
completions are pure, a key cached in two segments holds the same text in
both, so the merge order never matters.

Segments are not store entries: ``repro cache ls/gc/invalidate`` neither
list nor remove them.  To clear the cache, delete the ``llm-response``
directory.

Only *successful* completions are cached — a failed delivery must be
re-attempted on the next run, never replayed from disk.

The cache is also the ICL protocol's only resume record: every completion
is fsynced as it lands, so a run killed mid-table (or stopped by
``--max-deliveries``) and rerun over the same directory serves what it
already delivered as hits and delivers only the remainder.
"""

from __future__ import annotations

import os
import tempfile
import threading
from pathlib import Path
from typing import Dict, Optional, Union

from repro.obs.trace import get_tracer
from repro.pipeline.store import ArtifactStore
from repro.resilience.checkpoint import Journal
from repro.utils.rng import stable_digest

PathLike = Union[str, Path]

#: The key namespace, and the store subdirectory holding the segments.
_NAMESPACE = "llm-response"


class ResponseCache:
    """Completion cache keyed by ``(model, prompt-hash, repeat)``."""

    def __init__(self, store: Union[ArtifactStore, PathLike]):
        root = store.root if isinstance(store, ArtifactStore) else Path(store)
        self.directory = root / _NAMESPACE
        self._entries: Dict[str, object] = {}
        for segment in sorted(self.directory.glob("*.jsonl")):
            self._entries.update(Journal(segment).load())
        self._segment: Optional[Journal] = None
        self._lock = threading.Lock()

    @staticmethod
    def key(model: str, prompt: str, repeat: int) -> str:
        """The content address of one completion."""
        return stable_digest(
            _NAMESPACE, model, stable_digest(prompt), int(repeat)
        )

    def get(self, model: str, prompt: str, repeat: int) -> Optional[str]:
        """The cached completion text, or ``None`` on a miss."""
        key = self.key(model, prompt, repeat)
        if key not in self._entries:
            return None
        text = self._entries[key]
        if not isinstance(text, str):
            # A mangled record is a miss, not a crash — but never silently:
            # the rebuild cost shows up in the counters.
            get_tracer().count("delivery.cache_corrupt")
            return None
        return text

    def put(self, model: str, prompt: str, repeat: int, text: str) -> None:
        """Persist one successful completion (appended and fsynced)."""
        with self._lock:
            if self._segment is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                fd, name = tempfile.mkstemp(
                    dir=self.directory, suffix=".jsonl"
                )
                os.close(fd)
                self._segment = Journal(name)
        key = self.key(model, prompt, repeat)
        self._segment.record(key, text)
        self._entries[key] = text

    def close(self) -> None:
        """Close this instance's segment, if it opened one."""
        if self._segment is not None:
            self._segment.close()

    def __enter__(self) -> "ResponseCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ResponseCache"]
