"""Mmap-aware numpy array persistence for store artifacts.

Large read-mostly matrices (embedding tables, co-occurrence shards) used to
round-trip through compressed ``.npz`` archives, which forces a full
decompress-and-copy on every load.  This module writes each array as a
standalone uncompressed ``.npy`` file (through
:func:`~repro.utils.atomic.atomic_write`: fsynced tmp + rename, matching the
store's entry discipline) and loads it through ``np.load`` with an explicit
``mmap_mode``:

* arrays of at least :data:`MMAP_MIN_BYTES` are mapped read-only — the OS
  pages them in lazily and shares pages between processes;
* smaller arrays are plainly read — mapping them costs more in syscalls
  than the copy saves.

Loads are attributed like other store I/O: the enclosing span (if any)
carries accumulated ``store.bytes_mapped`` / ``store.bytes_copied`` gauges,
and the process-wide tracer counts the same totals.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.obs.trace import get_tracer
from repro.utils.atomic import atomic_write

PathLike = Union[str, Path]

#: Arrays at least this large (in bytes, on disk) are memory-mapped.
MMAP_MIN_BYTES = 1 << 20


def save_array(path: PathLike, array: np.ndarray) -> None:
    """Atomically write ``array`` as an uncompressed ``.npy`` file.

    Uncompressed on purpose: compressed archives cannot be memory-mapped,
    and the store's artifacts are already cheap to regenerate relative to
    their read frequency.
    """
    with atomic_write(path, "wb") as handle:
        np.save(handle, np.ascontiguousarray(array))


def _attribute_load(n_bytes: int, mapped: bool) -> None:
    kind = "mapped" if mapped else "copied"
    tracer = get_tracer()
    current = tracer.current_span()
    if current is not None:
        # Span gauges overwrite; accumulate so one span covering several
        # array loads reports its total bytes in each mode.
        name = f"store.bytes_{kind}"
        current.gauge(name, current.gauges.get(name, 0) + n_bytes)
    tracer.count(f"store.bytes_{kind}", n_bytes)


def load_array(path: PathLike) -> np.ndarray:
    """Load a ``.npy`` array, memory-mapping it when it is large enough.

    Callers that mutate the result must copy it first; mapped arrays are
    opened read-only.
    """
    path = Path(path)
    n_bytes = path.stat().st_size
    use_mmap = n_bytes >= MMAP_MIN_BYTES
    array = np.load(path, mmap_mode="r" if use_mmap else None)
    _attribute_load(n_bytes, use_mmap)
    return array


__all__ = [
    "MMAP_MIN_BYTES",
    "save_array",
    "load_array",
]
