"""One byte-budgeted store for operators that are built once and reused.

get(partition, key, build) returns the value stored under (partition, key),
built by build() on a miss, and makes every value it hands out read-only: it
freezes the arrays of a value it builds, and the base of each view, before it
returns or keeps it.  All partitions share BUDGET_BYTES: storing a value
evicts the least recently used entries, of any partition, until it fits, and
a value larger than the budget is returned but not kept.  The lock guards
only the dict operations: a build runs outside it, so a build may call get
itself, and when two threads build one key both return the value stored
first.  A lookup reorders the entries, so estimators fetch their operators on
the calling thread, never in pool tasks.  This module imports nothing from
the package, so every module that owns an operator can import it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

__all__ = ["BUDGET_BYTES", "get", "clear", "stats"]

# Criterion 3 of the acceptance suite alternates between grids of 2000 and 4000
# steps, whose inverse-transform and product matrices take 305 MiB.  A smaller
# budget rebuilds them on every pass (256 MiB: 3x slower); 384 MiB raised its peak RSS.
BUDGET_BYTES = 320 * 2 ** 20

_lock = threading.Lock()
_entries: OrderedDict = OrderedDict()  # (partition, key) -> value, least recently used first
_counts: dict = {}  # partition -> [builds, hits, evictions, bytes held]


def _arrays(value) -> list:
    """The arrays of a value: itself, those in a tuple, or an object's array attributes."""
    if isinstance(value, np.ndarray):
        return [value]
    parts = value if isinstance(value, tuple) else vars(value).values()
    return [part for part in parts if isinstance(part, np.ndarray)]


def _nbytes(value) -> int:
    """Bytes of the arrays of a value."""
    return sum(part.nbytes for part in _arrays(value))


def get(partition: str, key, build: Callable):
    """The value stored under (partition, key), built by build() on a miss."""
    entry = (partition, key)
    with _lock:
        value = _entries.get(entry)
        if value is not None:
            _entries.move_to_end(entry)
            _counts[partition][1] += 1
            return value
    value = build()
    for part in _arrays(value):  # the pool's threads share it, so nothing may change it
        part.flags.writeable = False
        if isinstance(part.base, np.ndarray):
            part.base.flags.writeable = False
    size = _nbytes(value)
    with _lock:
        counts = _counts.setdefault(partition, [0, 0, 0, 0])
        counts[0] += 1
        stored = _entries.get(entry)
        if stored is not None:  # another thread stored it first
            return stored
        if size > BUDGET_BYTES:
            return value
        while sum(c[3] for c in _counts.values()) + size > BUDGET_BYTES:
            (old, _), old_value = _entries.popitem(last=False)
            _counts[old][2] += 1
            _counts[old][3] -= _nbytes(old_value)
        _entries[entry] = value
        counts[3] += size
    return value


def clear() -> None:
    """Drop every entry and zero the counters."""
    with _lock:
        _entries.clear()
        _counts.clear()


def stats() -> dict:
    """Per partition: the builds, hits, evictions and bytes held since the last clear()."""
    with _lock:
        return {partition: dict(zip(("builds", "hits", "evictions", "bytes"), counts))
                for partition, counts in _counts.items()}
