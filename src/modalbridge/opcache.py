"""Bounded, thread-safe stores for operators that are built once and reused.

Each store maps a key such as (H, T, n) to an operator built on the first
request; a full store drops its oldest entry.  The lock guards only the dict
operations: a build runs outside it, so a slow build never blocks lookups, and
when two threads build the same key at once both return the value stored
first.  This module imports nothing from the package, so every module that
owns a cache can import it.
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = ["OperatorCache"]


class OperatorCache:
    """FIFO-bounded map from key to a lazily built value."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._items: dict = {}
        self._lock = threading.Lock()

    def get(self, key, build: Callable):
        """The value stored under key, built by build() on a miss."""
        with self._lock:
            value = self._items.get(key)
        if value is not None:
            return value
        value = build()
        with self._lock:
            stored = self._items.get(key)
            if stored is not None:
                return stored
            if len(self._items) >= self.capacity:
                del self._items[next(iter(self._items))]
            self._items[key] = value
        return value

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    def __len__(self) -> int:
        return len(self._items)
