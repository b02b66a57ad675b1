"""The cache layer: one on-disk content store and one in-process
identity memo, for every cache of the reproduction.

A cache entry is only ever a shortcut — its value can always be
derived again — so no cache failure is raised to the caller.
"""

from __future__ import annotations

import logging
import pickle
from collections import OrderedDict
from collections.abc import Callable, Hashable
from pathlib import Path
from typing import Generic, TypeVar

from repro import telemetry
from repro.atomicio import atomic_write
from repro.errors import ReproError

_LOG = logging.getLogger(__name__)

T = TypeVar("T")

#: What a decoder may raise on an entry that is not what it wrote:
#: truncated or garbled JSON and pickles, missing fields, stale classes.
_DECODE_ERRORS = (
    ValueError, LookupError, TypeError, AttributeError, EOFError,
    ImportError, pickle.UnpicklingError, ReproError,
)


class ContentStore:
    """One file per content key, ``<root>/<key><suffix>``; the kernel,
    cell and lint caches are codecs over it.

    A missing entry is a miss.  An entry that does not decode is a miss
    too: it is deleted, logged and counted as ``<name>.corrupt``.
    Writes are atomic; a failed one is logged and counted as
    ``<name>.write_error``, never raised.
    """

    def __init__(self, root: "str | Path", name: str, suffix: str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.suffix = suffix

    def path(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def get(self, key: str, decode: Callable[[bytes], T]) -> "T | None":
        """The decoded entry for ``key``, or ``None`` on a miss."""
        path = self.path(key)
        try:
            data = path.read_bytes()
        except OSError:
            telemetry.count(f"{self.name}.miss")
            return None
        try:
            value = decode(data)
        except _DECODE_ERRORS:
            telemetry.count(f"{self.name}.miss")
            telemetry.count(f"{self.name}.corrupt")
            _LOG.warning("corrupt %s entry %s; dropping it", self.name, path.name)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        telemetry.count(f"{self.name}.hit")
        return value

    def put(self, key: str, data: "str | bytes") -> bool:
        """Store ``data`` under ``key``; ``False`` when the write failed."""
        path = self.path(key)
        try:
            atomic_write(path, data)
        except OSError as exc:
            _LOG.warning("%s: atomic write to %s failed: %s", self.name, path, exc)
            telemetry.count(f"{self.name}.write_error")
            return False
        telemetry.count(f"{self.name}.put")
        return True


class IdentityMemo(Generic[T]):
    """A bounded LRU keyed on ``id(obj)`` plus extra key parts.

    Each entry pins ``obj``, so its id cannot be reused while the entry
    lives.  Past ``maxsize`` entries the least recently used is evicted,
    so a process that keeps seeing fresh objects (a pool worker
    unpickling every chunk) holds at most ``maxsize`` of them.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, tuple[object, T]]" = OrderedDict()

    def get(self, obj: object, *parts: Hashable) -> "T | None":
        """The value memoized for ``(obj, *parts)``, or ``None``."""
        key = (id(obj), *parts)
        entry = self._entries.get(key)
        if entry is None or entry[0] is not obj:
            return None
        self._entries.move_to_end(key)
        return entry[1]

    def put(self, obj: object, *parts: Hashable, value: T) -> T:
        """Memoize ``value`` for ``(obj, *parts)``; returns ``value``."""
        key = (id(obj), *parts)
        self._entries[key] = (obj, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
