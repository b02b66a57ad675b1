"""The cache layer: one on-disk content store and one in-process
identity memo, for every cache of the reproduction.

A cache entry is only ever a shortcut — its value can always be
derived again — so no cache failure is raised to the caller.
"""

from __future__ import annotations

import logging
import os
import weakref
from collections import OrderedDict
from collections.abc import Callable, Hashable
from pathlib import Path
from typing import BinaryIO, Generic, TypeVar

from repro import telemetry
from repro.errors import ReproError

_LOG = logging.getLogger(__name__)

T = TypeVar("T")

#: What a decoder may raise on an entry that is not what it wrote:
#: torn or garbled JSON, missing fields, out-of-range values.
_DECODE_ERRORS = (ValueError, LookupError, TypeError, AttributeError, ReproError)

#: The segment files of a :class:`ContentStore` directory.
SEGMENT_GLOB = "segment-*.tsv"


class ContentStore:
    """Content-keyed text entries, packed into append-only segments;
    the cell cache is a codec over it.

    Each store object appends to a segment of its own,
    ``<root>/segment-<pid>-<token>.tsv``, one ``<key>\\t<data>`` line
    per entry, flushed as it is written, so concurrent writers (shards,
    a killed run and the run that reruns it) never share a file.
    A reader indexes every segment on its first lookup by splitting
    lines, without decoding them, and decodes only the entries asked for.

    A missing entry is a miss.  An entry that does not decode, a killed
    writer's torn last line included, is a miss too: it is dropped from
    the index, logged and counted as ``<name>.corrupt``.  A failed
    append is logged and counted as ``<name>.write_error``, never raised.
    """

    def __init__(self, root: "str | Path", name: str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.name = name
        #: Undecoded entries by key, read on the first lookup.
        self._index: "dict[str, bytes] | None" = None
        self._segment: "BinaryIO | None" = None

    def get(self, key: str, decode: Callable[[bytes], T]) -> "T | None":
        """The decoded entry for ``key``, or ``None`` on a miss."""
        if self._index is None:
            self._index = self._read_index()
        data = self._index.get(key)
        if data is None:
            telemetry.count(f"{self.name}.miss")
            return None
        try:
            value = decode(data)
        except _DECODE_ERRORS:
            del self._index[key]
            telemetry.count(f"{self.name}.miss")
            telemetry.count(f"{self.name}.corrupt")
            _LOG.warning("corrupt %s entry %s; dropping it", self.name, key)
            return None
        telemetry.count(f"{self.name}.hit")
        return value

    def put(self, key: str, data: str) -> bool:
        """Append ``data``, one line of text, under ``key``; ``False``
        when the write failed."""
        encoded = data.encode()
        try:
            if self._segment is None:
                self._segment = self._open_segment()
            self._segment.write(b"%s\t%s\n" % (key.encode(), encoded))
            self._segment.flush()
        except OSError as exc:
            _LOG.warning("%s: append to %s failed: %s", self.name, self.root, exc)
            telemetry.count(f"{self.name}.write_error")
            self._drop_segment()  # the next put starts past any torn line
            return False
        if self._index is not None:
            self._index[key] = encoded
        telemetry.count(f"{self.name}.put")
        return True

    def _open_segment(self) -> BinaryIO:
        path = self.root / f"segment-{os.getpid()}-{os.urandom(4).hex()}.tsv"
        segment = open(path, "xb")
        weakref.finalize(self, segment.close)
        return segment

    def _drop_segment(self) -> None:
        segment, self._segment = self._segment, None
        if segment is not None:
            try:
                segment.close()
            except OSError:
                pass  # the unwritten tail is lost with the segment

    def _read_index(self) -> "dict[str, bytes]":
        index: dict[str, bytes] = {}
        for segment in sorted(self.root.glob(SEGMENT_GLOB)):
            try:
                data = segment.read_bytes()
            except OSError:
                continue
            for line in data.split(b"\n"):
                key, tab, value = line.partition(b"\t")
                if tab:
                    index[key.decode("ascii", "replace")] = value
        return index


class IdentityMemo(Generic[T]):
    """A bounded LRU keyed on ``id(obj)`` plus extra key parts.

    Each entry pins ``obj``, so its id cannot be reused while the entry
    lives.  Past ``maxsize`` entries the least recently used is evicted,
    so a process that keeps seeing fresh objects (a pool worker running
    benchmarks that travel by value) holds at most ``maxsize`` of them.
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
