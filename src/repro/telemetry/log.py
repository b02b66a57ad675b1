"""Structured JSONL logging with correlation context.

The engine's lifecycle output used to be ad-hoc prints and bare
``logging`` warnings — fine for a terminal, useless for joining the
events of a 540-cell sweep sharded across nodes.  This module gives the
harness one structured log stream:

* A :class:`StructuredLogger` buffers records (plain JSON-able dicts)
  and optionally appends them to a JSONL file, one object per line,
  flushed per record so a killed run keeps everything already logged.
* **Correlation context** — campaign fingerprint, shard ``i/N``, cell
  ``benchmark/variant``, retry attempt — is pushed with
  :func:`context` and merged into every record logged inside the
  ``with`` block, so ``grep``-ing the file for a cell id returns that
  cell's entire lifecycle across processes.
* Worker processes buffer into their own logger and ship
  :meth:`StructuredLogger.snapshot` back through the process pool; the
  parent :meth:`StructuredLogger.merge` s the records — the same
  transport discipline spans use.

Like the rest of :mod:`repro.telemetry`, logging is strictly opt-in:
:func:`log_event` and :func:`context` cost one module-global load and a
``None`` check when no logger is installed.

File-write failures follow the cache-write contract: never raised,
never silent — the failure is logged once through stdlib ``logging``
and counted as ``log.write_error`` on the active telemetry.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path

from repro.atomicio import open_append

_STDLIB = logging.getLogger(__name__)

#: Record keys reserved for the logger itself; context/fields with the
#: same names are namespaced under ``ctx.``/``field.`` rather than
#: clobbering them.
_RESERVED = ("t", "pid", "level", "event")


class _Context(threading.local):
    """Per-thread stack of correlation-context dicts."""

    def __init__(self) -> None:
        self.stack: list[dict] = []


_CTX = _Context()


def current_context() -> dict:
    """The merged correlation context of the calling thread."""
    merged: dict = {}
    for frame in _CTX.stack:
        merged.update(frame)
    return merged


class _ContextScope:
    """Re-usable ``with`` scope pushing one context frame."""

    __slots__ = ("_frame",)

    def __init__(self, frame: dict) -> None:
        self._frame = frame

    def __enter__(self) -> "_ContextScope":
        _CTX.stack.append(self._frame)
        return self

    def __exit__(self, *exc: object) -> bool:
        if _CTX.stack and _CTX.stack[-1] is self._frame:
            _CTX.stack.pop()
        return False


class _NoopScope:
    """Shared no-op scope when logging is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopScope":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP_SCOPE = _NoopScope()


def context(**fields: object):
    """Scope correlation fields over a ``with`` block.

    No-op (a shared, allocation-free scope) while no logger is active,
    so hot paths may push cell/attempt context unconditionally.
    """
    if _ACTIVE is None:
        return _NOOP_SCOPE
    return _ContextScope(dict(fields))


class StructuredLogger:
    """Buffers structured records; optionally appends them to a JSONL file.

    ``path=None`` buffers only (the worker-process configuration: the
    records travel back through the pool snapshot).  With a path, every
    record is appended as one JSON line and flushed immediately.
    """

    def __init__(self, path: "str | Path | None" = None) -> None:
        self.path = Path(path) if path is not None else None
        self.write_errors = 0
        self._records: list[dict] = []
        self._lock = threading.Lock()
        self._fh = None
        self._write_failed_logged = False

    # -- recording -------------------------------------------------------

    def log(self, event: str, level: str = "info", **fields: object) -> dict:
        """Record one structured event (returns the record)."""
        record: dict = {
            "t": round(time.time(), 6),
            "pid": os.getpid(),
            "level": level,
            "event": event,
        }
        for key, value in current_context().items():
            record[f"ctx.{key}" if key in _RESERVED else key] = value
        for key, value in fields.items():
            record[f"field.{key}" if key in _RESERVED else key] = value
        self._append(record)
        return record

    def _append(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)
            self._write_line(record)

    def _write_line(self, record: dict) -> None:
        if self.path is None:
            return
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open_append(self.path)
            self._fh.write(json.dumps(record, default=str) + "\n")
            self._fh.flush()
        except OSError as exc:
            # Mirror the cache-write contract: log once, count, carry on
            # (the record stays in the in-memory buffer either way).
            self.write_errors += 1
            if not self._write_failed_logged:
                self._write_failed_logged = True
                _STDLIB.warning("structured log write to %s failed: %s",
                                self.path, exc)
            from repro import telemetry

            telemetry.count("log.write_error")

    # -- access / transport ----------------------------------------------

    @property
    def records(self) -> tuple[dict, ...]:
        """All records logged (or merged) so far, in arrival order."""
        with self._lock:
            return tuple(self._records)

    def snapshot(self) -> list[dict]:
        """JSON-able copy of the buffer (worker → parent transport)."""
        with self._lock:
            return [dict(r) for r in self._records]

    def merge(self, records: "list[dict] | tuple[dict, ...]") -> None:
        """Fold records logged elsewhere (typically a pool worker) in,
        writing them through to this logger's file."""
        for record in records:
            self._append(dict(record))

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None


# -- the active logger (None = disabled, the default) ----------------------

_ACTIVE: "StructuredLogger | None" = None


def active_logger() -> "StructuredLogger | None":
    """The logger :func:`log_event` currently records into, if any."""
    return _ACTIVE


def activate_logger(logger: "StructuredLogger | None") -> "StructuredLogger | None":
    """Install ``logger`` as current; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = logger
    return previous


class _LoggerScope:
    """``with`` scope installing (and restoring) the active logger."""

    __slots__ = ("_logger", "_previous")

    def __init__(self, logger: "StructuredLogger | None") -> None:
        self._logger = logger
        self._previous: "StructuredLogger | None" = None

    def __enter__(self) -> "StructuredLogger | None":
        if self._logger is not None:
            self._previous = activate_logger(self._logger)
        return self._logger

    def __exit__(self, *exc: object) -> bool:
        if self._logger is not None:
            activate_logger(self._previous)
        return False


def logging_active(logger: "StructuredLogger | None") -> _LoggerScope:
    """Scope ``logger`` as current for a ``with`` block.

    ``logging_active(None)`` is a no-op scope, mirroring
    :func:`repro.telemetry.active`.
    """
    return _LoggerScope(logger)


def log_event(event: str, level: str = "info", **fields: object) -> None:
    """Log a structured event on the active logger; no-op when disabled."""
    if _ACTIVE is None:
        return
    _ACTIVE.log(event, level=level, **fields)
    from repro import telemetry

    telemetry.count("log.records")
