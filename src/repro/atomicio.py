"""Crash-safe file writes: the one temp-file + ``os.replace`` write, and
the one append-open of a JSONL file a killed writer may have torn.

A leaf module (it imports nothing from :mod:`repro`), so every layer —
journals, metrics histories, structured logs, the service registry —
can share it.  It raises; each caller keeps its own error
policy (raise, or log, count and carry on).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import TextIO


def atomic_write(path: "str | Path", data: "str | bytes") -> None:
    """Replace ``path`` with ``data``: readers see the old file or the
    new one, never a torn write.

    The temp file lives beside ``path`` (``os.replace`` must not cross
    file systems) and is removed on every path, including a failed
    ``os.replace``.  Raises :class:`OSError` when the write fails.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass  # the success path already renamed it away


def open_append(path: "str | Path") -> TextIO:
    """Open the line file ``path`` for appending text, first ending a
    torn last line (a writer killed mid-line) so that the next line
    starts fresh instead of extending the garbage.

    Raises :class:`OSError` when the file cannot be opened.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            torn = fh.read(1) != b"\n"
    except OSError:  # missing or empty: nothing to repair
        torn = False
    out = open(path, "a")
    if torn:
        try:
            out.write("\n")
            out.flush()
        except OSError:
            out.close()
            raise
    return out
