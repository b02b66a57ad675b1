"""Atomic file replacement: the one temp-file + ``os.replace`` write.

A leaf module (it imports nothing from :mod:`repro`), so every layer —
the kernel and cell caches, journals, metrics histories, the service
registry — can share it.  It raises; each caller keeps its own error
policy (raise, or log, count and carry on).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


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
