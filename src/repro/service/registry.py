"""The persisted campaign registry: what the service has accepted.

One JSON document (``campaigns.json``) mapping campaign id to its
submission, lifecycle state, and summary stats.  Every accepted
campaign is registered *before* its first cell runs, and every state
transition is persisted through an atomic temp-file + ``os.replace``
write — the same contract as the engine's cell cache — so a service
killed at any instant restarts with a registry that is either the old
document or the new one, never a torn half-write.

On restart the service replays the registry: campaigns whose state is
``queued`` or ``running`` are resubmitted with their original spec and
rerun, and every cell they finished before the restart is answered
from the shared ``cells/`` cache.
"""

from __future__ import annotations

import json
import logging
import threading
from pathlib import Path

from repro import telemetry
from repro.atomicio import atomic_write

_LOG = logging.getLogger(__name__)

#: Bumped when the registry document shape changes incompatibly.
REGISTRY_VERSION = 1

#: Campaign lifecycle states.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_FINISHED = "finished"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"

#: States a restart must pick back up.
RESUMABLE_STATES = (STATE_QUEUED, STATE_RUNNING)


class ServiceRegistry:
    """Atomic JSON persistence of accepted campaigns."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self._loaded = False

    # -- reading ---------------------------------------------------------

    def load(self) -> dict[str, dict]:
        """Entries by campaign id (reads the file once, then caches)."""
        with self._lock:
            if not self._loaded:
                self._entries = self._read()
                self._loaded = True
            return {k: dict(v) for k, v in self._entries.items()}

    def _read(self) -> dict[str, dict]:
        try:
            doc = json.loads(self.path.read_text())
        except OSError:
            return {}
        except ValueError:
            # A torn write is impossible by construction; a corrupt file
            # means something else scribbled over it.  Refusing to start
            # would brick the service on one bad byte — start fresh and
            # say so loudly instead.
            _LOG.warning("corrupt service registry %s; starting fresh",
                         self.path)
            telemetry.count("service.registry.corrupt")
            return {}
        entries = doc.get("campaigns", {})
        if not isinstance(entries, dict):
            return {}
        return {str(k): dict(v) for k, v in entries.items()}

    def resumable(self) -> dict[str, dict]:
        """Entries a restarted service must resume, in accept order."""
        return {
            cid: entry
            for cid, entry in self.load().items()
            if entry.get("state") in RESUMABLE_STATES
        }

    # -- writing ---------------------------------------------------------

    def upsert(self, campaign_id: str, entry: dict) -> None:
        """Insert or update one campaign entry and persist atomically."""
        with self._lock:
            if not self._loaded:
                self._entries = self._read()
                self._loaded = True
            self._entries[campaign_id] = dict(entry)
            self._flush()

    def _flush(self) -> None:
        doc = {
            "version": REGISTRY_VERSION,
            "campaigns": self._entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # The registry on disk is always a complete document; a failed
        # write is counted rather than raised — the in-memory registry
        # stays authoritative for the running service.
        try:
            atomic_write(self.path, json.dumps(doc, indent=2) + "\n")
        except OSError as exc:
            _LOG.warning("atomic registry write to %s failed: %s", self.path, exc)
            telemetry.count("service.registry.write_error")
        else:
            telemetry.count("service.registry.write")
