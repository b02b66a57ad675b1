"""Output checks: every delivered cell and every search result is
compared with the digests committed under ``expected/``.

An operation is a cell, a campaign or a search.  A cell fails when it
is missing or differs from its expected digest; a campaign fails when
it is refused, raises, exits non-zero, does not finish or misses any of
its cells; a search fails when its result differs from its reference.
``error_rate`` is failed operations over attempted operations.
"""

from __future__ import annotations

import json

from common import BENCH_DIR
from plan import item_cells

EXPECTED_DIR = BENCH_DIR / "expected"


def load_cells() -> list[list[str]]:
    """``[benchmark, variant, digest]`` for every paper-grid cell."""
    return json.loads((EXPECTED_DIR / "cells.json").read_text())["cells"]


def load_searches() -> dict[str, str]:
    """Reference result digest of every tune search, by scenario."""
    return json.loads((EXPECTED_DIR / "searches.json").read_text())["searches"]


def load_spaces() -> dict[str, int]:
    """Search space size of every tune search, by scenario."""
    return json.loads((EXPECTED_DIR / "searches.json").read_text())["spaces"]


class Tally:
    """Attempted and failed operations of one run, with the first few
    failure reasons for the log."""

    def __init__(self, cells: list[list[str]], searches: dict[str, str]) -> None:
        self.cells = cells
        self.expected = {(b, v): d for b, v, d in cells}
        self.searches = searches
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def _fail(self, n: int, reason: str) -> None:
        self.failed += n
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def campaign(self, item: dict, got: "list | None", error: "str | None" = None) -> int:
        """Check one campaign's delivered ``[benchmark, variant, digest]``
        cells (``None`` when it delivered nothing); returns the number
        of verified cells."""
        wanted = item_cells(item, self.cells)
        self.attempted += 1 + len(wanted)
        delivered = {(b, v): d for b, v, d in (got or [])}
        bad = [c for c in wanted if delivered.get(c) != self.expected[c]]
        extra = set(delivered) - set(wanted)
        if error is not None or bad or extra:
            self._fail(1, error or f"{len(bad)} wrong or missing, {len(extra)} "
                       f"unexpected cell(s), e.g. {(bad or sorted(extra))[0]}")
            self.failed += len(bad)
        return len(wanted) - len(bad)

    def search(self, scenario: str, digest: "str | None", error: "str | None" = None) -> bool:
        self.attempted += 1
        if error is not None or digest != self.searches.get(scenario):
            self._fail(1, error or f"search {scenario} differs from its reference")
            return False
        return True

    def failure(self, reason: str) -> None:
        """One failed operation outside any campaign or search: a
        program that did not start, exited non-zero or whose traced
        pass differs from its untraced twin."""
        self.attempted += 1
        self._fail(1, reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
