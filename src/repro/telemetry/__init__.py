"""Campaign observability: structured tracing, metrics, flight recorder.

One :class:`Telemetry` object bundles a span :class:`~repro.telemetry.spans.Tracer`
and a :class:`~repro.telemetry.metrics.MetricsRegistry` for one campaign.
The harness is instrumented through the *module-level* helpers —
:func:`span`, :func:`count`, :func:`observe`, :func:`set_gauge` — which
dispatch to the currently :func:`active` telemetry, or do nothing at
all when none is installed.  Telemetry is therefore strictly opt-in:
the default campaign path executes one global load and a ``None`` check
per instrumentation point.

Quickstart::

    from repro import telemetry
    from repro.api import CampaignConfig, CampaignSession

    session = CampaignSession(CampaignConfig(workers=4, telemetry=True))
    session.run()
    telemetry.write_chrome_trace("trace.json", session.telemetry)
    print(telemetry.render_flight_report(
        telemetry.flight_report(session.telemetry.spans,
                                session.telemetry.metrics.snapshot())))

Worker processes record into their own :class:`Telemetry` and ship a
:meth:`Telemetry.snapshot` back through the process pool; the parent
:meth:`Telemetry.merge` s it under the campaign root span.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro import _lazy_exports
from repro.telemetry.export import (
    chrome_trace,
    load_trace,
    spans_to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.log import (
    StructuredLogger,
    active_logger,
    context,
    log_event,
    logging_active,
)
from repro.telemetry.metrics import (
    TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.recorder import (
    SPAN_CAMPAIGN,
    SPAN_CELL,
    SPAN_LINT,
    SPAN_TUNE,
    SPAN_TUNE_RUNG,
    FlightReport,
    PhaseStat,
    flight_report,
    flight_report_from_file,
    render_flight_report,
    telemetry_block,
)
from repro.telemetry.spans import Span, Tracer

__all__ = [
    "CampaignHistory",
    "Counter",
    "FlightReport",
    "Gauge",
    "Histogram",
    "HistorySample",
    "HistoryStore",
    "MergedHistory",
    "MetricsRegistry",
    "ObservatoryServer",
    "PhaseStat",
    "SPAN_CAMPAIGN",
    "SPAN_CELL",
    "SPAN_LINT",
    "SPAN_TUNE",
    "SPAN_TUNE_RUNG",
    "Span",
    "StructuredLogger",
    "TIME_BUCKETS_S",
    "Telemetry",
    "Tracer",
    "activate",
    "active",
    "active_logger",
    "chrome_trace",
    "context",
    "count",
    "current",
    "flight_report",
    "flight_report_from_file",
    "history_file_name",
    "load_trace",
    "log_event",
    "logging_active",
    "merge_history",
    "observe",
    "render_flight_report",
    "render_prometheus",
    "set_gauge",
    "span",
    "spans_to_jsonl",
    "telemetry_block",
    "validate_chrome_trace",
    "validate_exposition",
    "write_chrome_trace",
    "write_jsonl",
]

__getattr__ = _lazy_exports(__name__, {
    "repro.telemetry.history": (
        "CampaignHistory",
        "HistorySample",
        "HistoryStore",
        "MergedHistory",
        "history_file_name",
        "merge_history",
    ),
    "repro.telemetry.httpd": ("ObservatoryServer",),
    "repro.telemetry.promexport": ("render_prometheus", "validate_exposition"),
})


class Telemetry:
    """One campaign's tracer + metrics registry."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    # -- recording -------------------------------------------------------

    def span(self, name: str, **attrs: object):
        """Context manager timing one region (see :meth:`Tracer.span`)."""
        return self.tracer.span(name, **attrs)

    def count(self, name: str, n: float = 1) -> None:
        self.metrics.inc(name, n)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.set(name, value)

    @property
    def spans(self) -> tuple[Span, ...]:
        return self.tracer.spans

    # -- process-boundary transport --------------------------------------

    def snapshot(self) -> dict:
        """JSON-able dump of everything recorded so far (worker → parent)."""
        return {
            "spans": [s.to_dict() for s in self.tracer.spans],
            "metrics": self.metrics.snapshot(),
        }

    def merge(self, snapshot: dict, parent: "Span | None" = None) -> None:
        """Fold a worker snapshot in; orphan spans nest under ``parent``."""
        self.tracer.adopt(
            [Span.from_dict(d) for d in snapshot.get("spans", ())], parent=parent
        )
        self.metrics.merge(snapshot.get("metrics", {}))


# -- the active telemetry (None = disabled, the default) ------------------

_CURRENT: "Telemetry | None" = None


def current() -> "Telemetry | None":
    """The telemetry instrumentation currently records into, if any."""
    return _CURRENT


def activate(telemetry: "Telemetry | None") -> "Telemetry | None":
    """Install ``telemetry`` as current; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry
    return previous


@contextmanager
def active(telemetry: "Telemetry | None"):
    """Scope ``telemetry`` as current for a ``with`` block.

    ``active(None)`` is a no-op scope (telemetry stays disabled), which
    lets callers write one unconditional ``with`` statement.
    """
    previous = activate(telemetry) if telemetry is not None else None
    try:
        yield telemetry
    finally:
        if telemetry is not None:
            activate(previous)


class _NoopSpan:
    """Reusable, re-entrant stand-in when telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs: object):
    """Open a span on the active telemetry; no-op when disabled."""
    if _CURRENT is None:
        return _NOOP_SPAN
    return _CURRENT.tracer.span(name, **attrs)


def count(name: str, n: float = 1) -> None:
    """Bump a counter on the active telemetry; no-op when disabled."""
    if _CURRENT is not None:
        _CURRENT.metrics.inc(name, n)


def observe(name: str, value: float) -> None:
    """Record a histogram observation; no-op when disabled."""
    if _CURRENT is not None:
        _CURRENT.metrics.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active telemetry; no-op when disabled."""
    if _CURRENT is not None:
        _CURRENT.metrics.set(name, value)
