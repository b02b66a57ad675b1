"""Prometheus exposition of the service scheduler's state.

:func:`repro.telemetry.promexport.render_prometheus` attaches one
global label set to every sample, which is right for the engine's
single-campaign shard labels but wrong here: the service's per-tenant
gauges need *multiple labelled samples under one HELP/TYPE block*
(emitting one block per tenant would produce duplicate ``TYPE`` lines,
which :func:`~repro.telemetry.promexport.validate_exposition` rightly
rejects).  So the service renders its own families — reusing the
exporter's name/escape helpers so the output stays in the same
``a64fx_*`` namespace and passes the same conformance checker CI
scrapes through.
"""

from __future__ import annotations

from repro.telemetry.promexport import (
    _escape_label,
    _format_value,
    metric_name,
)

#: HELP text per service family (unlabelled counters/gauges).
_SERVICE_HELP = {
    "service.cells_executed": "Cells executed by the service pool (one per unique in-flight fingerprint).",
    "service.cells_deduped": "Cells satisfied by fanning in on another campaign's in-flight execution.",
    "service.cells_cached": "Cells satisfied from the content-addressed cell cache.",
    "service.kernel_batches": "Benchmark-major batches dispatched (kernels compiled at most once per batch).",
    "service.pool_tasks": "Tasks handed to the worker pool (0 for fully-cached campaigns).",
    "service.campaigns_accepted": "Campaign submissions accepted.",
    "service.campaigns_finished": "Campaigns that reached the finished state.",
    "service.campaigns_failed": "Campaigns that degraded to the failed state.",
    "service.campaigns_cancelled": "Campaigns cancelled by a client.",
}

_COUNTER_NAMES = tuple(_SERVICE_HELP)

#: Per-tenant gauge families: (key in tenant_gauges(), help text).
_TENANT_GAUGES = (
    ("queued_cells", "Cells accepted but not yet completed, by tenant."),
    ("running_cells", "Cells currently dispatched to the pool, by tenant."),
    ("deduped_cells", "Cells deduped against other campaigns, by tenant."),
    ("executed_cells", "Cells executed on behalf of this tenant."),
    ("campaigns", "Campaigns submitted by this tenant."),
)


def render_service_metrics(scheduler) -> str:
    """The ``GET /metrics`` document for a
    :class:`~repro.service.scheduler.CampaignScheduler`."""
    lines: list[str] = []

    for name in _COUNTER_NAMES:
        key = name.split(".", 1)[1]
        out = metric_name(name, "counter")
        lines.append(f"# HELP {out} {_SERVICE_HELP[name]}")
        lines.append(f"# TYPE {out} counter")
        lines.append(f"{out} {_format_value(scheduler.counters[key])}")

    gauges = {
        "service.campaigns_active": (
            "Campaigns currently queued or running.",
            sum(1 for c in scheduler.campaigns.values() if not c.finished),
        ),
        "service.inflight_cells": (
            "Unique cell fingerprints currently executing.",
            len(scheduler._inflight),
        ),
        "service.pool_created": (
            "1 once the worker pool exists (0 while every campaign has "
            "been answered from caches).",
            1 if scheduler.pool_created else 0,
        ),
        "service.workers": (
            "Worker processes the pool is configured for.",
            scheduler.workers,
        ),
    }
    for name, (help_text, value) in gauges.items():
        out = metric_name(name, "gauge")
        lines.append(f"# HELP {out} {help_text}")
        lines.append(f"# TYPE {out} gauge")
        lines.append(f"{out} {_format_value(value)}")

    tenants = scheduler.tenant_gauges()
    for key, help_text in _TENANT_GAUGES:
        out = metric_name(f"service.tenant.{key}", "gauge")
        lines.append(f"# HELP {out} {help_text}")
        lines.append(f"# TYPE {out} gauge")
        for tenant in sorted(tenants):
            value = tenants[tenant].get(key, 0)
            lines.append(
                f'{out}{{tenant="{_escape_label(tenant)}"}} '
                f"{_format_value(value)}"
            )

    return "\n".join(lines) + "\n"
