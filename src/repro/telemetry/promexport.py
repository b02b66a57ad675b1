"""Prometheus text-exposition rendering of a :class:`MetricsRegistry`.

Renders the registry (or a registry *snapshot* — the JSON-able dict the
worker pool already ships around) in Prometheus text format 0.0.4, the
wire format every scraper understands:

* counters gain the conventional ``_total`` suffix,
* histograms expand into cumulative ``_bucket{le="..."}`` series plus
  ``_sum``/``_count``,
* metric names are sanitized into the ``[a-zA-Z_:][a-zA-Z0-9_:]*``
  alphabet (our dotted names — ``engine.cells_executed`` — become
  underscore-joined under a common namespace prefix),
* ``HELP`` text and label values are escaped per the spec.

:func:`validate_exposition` is the conformance checker CI scrapes
through: it re-parses the rendered text and verifies name validity,
``HELP``/``TYPE`` placement, cumulative-bucket monotonicity, the
``+Inf`` bucket, and ``_count`` agreement.  No third-party client
library — the format is simple and the stdlib is a hard requirement.
"""

from __future__ import annotations

import math
import re

from repro.telemetry.metrics import MetricsRegistry

#: Prefix applied to every exported metric name.
NAMESPACE = "a64fx"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: HELP strings for well-known instruments; everything else gets a
#: generic line naming the source instrument.
_HELP = {
    "engine.cells_executed": "Cells executed (cache misses) by the campaign engine.",
    "cell_cache.hit": "Cells satisfied from the content-addressed cell cache.",
    "engine.cell_retries": "Cell attempts retried after a transient fault.",
    "engine.cell_timeouts": "Cell attempts cancelled by the per-cell wall-clock budget.",
    "engine.progress.completed": "Cells completed so far (executed + cached + lint-skipped).",
    "engine.progress.total": "Cells this engine invocation is responsible for.",
    "engine.workers": "Worker processes configured for the campaign.",
    "engine.throughput_cps": "Completed cells per second of campaign wall-clock.",
    "engine.eta_s": "Estimated seconds until the remaining cells complete.",
    "engine.cache_hit_rate": "Cache hits over cache hits + executed cells so far.",
    "runner.cells": "Cells measured by the runner.",
    "runner.perf_runs": "Performance-model evaluations performed.",
    "runner.failed_cells": "Cells that ended in a failure status.",
    "log.records": "Structured log records captured.",
    "log.write_error": "Structured log lines that failed to reach disk.",
    "history.samples": "Metrics history samples appended.",
    "history.write_error": "Metrics history samples that failed to reach disk.",
}


def metric_name(name: str, kind: str = "gauge") -> str:
    """Prometheus-legal exported name for instrument ``name``."""
    flat = _SANITIZE.sub("_", name)
    out = f"{NAMESPACE}_{flat}"
    if kind == "counter" and not out.endswith("_total"):
        out += "_total"
    return out


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels(labels: "dict[str, str] | None") -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"'
                     for k, v in labels.items())
    return "{" + inner + "}"


def _le_value(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else _format_value(bound)


def render_prometheus(
    metrics: "MetricsRegistry | dict",
    labels: "dict[str, str] | None" = None,
) -> str:
    """Render a registry (or its snapshot dict) as exposition text.

    ``labels`` are attached to every sample — the engine passes the
    shard here so a multi-node scrape can tell series apart.
    """
    snapshot = metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
    lab = _labels(labels)
    lines: list[str] = []

    for name, value in sorted(snapshot.get("counters", {}).items()):
        out = metric_name(name, "counter")
        help_text = _HELP.get(name, f"Campaign counter {name}.")
        lines.append(f"# HELP {out} {_escape_help(help_text)}")
        lines.append(f"# TYPE {out} counter")
        lines.append(f"{out}{lab} {_format_value(value)}")

    for name, value in sorted(snapshot.get("gauges", {}).items()):
        out = metric_name(name, "gauge")
        help_text = _HELP.get(name, f"Campaign gauge {name}.")
        lines.append(f"# HELP {out} {_escape_help(help_text)}")
        lines.append(f"# TYPE {out} gauge")
        lines.append(f"{out}{lab} {_format_value(value)}")

    for name, doc in sorted(snapshot.get("histograms", {}).items()):
        out = metric_name(name, "histogram")
        help_text = _HELP.get(name, f"Campaign histogram {name} (seconds).")
        lines.append(f"# HELP {out} {_escape_help(help_text)}")
        lines.append(f"# TYPE {out} histogram")
        bounds = list(doc.get("buckets", ())) + [math.inf]
        counts = list(doc.get("counts", ()))
        cumulative = 0
        for bound, bucket_count in zip(bounds, counts):
            cumulative += bucket_count
            le = dict(labels or {})
            le["le"] = _le_value(bound)
            lines.append(f"{out}_bucket{_labels(le)} {cumulative}")
        lines.append(f"{out}_sum{lab} "
                     f"{_format_value(doc.get('total', 0.0))}")
        lines.append(f"{out}_count{lab} "
                     f"{_format_value(doc.get('count', 0))}")

    return "\n".join(lines) + "\n" if lines else ""


# -- conformance checking ---------------------------------------------------

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    return float(raw)


def validate_exposition(text: str) -> list[str]:
    """Conformance-check exposition ``text``; returns problem strings
    (empty = conformant).

    Checks: sample/comment syntax, metric-name alphabet, ``TYPE``
    before samples and at most once per metric, histogram bucket
    cumulativity, a ``+Inf`` bucket matching ``_count``, and that
    counter values never carry a negative sign.
    """
    problems: list[str] = []
    types: dict[str, str] = {}
    seen_samples: set[str] = set()
    buckets: dict[str, list[tuple[float, float]]] = {}
    series: dict[str, float] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4 and parts[1] == "HELP":
                parts.append("")  # empty HELP text is legal
            if len(parts) < 4:
                problems.append(f"line {lineno}: malformed comment: {line!r}")
                continue
            _, kind, name, rest = parts[0], parts[1], parts[2], parts[3]
            if not _NAME_OK.match(name):
                problems.append(f"line {lineno}: invalid metric name {name!r}")
            if kind == "TYPE":
                if name in types:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {name}")
                if any(s == name or s.startswith(name + "_")
                       for s in seen_samples):
                    problems.append(
                        f"line {lineno}: TYPE for {name} after its samples")
                if rest not in ("counter", "gauge", "histogram",
                                "summary", "untyped"):
                    problems.append(
                        f"line {lineno}: unknown TYPE {rest!r} for {name}")
                types[name] = rest
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name = match.group("name")
        seen_samples.add(name)
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            problems.append(f"line {lineno}: bad value in: {line!r}")
            continue
        labels = dict(_LABEL.findall(match.group("labels") or ""))
        series_key = name + (match.group("labels") or "")
        if series_key in series:
            problems.append(f"line {lineno}: duplicate series {series_key}")
        series[series_key] = value

        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
                break
        kind = types.get(base)
        if kind is None:
            problems.append(f"line {lineno}: sample {name} without TYPE")
            continue
        if kind == "counter" and not math.isnan(value) and value < 0:
            problems.append(f"line {lineno}: counter {name} is negative")
        if kind == "histogram" and name.endswith("_bucket"):
            if "le" not in labels:
                problems.append(
                    f"line {lineno}: histogram bucket without le label")
                continue
            try:
                bound = _parse_value(labels["le"])
            except ValueError:
                problems.append(
                    f"line {lineno}: bad le value {labels['le']!r}")
                continue
            group_labels = {k: v for k, v in labels.items() if k != "le"}
            group = base + repr(sorted(group_labels.items()))
            buckets.setdefault(group, []).append((bound, value))

    for group, entries in buckets.items():
        base = group.split("[", 1)[0]
        prev_bound, prev_count = -math.inf, -math.inf
        for bound, bucket_count in entries:
            if bound <= prev_bound:
                problems.append(
                    f"{base}: bucket bounds not increasing ({bound} after"
                    f" {prev_bound})")
            if bucket_count < prev_count:
                problems.append(
                    f"{base}: bucket counts not cumulative ({bucket_count}"
                    f" after {prev_count})")
            prev_bound, prev_count = bound, bucket_count
        if not entries or not math.isinf(entries[-1][0]):
            problems.append(f"{base}: missing +Inf bucket")
        else:
            inf_count = entries[-1][1]
            for key, value in series.items():
                if key.startswith(base + "_count") and value != inf_count:
                    problems.append(
                        f"{base}: _count {value} != +Inf bucket {inf_count}")

    return problems
