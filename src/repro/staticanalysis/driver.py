"""The analysis driver: one walk over a kernel, dispatching to rules.

:func:`analyze_kernel` is the single entry point everything else wraps:
the campaign engine's lint gate runs it per benchmark to enforce
``lint_policy``, and the CLI ``lint``/``advise-static`` subcommands and
``tools/lint_gate.py`` run it over whole suites.  Compilation never
runs it.

The :class:`AnalysisContext` memoizes the expensive shared inputs —
dependence sets per nest, structural validation per kernel, and the
fixpoint dataflow facts (:mod:`repro.staticanalysis.dataflow`) — so
that seven rules reading the same nest pay for one ``nest_dependences``
call and one facts computation.

Two caches sit above the context memos, both used by the engine's lint
gate:

* the per-process identity memos (:func:`analyze_kernel_cached`,
  :func:`analyze_benchmark_cached`, bounded
  :class:`~repro.caching.IdentityMemo` s), which collapse repeated
  campaigns in one process, and benchmarks sharing a kernel object, to
  one analysis per kernel object;
* the optional persistent :class:`AnalysisCache`, keyed by kernel and
  machine *content* fingerprints, which survives process boundaries —
  the engine keeps one beside its kernel cache (``<cache-dir>/
  analysis``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.caching import ContentStore, IdentityMemo
from repro.ir.dependence import Dependence, nest_dependences
from repro.ir.kernel import Kernel
from repro.ir.loop import LoopNest
from repro.ir.validate import validate_kernel
from repro.machine.a64fx import a64fx
from repro.machine.machine import Machine
from repro.perf.cost import kernel_fingerprint, machine_fingerprint
from repro.staticanalysis.dataflow import compute_kernel_facts
from repro.staticanalysis.diagnostics import (
    Diagnostic,
    DiagnosticSink,
    dedupe_diagnostics,
    max_severity,
)
from repro.staticanalysis.registry import Rule, select_rules
from repro.telemetry.recorder import SPAN_LINT

#: Telemetry counter prefix; full names are ``lint.findings.<RULEID>``.
FINDINGS_COUNTER_PREFIX = "lint.findings."

#: Version of the analysis itself, mixed into persistent cache keys.
#: Bump when rules, the dataflow framework, or the divergence analyzer
#: change what they emit — stale entries then miss instead of serving
#: findings from an older rule set.
ANALYSIS_SCHEMA_VERSION = 1


@dataclass
class AnalysisContext:
    """Shared state for one analysis run (memoized expensive inputs).

    Rules receive the context as their second argument and pull the
    dependence sets, the structural-validation findings, the dataflow
    facts, and machine parameters (cache line size for the stride cost
    model) from it.
    """

    machine: Machine = field(default_factory=a64fx)
    _deps: dict = field(default_factory=dict, repr=False)
    _validated: dict = field(default_factory=dict, repr=False)
    _facts: dict = field(default_factory=dict, repr=False)
    #: (id(kernel), variants) -> per-variant transform predictions
    #: (:mod:`repro.staticanalysis.divergence` memoizes here so the
    #: five DIV rules share one gate replay per kernel).
    _divergence: dict = field(default_factory=dict, repr=False)

    @property
    def line_bytes(self) -> int:
        return self.machine.line_bytes

    def deps(self, nest: LoopNest) -> tuple[Dependence, ...]:
        """Dependences of ``nest``, memoized by object identity."""
        key = id(nest)
        found = self._deps.get(key)
        if found is None:
            found = nest_dependences(nest)
            self._deps[key] = found
        return found

    def validated(self, kernel: Kernel) -> tuple[Diagnostic, ...]:
        """Structural validation of ``kernel`` (STRUCT001/BND002
        diagnostics), memoized by object identity."""
        key = id(kernel)
        found = self._validated.get(key)
        if found is None:
            found = tuple(validate_kernel(kernel))
            self._validated[key] = found
        return found

    def facts(self, kernel: Kernel):
        """Fixpoint dataflow facts of ``kernel``
        (:class:`~repro.staticanalysis.dataflow.KernelFacts`), memoized
        by object identity; shares this context's dependence memo."""
        key = id(kernel)
        found = self._facts.get(key)
        if found is None:
            found = compute_kernel_facts(
                kernel, deps=self.deps, line_bytes=self.line_bytes
            )
            self._facts[key] = found
        return found


def analyze_kernel(
    kernel: Kernel,
    *,
    rules: "tuple[Rule, ...] | None" = None,
    ctx: "AnalysisContext | None" = None,
    machine: "Machine | None" = None,
) -> tuple[Diagnostic, ...]:
    """Run the rule set over one kernel; findings in rule order.

    ``rules`` defaults to every registered rule; pass the result of
    :func:`~repro.staticanalysis.registry.select_rules` to restrict.
    Supply a shared ``ctx`` to amortize dependence analysis across
    kernels; ``machine`` builds a fresh context (A64FX by default —
    the stride cost model needs a cache line size).
    """
    if ctx is None:
        ctx = AnalysisContext(machine=machine) if machine is not None else AnalysisContext()
    active = rules if rules is not None else select_rules()
    sink = DiagnosticSink()
    with telemetry.span(SPAN_LINT, kernel=kernel.name, rules=len(active)):
        for rule in active:
            for diag in rule.run(kernel, ctx):
                if not diag.kernel:
                    diag = diag.with_kernel(kernel.name)
                sink.emit(diag)
                telemetry.count(FINDINGS_COUNTER_PREFIX + diag.rule_id)
    return sink.snapshot()


def analyze_benchmark(
    benchmark,
    *,
    rules: "tuple[Rule, ...] | None" = None,
    ctx: "AnalysisContext | None" = None,
    machine: "Machine | None" = None,
) -> tuple[Diagnostic, ...]:
    """Analyze every kernel of a benchmark (suite ``Benchmark`` object).

    Findings are deduplicated by diagnostic identity: a benchmark whose
    translation units share a kernel object reports each finding once.
    """
    if ctx is None:
        ctx = AnalysisContext(machine=machine) if machine is not None else AnalysisContext()
    out: list[Diagnostic] = []
    for kernel in benchmark.kernels():
        out.extend(analyze_kernel(kernel, rules=rules, ctx=ctx))
    return dedupe_diagnostics(out)


# -- persistent cross-process cache ----------------------------------------


def _decode_diagnostics(data: bytes) -> tuple[Diagnostic, ...]:
    doc = json.loads(data)
    return tuple(Diagnostic.from_dict(d) for d in doc["diagnostics"])


class AnalysisCache:
    """Persistent per-kernel diagnostics, keyed by content fingerprints.

    Lives beside the engine's kernel cache (``<cache-dir>/analysis``):
    a JSON codec over a :class:`~repro.caching.ContentStore`
    (``analysis_cache.*`` counters).  Keys combine the kernel IR
    fingerprint, the machine fingerprint, and
    :data:`ANALYSIS_SCHEMA_VERSION`, so editing a kernel, switching
    machine models, or upgrading the rule set all miss cleanly.  A
    corrupt entry is a miss: it is dropped and rewritten by the next
    :meth:`put`.
    """

    def __init__(self, root: "Path | str") -> None:
        self.store = ContentStore(root, "analysis_cache", ".json")
        self.hits = 0
        self.misses = 0

    def key(self, kernel: Kernel, machine: Machine) -> str:
        payload = (
            f"lint|a{ANALYSIS_SCHEMA_VERSION}|{kernel_fingerprint(kernel)}"
            f"|{machine_fingerprint(machine)}"
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def get(self, kernel: Kernel, machine: Machine) -> "tuple[Diagnostic, ...] | None":
        diags = self.store.get(self.key(kernel, machine), _decode_diagnostics)
        if diags is None:
            self.misses += 1
        else:
            self.hits += 1
        return diags

    def put(
        self, kernel: Kernel, machine: Machine, diags: tuple[Diagnostic, ...]
    ) -> None:
        doc = {
            "schema": ANALYSIS_SCHEMA_VERSION,
            "kernel": kernel.name,
            "diagnostics": [d.to_dict() for d in diags],
        }
        self.store.put(self.key(kernel, machine), json.dumps(doc, sort_keys=True))


# -- per-process identity memos ---------------------------------------------
#
# Findings depend only on the kernel IR and the machine, so memoize by
# (object, machine name).  Only the engine's lint gate fills these, in
# the campaign's own process.  The bounds sit far above the registry's
# 133 kernels and 108 benchmarks per machine; they bite only for a
# long-lived caller that keeps linting freshly built kernel objects.

_BENCH_DIAGNOSTICS: "IdentityMemo[tuple[Diagnostic, ...]]" = IdentityMemo(1024)
_KERNEL_DIAGNOSTICS: "IdentityMemo[tuple[Diagnostic, ...]]" = IdentityMemo(4096)


def _reemit(kernel_names: "tuple[str, ...]", diags: tuple) -> None:
    """Emit the lint span/counters for a memo hit.

    Telemetry totals must not depend on what was analyzed before — a
    campaign run after another in the same process (warm memos), or
    over a warm ``<cache-dir>/analysis``, must record the span and
    counter populations of a cold one — so cache hits re-emit exactly
    what a fresh analysis would have.
    """
    for name in kernel_names:
        with telemetry.span(SPAN_LINT, kernel=name, cached=True):
            for diag in diags:
                if diag.kernel == name:
                    telemetry.count(FINDINGS_COUNTER_PREFIX + diag.rule_id)


def _kernel_diags(
    kernel: Kernel,
    machine: Machine,
    cache: "AnalysisCache | None",
    ctx: "AnalysisContext | None",
) -> tuple[Diagnostic, ...]:
    """Kernel findings through memo -> persistent cache -> analysis."""
    diags = _KERNEL_DIAGNOSTICS.get(kernel, machine.name)
    if diags is not None:
        _reemit((kernel.name,), diags)
        return diags
    if cache is not None:
        diags = cache.get(kernel, machine)
        if diags is not None:
            # Cross-process hit: telemetry parity with the memo path.
            _reemit((kernel.name,), diags)
    if diags is None:
        diags = analyze_kernel(kernel, ctx=ctx, machine=machine if ctx is None else None)
        if cache is not None:
            cache.put(kernel, machine, diags)
    return _KERNEL_DIAGNOSTICS.put(kernel, machine.name, value=diags)


def analyze_kernel_cached(
    kernel: Kernel, machine: Machine, cache: "AnalysisCache | None" = None
) -> tuple[Diagnostic, ...]:
    """Memoized :func:`analyze_kernel` (identity-keyed, per process).

    Suite kernels are module-level singletons, so the identity key
    collapses every later analysis of a kernel in this process to one
    walk.  With ``cache``, a persistent :class:`AnalysisCache` is
    consulted between the memo and a fresh analysis.
    """
    return _kernel_diags(kernel, machine, cache, None)


def analyze_benchmark_cached(
    benchmark, machine: Machine, cache: "AnalysisCache | None" = None
) -> tuple[Diagnostic, ...]:
    """Memoized :func:`analyze_benchmark` (identity-keyed, per process).

    Composes the per-kernel memo (so benchmarks sharing a kernel share
    one analysis of it) and deduplicates by diagnostic identity —
    benchmarks whose units share a kernel object report each finding
    once even on warm caches.
    """
    hit = _BENCH_DIAGNOSTICS.get(benchmark, machine.name)
    if hit is not None:
        _reemit(tuple(k.name for k in benchmark.kernels()), hit)
        return hit
    ctx = AnalysisContext(machine=machine)
    out: list[Diagnostic] = []
    for kernel in benchmark.kernels():
        out.extend(_kernel_diags(kernel, machine, cache, ctx))
    return _BENCH_DIAGNOSTICS.put(
        benchmark, machine.name, value=dedupe_diagnostics(out))


def worst_severity(diags: tuple[Diagnostic, ...]):
    """Convenience re-export: worst severity in a finding set."""
    return max_severity(diags)
