"""The analysis driver: one walk over a kernel, dispatching to rules.

:func:`analyze_kernel` is the single entry point everything else wraps:
the campaign engine's lint gate runs it per benchmark to enforce
``lint_policy``, and the CLI ``lint``/``advise-static`` subcommands and
``tools/lint_gate.py`` run it over whole suites.  Compilation never
runs it.

The :class:`AnalysisContext` memoizes the expensive shared inputs —
dependence sets per nest, structural validation per kernel, the
fixpoint dataflow facts (:mod:`repro.staticanalysis.dataflow`), and
each study variant's compile of a kernel (the divergence rules' input)
— so that the rules reading the same nest pay for one
``nest_dependences`` call, one facts computation, and one compile per
variant.

Above the context memos, the engine's lint gate uses per-process
identity memos (:func:`analyze_kernel_cached`,
:func:`analyze_benchmark_cached`, bounded
:class:`~repro.caching.IdentityMemo` s), which collapse repeated
campaigns in one process, and benchmarks sharing a kernel object, to
one analysis per kernel object.  Nothing is persisted: a fresh
process's analysis makes the same compile calls a stored one would
have to replay for its telemetry, so a store would save only the rule
walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro import telemetry
from repro.caching import IdentityMemo
from repro.compilers.base import CompiledKernel
from repro.compilers.registry import STUDY_VARIANTS
from repro.ir.dependence import Dependence, nest_dependences
from repro.ir.kernel import Kernel
from repro.ir.loop import LoopNest
from repro.ir.validate import validate_kernel
from repro.machine.a64fx import a64fx
from repro.machine.machine import Machine
from repro.perf import cost
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


def _compile_variants(kernel: Kernel, machine: Machine) -> dict[str, CompiledKernel]:
    """Each study variant's compile of ``kernel`` at its default flags,
    through the one compile path (one ``compile`` span per variant)."""
    return {
        variant: cost._memoized_compile(variant, kernel, machine, None)
        for variant in STUDY_VARIANTS
    }


@dataclass
class AnalysisContext:
    """Shared state for one analysis run (memoized expensive inputs).

    Rules receive the context as their second argument and pull the
    dependence sets, the structural-validation findings, the dataflow
    facts, each study variant's compile of the kernel, and machine
    parameters (cache line size for the stride cost model) from it.
    """

    machine: Machine = field(default_factory=a64fx)
    _deps: dict = field(default_factory=dict, repr=False)
    _validated: dict = field(default_factory=dict, repr=False)
    _facts: dict = field(default_factory=dict, repr=False)
    _compiled: dict = field(default_factory=dict, repr=False)

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

    def compiled(self, kernel: Kernel) -> dict[str, CompiledKernel]:
        """Each study variant's compile of ``kernel`` on this context's
        machine, fetched once per kernel object (the divergence rules
        compare them)."""
        key = id(kernel)
        found = self._compiled.get(key)
        if found is None:
            found = _compile_variants(kernel, self.machine)
            self._compiled[key] = found
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


# -- per-process identity memos ---------------------------------------------
#
# Findings depend only on the kernel IR and the machine, so memoize by
# (object, machine content key): the compile memo's key, so two
# machines that share a name but not their parameters never share
# findings.  Only the engine's lint gate fills these, in
# the campaign's own process.  The bounds sit far above the registry's
# 133 kernels and 108 benchmarks per machine; they bite only for a
# long-lived caller that keeps linting freshly built kernel objects.

_BENCH_DIAGNOSTICS: "IdentityMemo[tuple[Diagnostic, ...]]" = IdentityMemo(1024)
_KERNEL_DIAGNOSTICS: "IdentityMemo[tuple[Diagnostic, ...]]" = IdentityMemo(4096)


def _reemit(kernels: "Iterable[Kernel]", machine: Machine, diags: tuple) -> None:
    """Emit the lint and compile spans and the finding counters for a
    memo hit.

    Telemetry totals must not depend on what was analyzed before — a
    campaign run after another in the same process (warm memos) must
    record the span and counter populations of a cold one — so memo
    hits re-emit exactly what a fresh analysis would have, making its
    memoized compile calls.
    """
    for kernel in kernels:
        with telemetry.span(SPAN_LINT, kernel=kernel.name, cached=True):
            _compile_variants(kernel, machine)
            for diag in diags:
                if diag.kernel == kernel.name:
                    telemetry.count(FINDINGS_COUNTER_PREFIX + diag.rule_id)


def _kernel_diags(
    kernel: Kernel,
    machine: Machine,
    ctx: "AnalysisContext | None",
) -> tuple[Diagnostic, ...]:
    """Kernel findings through the memo, else a fresh analysis."""
    machine_key = cost.machine_memo_key(machine)
    diags = _KERNEL_DIAGNOSTICS.get(kernel, machine_key)
    if diags is not None:
        _reemit((kernel,), machine, diags)
        return diags
    diags = analyze_kernel(kernel, ctx=ctx, machine=machine if ctx is None else None)
    return _KERNEL_DIAGNOSTICS.put(kernel, machine_key, value=diags)


def analyze_kernel_cached(kernel: Kernel, machine: Machine) -> tuple[Diagnostic, ...]:
    """Memoized :func:`analyze_kernel` (identity-keyed, per process).

    Suite kernels are module-level singletons, so the identity key
    collapses every later analysis of a kernel in this process to one
    walk.
    """
    return _kernel_diags(kernel, machine, None)


def analyze_benchmark_cached(benchmark, machine: Machine) -> tuple[Diagnostic, ...]:
    """Memoized :func:`analyze_benchmark` (identity-keyed, per process).

    Composes the per-kernel memo (so benchmarks sharing a kernel share
    one analysis of it) and deduplicates by diagnostic identity —
    benchmarks whose units share a kernel object report each finding
    once even on warm caches.
    """
    machine_key = cost.machine_memo_key(machine)
    hit = _BENCH_DIAGNOSTICS.get(benchmark, machine_key)
    if hit is not None:
        _reemit(benchmark.kernels(), machine, hit)
        return hit
    ctx = AnalysisContext(machine=machine)
    out: list[Diagnostic] = []
    for kernel in benchmark.kernels():
        out.extend(_kernel_diags(kernel, machine, ctx))
    return _BENCH_DIAGNOSTICS.put(
        benchmark, machine_key, value=dedupe_diagnostics(out))


def worst_severity(diags: tuple[Diagnostic, ...]):
    """Convenience re-export: worst severity in a finding set."""
    return max_severity(diags)
