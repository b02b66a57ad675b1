"""Top-level benchmark cost model: its result types, its compilation
cache, and the one-placement entry point.

:func:`benchmark_model` takes a :class:`~repro.suites.base.Benchmark`,
a compiler variant, a machine, and a
:class:`~repro.machine.topology.Placement`, and produces the *ideal*
(noise-free) region-of-interest time plus a breakdown.  It is a
one-placement call into :func:`repro.perf.batch.evaluate_placements`,
the model's one implementation.  The harness (:mod:`repro.harness`)
layers the measurement methodology — exploration sweeps, repeated
runs, noise — on top.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.caching import ContentStore, IdentityMemo
from repro.compilers.base import CompiledKernel, CompileStatus
from repro.compilers.flags import CompilerFlags
from repro.compilers.registry import compile_kernel
from repro.faults.taxonomy import SITE_KERNEL_CACHE
from repro.machine.machine import Machine
from repro.machine.topology import Placement
from repro.perf.ecm import NestTime
from repro.suites.base import Benchmark


@dataclass(frozen=True)
class UnitBreakdown:
    """Timing detail for one work unit."""

    kernel_name: str
    kernel_s: float
    library_s: float
    omp_overhead_s: float
    nest_times: tuple[NestTime, ...] = ()


@dataclass(frozen=True)
class ModelResult:
    """Noise-free model output for one (benchmark, variant, placement)."""

    benchmark: str
    variant: str
    placement: Placement
    status: CompileStatus
    #: Ideal ROI time in seconds (inf for failed builds/runs).
    time_s: float
    compute_s: float = 0.0
    memory_s: float = 0.0
    comm_s: float = 0.0
    units: tuple[UnitBreakdown, ...] = ()
    diagnostics: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return self.status is CompileStatus.OK


#: Bump when the compiler/cost model changes in a way that invalidates
#: persisted compilation artifacts (content-addressed cache entries).
#: 2: CompiledKernel grew the ``lint`` field (static-analysis findings).
#: 3: lint findings now include the cross-compiler divergence rules
#:    (DIV001-DIV005), so cached ``lint`` tuples are incomplete.
#: The ``lint`` field has since gone without a bump: a version-3 pickle
#: still loads, its stray attribute unseen by the fields, ``==`` and
#: ``repr``, and cell keys mix this number in, so ``cells/`` stays warm.
CACHE_SCHEMA_VERSION = 3


def kernel_fingerprint(kernel: object) -> str:
    """Stable content hash of a kernel's IR (hex digest).

    Two independently-built kernels with identical IR hash identically;
    the fingerprint survives pickling/process boundaries (unlike
    ``id()``), which makes it usable as a persistent cache key.
    """
    from repro.ir.serialize import kernel_to_dict

    doc = kernel_to_dict(kernel)  # type: ignore[arg-type]
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def machine_fingerprint(machine: Machine) -> str:
    """Stable content hash of a machine model's configuration."""
    # Machine is a frozen dataclass tree of plain values; its repr is
    # deterministic and content-complete.
    return hashlib.sha256(repr(machine).encode()).hexdigest()


#: Machine content keys by identity.  Machine factories (a64fx() & co.)
#: build a fresh frozen instance per call, so bare id() keys would miss
#: across sessions while re-hashing the repr on every lookup would cost
#: more than the model evaluation it guards.
_MACHINE_KEYS: "IdentityMemo[str]" = IdentityMemo(64)


def machine_memo_key(machine: Machine) -> str:
    """Content key for a machine instance, memoized by identity."""
    key = _MACHINE_KEYS.get(machine)
    if key is None:
        key = _MACHINE_KEYS.put(
            machine, value=f"{machine.name}:{machine_fingerprint(machine)}")
    return key


#: Process-global memo of compilations.  Compilation is deterministic,
#: so equal inputs always produce an equal CompiledKernel; memoizing at
#: the compile_kernel() call site means per-cache counters
#: (compile_count, disk_hits, fault_misses) keep their semantics — only
#: the redundant compilation *work* is skipped.
_COMPILE_MEMO: "IdentityMemo[CompiledKernel]" = IdentityMemo(2048)


def _memoized_compile(
    variant: str,
    kernel: object,
    machine: Machine,
    flags: "CompilerFlags | None",
) -> CompiledKernel:
    """Compile through the process memo, the one place compiles are
    memoized and observed, so a traced campaign does an untraced one's
    work.  Each call opens one ``compile`` span, ``cached`` saying
    whether the memo answered, so the span population does not depend
    on what ran earlier in the process."""
    parts = (variant, machine_memo_key(machine), flags)
    compiled = _COMPILE_MEMO.get(kernel, *parts)
    name = kernel.name  # type: ignore[attr-defined]
    with telemetry.span("compile", kernel=name, variant=variant,
                        cached=compiled is not None):
        if compiled is not None:
            telemetry.count("compile.memo_hit")
            return compiled
        t0 = time.monotonic()
        compiled = compile_kernel(variant, kernel, machine, flags)  # type: ignore[arg-type]
        telemetry.observe("compile.time_s", time.monotonic() - t0)
    telemetry.count("compile.count")
    if not compiled.ok:
        telemetry.count("compile.failed")
    return _COMPILE_MEMO.put(kernel, *parts, value=compiled)


def compilation_cache_key(
    variant: str,
    kernel: object,
    machine: Machine,
    flags: CompilerFlags | None,
) -> str:
    """Content-addressed key for one (variant, kernel, machine, flags)
    compilation: equal inputs give equal keys across processes and
    sessions, any change to an input changes the key."""
    parts = (
        f"compile|v{CACHE_SCHEMA_VERSION}",
        variant,
        kernel_fingerprint(kernel),
        machine.name,
        machine_fingerprint(machine),
        repr(flags),
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


class CompilationCache:
    """Memoizes (variant, kernel, machine, flags) -> CompiledKernel.

    A campaign compiles each kernel once per variant but costs it under
    dozens of placements; this cache keeps the exploration phase fast.

    With ``persist_dir`` set, compiled kernels are additionally stored
    on disk under their :func:`compilation_cache_key` — a pickle codec
    over a :class:`~repro.caching.ContentStore` (``kernel_cache.*``
    counters) — so later runs (and sibling worker processes) skip
    recompilation of unchanged kernels.  A corrupt entry is dropped,
    recompiled and rewritten.

    With an ``injector`` attached (chaos runs), a
    :class:`~repro.faults.plan.FaultRule` aimed at the ``kernel-cache``
    site makes a disk lookup behave as if the entry had rotted away:
    the kernel is recompiled (and re-persisted) instead.  Compilation
    is deterministic, so records never change — only the work done.
    """

    def __init__(
        self,
        persist_dir: "str | Path | None" = None,
        injector: "object | None" = None,
    ) -> None:
        #: In-memory tier; the bound is far above the full grid's 665
        #: (kernel, variant) pairs.
        self._cache: "IdentityMemo[CompiledKernel]" = IdentityMemo(2048)
        self.store = (
            ContentStore(persist_dir, "kernel_cache", ".pkl")
            if persist_dir is not None else None
        )
        #: A :class:`~repro.faults.plan.FaultInjector` (or ``None``)
        #: consulted at the ``kernel-cache`` site before disk reads.
        self.injector = injector
        self.compile_count = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.fault_misses = 0

    def get(
        self,
        variant: str,
        kernel: object,
        machine: Machine,
        flags: CompilerFlags | None,
    ) -> CompiledKernel:
        parts = (variant, machine.name, flags)
        compiled = self._cache.get(kernel, *parts)
        if compiled is not None:
            self.memory_hits += 1
            telemetry.count("kernel_cache.memory_hit")
            return compiled
        stable = None
        if self.store is not None:
            stable = compilation_cache_key(variant, kernel, machine, flags)
            if self._kernel_cache_fault(variant, kernel):
                # Injected kernel-cache loss (simulated scratch-file
                # rot): skip the disk entry and recompile below.  The
                # compile is deterministic, so this costs work, never
                # correctness.
                self.fault_misses += 1
                telemetry.count("kernel_cache.fault")
                telemetry.count("faults.injected")
                telemetry.count(f"faults.site.{SITE_KERNEL_CACHE}")
            else:
                compiled = self.store.get(stable, pickle.loads)
                if compiled is not None:
                    self.disk_hits += 1
                    return self._cache.put(kernel, *parts, value=compiled)
        compiled = _memoized_compile(variant, kernel, machine, flags)
        self.compile_count += 1
        telemetry.count("kernel_cache.compile")
        if stable is not None:
            self.store.put(stable, pickle.dumps(compiled))
        return self._cache.put(kernel, *parts, value=compiled)

    def _kernel_cache_fault(self, variant: str, kernel: object) -> bool:
        """Did the plan inject a kernel-cache fault for this lookup?"""
        if self.injector is None:
            return False
        name = getattr(kernel, "name", "") or ""
        return (
            self.injector.decide(SITE_KERNEL_CACHE, name, variant, 0)
            is not None
        )


def benchmark_model(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    placement: Placement,
    *,
    flags: CompilerFlags | None = None,
    cache: CompilationCache | None = None,
) -> ModelResult:
    """Ideal ROI time for one benchmark/variant/placement combination:
    a one-placement :func:`repro.perf.batch.evaluate_placements`."""
    # Late import: repro.perf.batch imports this module.
    from repro.perf.batch import evaluate_placements

    return evaluate_placements(
        bench, variant, machine, (placement,), flags=flags, cache=cache
    )[0]
