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
import time
from dataclasses import dataclass

from repro import telemetry
from repro.caching import IdentityMemo
from repro.compilers.base import CompiledKernel, CompileStatus
from repro.compilers.flags import CompilerFlags
from repro.compilers.registry import compile_kernel
from repro.ir.serialize import kernel_to_dict
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


#: Mixed into every cell-cache key: bump when the compiler or cost
#: model changes what a cached cell record would hold.
#: 2: CompiledKernel grew the ``lint`` field (static-analysis findings).
#: 3: lint findings now include the cross-compiler divergence rules
#:    (DIV001-DIV005), so cached ``lint`` tuples are incomplete.
#: Neither the ``lint`` field nor the compiled-kernel store it versioned
#: is left; the number stays so that ``cells/`` keys stay unchanged.
CACHE_SCHEMA_VERSION = 3


def kernel_fingerprint(kernel: object) -> str:
    """Stable content hash of a kernel's IR (hex digest).

    Two independently-built kernels with identical IR hash identically;
    the fingerprint survives pickling/process boundaries (unlike
    ``id()``), which makes it usable as a persistent cache key.
    """
    doc = kernel_to_dict(kernel)  # type: ignore[arg-type]
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


#: ``(fingerprint, memo key)`` of each machine, by identity.  Machine
#: factories (a64fx() & co.) build a fresh frozen instance per call, so
#: bare id() keys would miss across sessions, while re-hashing the repr
#: on every lookup would cost more than the model evaluation it guards.
_MACHINE_KEYS: "IdentityMemo[tuple[str, str]]" = IdentityMemo(64)


def _machine_keys(machine: Machine) -> tuple[str, str]:
    keys = _MACHINE_KEYS.get(machine)
    if keys is None:
        # Machine is a frozen dataclass tree of plain values; its repr
        # is deterministic and content-complete.
        digest = hashlib.sha256(repr(machine).encode()).hexdigest()
        keys = _MACHINE_KEYS.put(
            machine, value=(digest, f"{machine.name}:{digest}"))
    return keys


def machine_fingerprint(machine: Machine) -> str:
    """Stable content hash of a machine model's configuration."""
    return _machine_keys(machine)[0]


def machine_memo_key(machine: Machine) -> str:
    """Content key for a machine instance: its name and fingerprint."""
    return _machine_keys(machine)[1]


#: Process-global memo of compilations.  Compilation is deterministic,
#: so equal inputs always produce an equal CompiledKernel; memoizing at
#: the compile_kernel() call site means per-cache counters
#: (compile_count) keep their semantics — only the redundant
#: compilation *work* is skipped.  A forked pool worker inherits it
#: warm, and meets the same kernel objects when cells arrive by name.
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


class CompilationCache:
    """Memoizes (variant, kernel, machine, flags) -> CompiledKernel.

    A campaign compiles each kernel once per variant but costs it under
    dozens of placements; this in-memory tier in front of the process
    compile memo keeps the exploration phase fast.  Nothing is
    persisted: reading a compiled kernel back from disk cost about what
    compiling it does, and writing it several times more.
    """

    def __init__(self) -> None:
        #: In-memory tier; the bound is far above the full grid's 665
        #: (kernel, variant) pairs.
        self._cache: "IdentityMemo[CompiledKernel]" = IdentityMemo(2048)
        self.compile_count = 0
        self.memory_hits = 0
        #: Always 0: there is no disk tier.
        self.disk_hits = 0

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
        compiled = _memoized_compile(variant, kernel, machine, flags)
        self.compile_count += 1
        telemetry.count("kernel_cache.compile")
        return self._cache.put(kernel, *parts, value=compiled)


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
