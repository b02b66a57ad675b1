"""Tests for the benchmark-level cost model."""

import pytest

from repro.compilers.base import CompileStatus
from repro.errors import HarnessError
from repro.ir import Language
from repro.libs.mathlib import LibraryCall, LibraryKind
from repro.machine import Placement
from repro.perf.cost import CompilationCache, benchmark_model
from repro.suites.base import Benchmark, MpiModel, ParallelKind, ScalingKind, WorkUnit
from tests.conftest import build_gemm, build_stream


def _bench(units, parallel=ParallelKind.OPENMP, **kwargs):
    return Benchmark(
        name="t",
        suite="test",
        language=Language.C,
        units=units,
        parallel=parallel,
        **kwargs,
    )


class TestPlacementValidation:
    def test_serial_benchmark_rejects_parallel_placement(self, a64fx_machine, gemm_kernel):
        bench = _bench((WorkUnit(kernel=gemm_kernel),), ParallelKind.SERIAL)
        with pytest.raises(HarnessError):
            benchmark_model(bench, "LLVM", a64fx_machine, Placement(1, 2))

    def test_openmp_benchmark_rejects_multirank(self, a64fx_machine, stream_kernel):
        bench = _bench((WorkUnit(kernel=stream_kernel),), ParallelKind.OPENMP)
        with pytest.raises(HarnessError):
            benchmark_model(bench, "LLVM", a64fx_machine, Placement(2, 2))

    def test_pow2_enforced(self, a64fx_machine, stream_kernel):
        bench = _bench(
            (WorkUnit(kernel=stream_kernel),),
            ParallelKind.MPI_OPENMP,
            pow2_ranks=True,
        )
        with pytest.raises(HarnessError):
            benchmark_model(bench, "LLVM", a64fx_machine, Placement(3, 4))


class TestScalingBehaviour:
    def test_invocations_scale_time(self, a64fx_machine, stream_kernel):
        one = _bench((WorkUnit(kernel=stream_kernel, invocations=1),))
        ten = _bench((WorkUnit(kernel=stream_kernel, invocations=10),))
        p = Placement(1, 12)
        t1 = benchmark_model(one, "LLVM", a64fx_machine, p).time_s
        t10 = benchmark_model(ten, "LLVM", a64fx_machine, p).time_s
        assert t10 == pytest.approx(10 * t1, rel=0.01)

    def test_strong_scaling_splits_work(self, a64fx_machine):
        kernel = build_stream(1 << 24)
        bench = _bench(
            (WorkUnit(kernel=kernel),),
            ParallelKind.MPI_OPENMP,
            mpi=MpiModel(0.0),
        )
        t1 = benchmark_model(bench, "LLVM", a64fx_machine, Placement(1, 12)).time_s
        t4 = benchmark_model(bench, "LLVM", a64fx_machine, Placement(4, 12)).time_s
        assert t4 < 0.4 * t1

    def test_weak_scaling_constant_per_rank(self, a64fx_machine):
        kernel = build_stream(1 << 24)
        bench = _bench(
            (WorkUnit(kernel=kernel),),
            ParallelKind.MPI_OPENMP,
            scaling=ScalingKind.WEAK,
            mpi=MpiModel(0.0),
        )
        t1 = benchmark_model(bench, "LLVM", a64fx_machine, Placement(1, 12)).time_s
        t4 = benchmark_model(bench, "LLVM", a64fx_machine, Placement(4, 12)).time_s
        assert t4 == pytest.approx(t1, rel=0.1)

    def test_comm_time_added(self, a64fx_machine):
        kernel = build_stream(1 << 24)
        with_comm = _bench(
            (WorkUnit(kernel=kernel),), ParallelKind.MPI_OPENMP, mpi=MpiModel(0.2)
        )
        without = _bench(
            (WorkUnit(kernel=kernel),), ParallelKind.MPI_OPENMP, mpi=MpiModel(0.0)
        )
        p = Placement(4, 12)
        a = benchmark_model(with_comm, "LLVM", a64fx_machine, p)
        b = benchmark_model(without, "LLVM", a64fx_machine, p)
        assert a.comm_s > 0 and a.time_s > b.time_s

    def test_max_useful_threads_caps(self, a64fx_machine):
        from repro.suites.kernels_common import divsqrt_physics

        kernel = divsqrt_physics("d", 1 << 22, Language.C)
        capped = _bench((WorkUnit(kernel=kernel),), max_useful_threads=8)
        uncapped = _bench((WorkUnit(kernel=kernel),))
        p = Placement(1, 48)
        t_capped = benchmark_model(capped, "LLVM", a64fx_machine, p).time_s
        t_uncapped = benchmark_model(uncapped, "LLVM", a64fx_machine, p).time_s
        assert t_capped > 2 * t_uncapped


class TestLibraryUnits:
    def test_library_time_compiler_independent(self, a64fx_machine):
        bench = _bench(
            (WorkUnit(library=LibraryCall(LibraryKind.BLAS3, flops=1e12)),),
            ParallelKind.OPENMP,
        )
        p = Placement(1, 48)
        times = {
            v: benchmark_model(bench, v, a64fx_machine, p).time_s
            for v in ("FJtrad", "LLVM", "GNU")
        }
        assert max(times.values()) == pytest.approx(min(times.values()), rel=1e-9)

    def test_mixed_unit_breakdown(self, a64fx_machine, stream_kernel):
        bench = _bench(
            (
                WorkUnit(kernel=stream_kernel),
                WorkUnit(library=LibraryCall(LibraryKind.BLAS3, flops=1e11)),
            )
        )
        r = benchmark_model(bench, "LLVM", a64fx_machine, Placement(1, 12))
        assert len(r.units) == 2
        assert r.units[0].kernel_s > 0
        assert r.units[1].library_s > 0


class TestFailurePropagation:
    def test_compile_error_gives_infinite_time(self, a64fx_machine):
        from repro.suites.microkernels import _kernels

        k22 = next(k for k, _ in _kernels() if k.name == "k22")
        bench = Benchmark(
            name="k22",
            suite="test",
            language=k22.language,
            units=(WorkUnit(kernel=k22),),
            parallel=ParallelKind.OPENMP,
        )
        r = benchmark_model(bench, "FJclang", a64fx_machine, Placement(1, 12))
        assert r.status is CompileStatus.COMPILE_ERROR
        assert r.time_s == float("inf")
        assert not r.valid

    def test_cache_reuses_compilations(self, a64fx_machine, stream_kernel):
        cache = CompilationCache()
        bench = _bench((WorkUnit(kernel=stream_kernel),))
        r1 = benchmark_model(bench, "LLVM", a64fx_machine, Placement(1, 12), cache=cache)
        r2 = benchmark_model(bench, "LLVM", a64fx_machine, Placement(1, 48), cache=cache)
        assert len(cache._cache) == 1
        assert r1.time_s != r2.time_s

    def test_anomaly_multiplier_applied(self, a64fx_machine):
        from repro.suites.polybench_la import mvt

        bench = Benchmark(
            name="mvt",
            suite="test",
            language=Language.C,
            units=(WorkUnit(kernel=mvt()),),
            parallel=ParallelKind.SERIAL,
            pinned_single_core=True,
        )
        p = Placement(1, 1)
        fj = benchmark_model(bench, "FJtrad", a64fx_machine, p).time_s
        fjc = benchmark_model(bench, "FJclang", a64fx_machine, p).time_s
        # FJtrad carries the x64 pathological-codegen multiplier
        assert fj > 10 * fjc


class TestCompilationCacheIdentity:
    def test_fresh_kernel_copies_get_their_own_compilation(self, a64fx_machine):
        # A long-lived cache can see kernels unpickled afresh (a kernel
        # JSON file's benchmark travels to a pool worker by value), and
        # a freed kernel's address is soon reused by the next one; each
        # lookup must still answer for its own kernel.
        import pickle

        from repro.suites.registry import all_suites

        kernels = [unit.kernel for suite in all_suites()
                   for bench in suite.benchmarks for unit in bench.units
                   if unit.kernel is not None]
        payloads = [pickle.dumps(kernel) for kernel in kernels]
        cache = CompilationCache()
        wrong = []
        for _round in range(3):
            for payload in payloads:
                kernel = pickle.loads(payload)
                compiled = cache.get("GNU", kernel, a64fx_machine, None)
                if compiled.kernel != kernel:
                    wrong.append(kernel.name)
        assert wrong == []
        assert cache.compile_count == 3 * len(kernels)
