"""Tests for the individual compiler passes."""

import pytest

from repro.compilers import compile_kernel, get_compiler
from repro.compilers.base import PassContext
from repro.compilers.passes.interchange import candidate_orders, stride_cost
from repro.ir import Feature, KernelBuilder, Language, read, update, write
from tests.conftest import build_gemm, build_stream


def _compile(variant, kernel, machine, flags=None):
    return compile_kernel(variant, kernel, machine, flags)


def _info(variant, kernel, machine, flags=None):
    ck = _compile(variant, kernel, machine, flags)
    assert ck.ok, ck.diagnostics
    return ck.nest_infos[0]


class TestInterchange:
    def test_icc_fixes_c_gemm(self, xeon_machine):
        info = _info("icc", build_gemm(256), xeon_machine)
        assert info.nest.loop_vars == ("i", "k", "j")
        assert "interchange" in info.applied_passes

    def test_fjtrad_misses_c_gemm(self, a64fx_machine):
        # The Figure 1 anomaly: trad mode only interchanges Fortran.
        info = _info("FJtrad", build_gemm(256), a64fx_machine)
        assert info.nest.loop_vars == ("i", "j", "k")

    def test_fjtrad_fixes_fortran_gemm(self, a64fx_machine):
        kernel = build_gemm(256, Language.FORTRAN)
        info = _info("FJtrad", kernel, a64fx_machine)
        # column-major: the i-stride-1 stream should end up innermost
        assert info.nest.loop_vars[-1] == "i"

    def test_gnu_fixes_c_gemm(self, a64fx_machine):
        info = _info("GNU", build_gemm(256), a64fx_machine)
        assert info.nest.loop_vars == ("i", "k", "j")

    def test_parallel_loop_anchored(self, a64fx_machine):
        b = KernelBuilder("p", Language.C)
        n = 64
        b.array("A", (n, n))
        b.array("B", (n, n))
        b.nest(
            [("i", n), ("j", n)],
            [b.stmt(write("A", "j", "i"), read("B", "j", "i"), fadd=1)],
            parallel=("i",),
        )
        info = _info("LLVM", b.build(), a64fx_machine)
        # would love j outermost, but i is the OpenMP loop -> anchored
        assert info.nest.loop_vars[0] == "i"

    def test_stride_cost_prefers_contiguous(self, a64fx_machine):
        nest = build_gemm(128).nests[0]
        line = a64fx_machine.line_bytes
        assert stride_cost(nest, ("i", "k", "j"), line) < stride_cost(nest, ("i", "j", "k"), line)

    def test_candidate_orders_full_permutations(self):
        orders = candidate_orders(("i", "j", "k"), 3)
        assert len(orders) == 5  # 3! - original

    def test_candidate_orders_pairwise_when_deep(self):
        orders = candidate_orders(("i", "j", "k"), 2)
        assert len(orders) == 3  # all single swaps
        assert ("i", "k", "j") in orders


class TestVectorize:
    def test_stream_vectorizes_sve(self, a64fx_machine, stream_kernel):
        info = _info("LLVM", stream_kernel, a64fx_machine)
        assert info.vectorized
        assert info.vector_isa.name == "sve512"
        assert info.vec_lanes == 8

    def test_gnu_no_fastmath_blocks_fp_reduction(self, a64fx_machine):
        b = KernelBuilder("dot", Language.C)
        b.array("a", (4096,))
        b.array("s", (1,))
        b.nest([("i", 4096)], [b.stmt(update("s", 0), read("a", "i"), fma=1, reduction="i")])
        kernel = b.build()
        assert not _info("GNU", kernel, a64fx_machine).vectorized
        assert _info("LLVM", kernel, a64fx_machine).vectorized
        assert _info("GNU", kernel, a64fx_machine).vector_blocker == (
            "FP reduction needs fast-math to reassociate")
        assert _info("LLVM", kernel, a64fx_machine).vector_blocker == ""

    def test_gnu_with_fastmath_vectorizes_reduction(self, a64fx_machine):
        from repro.compilers import parse_flags

        b = KernelBuilder("dot", Language.C)
        b.array("a", (4096,))
        b.array("s", (1,))
        b.nest([("i", 4096)], [b.stmt(update("s", 0), read("a", "i"), fma=1, reduction="i")])
        flags = parse_flags(["-O3", "-march=native", "-ffast-math"])
        assert _info("GNU", b.build(), a64fx_machine, flags).vectorized

    def test_gnu_bails_on_predicated(self, a64fx_machine):
        b = KernelBuilder("pred", Language.C)
        b.array("a", (4096,))
        b.nest([("i", 4096)], [b.stmt(update("a", "i"), fadd=1, predicated=True)])
        assert not _info("GNU", b.build(), a64fx_machine).vectorized
        assert _info("FJtrad", b.build(), a64fx_machine).vectorized
        assert _info("GNU", b.build(), a64fx_machine).vector_blocker == (
            "no profitable predication of conditional bodies")

    def test_gather_capability_gate(self, a64fx_machine):
        b = KernelBuilder("gather", Language.C)
        b.array("x", (4096,))
        b.array("y", (4096,))
        b.nest(
            [("i", 4096)],
            [b.stmt(write("y", "i"), read("x", "i", indirect=True), fadd=1)],
        )
        fj = _info("FJtrad", b.build(), a64fx_machine)
        assert fj.vectorized and fj.uses_gather
        assert not _info("GNU", b.build(), a64fx_machine).vectorized
        assert _info("GNU", b.build(), a64fx_machine).vector_blocker == (
            "indirect streams need hardware gathers")

    def test_indirect_write_blocks_everyone(self, a64fx_machine):
        b = KernelBuilder("scatter", Language.C)
        b.array("h", (4096,))
        b.nest([("i", 4096)], [b.stmt(update("h", "i", indirect=True), fadd=1)])
        for variant in ("FJtrad", "FJclang", "LLVM", "GNU"):
            assert not _info(variant, b.build(), a64fx_machine).vectorized
            assert _info(variant, b.build(), a64fx_machine).vector_blocker == (
                "scattered read-modify-write (conflict hazard)")

    def test_pointer_chasing_blocks_everyone(self, a64fx_machine):
        from repro.suites.kernels_common import pointer_chase

        k = pointer_chase("pc", 1024)
        for variant in ("FJtrad", "LLVM", "GNU"):
            assert not _info(variant, k, a64fx_machine).vectorized
        for variant in ("FJtrad", "LLVM"):
            assert _info(variant, k, a64fx_machine).vector_blocker == (
                "dependent-load chain")

    def test_no_march_native_means_narrow_isa(self, a64fx_machine, stream_kernel):
        from repro.compilers import parse_flags

        info = _info("LLVM", stream_kernel, a64fx_machine, parse_flags(["-O3", "-ffast-math"]))
        assert info.vector_isa.name == "neon"

    def test_below_o2_no_vectorization(self, a64fx_machine, stream_kernel):
        from repro.compilers import parse_flags

        info = _info("LLVM", stream_kernel, a64fx_machine, parse_flags(["-O1", "-mcpu=native"]))
        assert not info.vectorized
        assert info.vector_blocker == "auto-vectorizer off below -O2"

    def test_seidel_never_vectorizes(self, a64fx_machine):
        from repro.suites.kernels_common import seidel_sweep

        for variant in ("FJtrad", "LLVM", "GNU"):
            assert not _info(variant, seidel_sweep("s", 128), a64fx_machine).vectorized
            assert _info(variant, seidel_sweep("s", 128), a64fx_machine).vector_blocker == (
                "carried dependence blocks SIMD")


class TestPolly:
    def test_polly_tiles_gemm(self, a64fx_machine):
        info = _info("LLVM+Polly", build_gemm(512), a64fx_machine)
        assert "polly" in info.applied_passes
        assert info.tile_working_set is not None

    def test_plain_llvm_does_not_tile(self, a64fx_machine):
        assert _info("LLVM", build_gemm(512), a64fx_machine).tile_working_set is None

    def test_polly_skips_non_scop(self, a64fx_machine):
        from repro.suites.kernels_common import spmv_csr

        info = _info("LLVM+Polly", spmv_csr("sp", 1024, 8, parallel=False), a64fx_machine)
        assert "polly" not in info.applied_passes

    def test_polly_interchanges_regardless_of_language_gate(self, a64fx_machine):
        # Polly works on LLVM-IR; but Fortran goes through frt (delegation),
        # so use a C kernel with a deep nest the pairwise interchanger
        # would also fix, and check polly claims it on the SCoP.
        info = _info("LLVM+Polly", build_gemm(256), a64fx_machine)
        assert info.nest.loop_vars == ("i", "k", "j")


class TestDce:
    def test_mvt_eliminated_only_by_polly(self, a64fx_machine):
        from repro.suites.polybench_la import mvt

        kernel = mvt()
        polly = _compile("LLVM+Polly", kernel, a64fx_machine)
        assert all(i.eliminated for i in polly.nest_infos)
        llvm = _compile("LLVM", kernel, a64fx_machine)
        assert not any(i.eliminated for i in llvm.nest_infos)

    def test_dce_requires_scop(self, a64fx_machine):
        # A kernel named mvt that is NOT a SCoP must survive.
        b = KernelBuilder("mvt", Language.C)
        b.array("x", (64,))
        b.nest([("i", 64)], [b.stmt(update("x", "i", indirect=True), fadd=1)])
        ck = _compile("LLVM+Polly", b.build(), a64fx_machine)
        assert not any(i.eliminated for i in ck.nest_infos)


class TestOpenMPAndFinalizers:
    def test_openmp_outlining(self, a64fx_machine, stream_kernel):
        info = _info("GNU", stream_kernel, a64fx_machine)
        assert info.parallel
        assert info.omp_fork_us > 0

    def test_serial_kernel_not_outlined(self, a64fx_machine):
        info = _info("GNU", build_gemm(64), a64fx_machine)
        assert not info.parallel

    def test_gnu_runtime_costs_highest(self, a64fx_machine, stream_kernel):
        gnu = _info("GNU", stream_kernel, a64fx_machine)
        fj = _info("FJtrad", stream_kernel, a64fx_machine)
        assert gnu.omp_fork_us > fj.omp_fork_us
        assert gnu.omp_barrier_us > fj.omp_barrier_us

    def test_prefetch_quality_ordering(self, a64fx_machine, stream_kernel):
        fj = _info("FJtrad", stream_kernel, a64fx_machine)
        gnu = _info("GNU", stream_kernel, a64fx_machine)
        assert fj.sw_prefetch > gnu.sw_prefetch

    def test_vendor_tuning_recovers_fj_schedule(self, a64fx_machine):
        plain = build_stream(name="plain")
        tuned = build_stream(name="tuned").with_features(Feature.VENDOR_TUNED)
        q_plain = _info("FJtrad", plain, a64fx_machine).memory_schedule_quality
        q_tuned = _info("FJtrad", tuned, a64fx_machine).memory_schedule_quality
        assert q_tuned > q_plain
        # GNU ignores OCLs: unchanged
        g_plain = _info("GNU", plain, a64fx_machine).memory_schedule_quality
        g_tuned = _info("GNU", tuned, a64fx_machine).memory_schedule_quality
        assert g_plain == g_tuned

    def test_unroll_marks_hot_loops(self, a64fx_machine, stream_kernel):
        assert _info("LLVM", stream_kernel, a64fx_machine).unroll_factor >= 2

    def test_scalar_quality_language_split(self, a64fx_machine):
        c_kernel = build_gemm(64, Language.C, name="gc")
        cxx_kernel = build_gemm(64, Language.CXX, name="gx")
        qc = _info("FJtrad", c_kernel, a64fx_machine).scalar_quality
        qx = _info("FJtrad", cxx_kernel, a64fx_machine).scalar_quality
        assert qx < qc  # trad-mode C++ is the weak spot
