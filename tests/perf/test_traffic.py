"""Tests for the analytic traffic model, including cross-validation
against the trace-based reference simulator."""

import pytest

from repro.compilers.base import CodegenNestInfo
from repro.ir import KernelBuilder, Language, read, update, write
from repro.machine import CacheLevel, Machine, SCALAR
from repro.machine.core import CoreModel
from repro.machine.memory import MemorySystem
from repro.machine.topology import Topology
from repro.perf.trace import trace_traffic
from repro.perf.traffic import nest_traffic
from repro.units import KiB, gb_per_s, ghz
from tests.conftest import build_gemm, build_stream


def tiny_machine(l1_kib=4, l2_kib=64, line=64):
    """A shrunken machine so small traced kernels exercise capacity."""
    core = CoreModel("t", ghz(2.0), 2, 512, 2, 2, 1, 40, 50, 60, 10, 0.6)
    l1 = CacheLevel("L1d", l1_kib * KiB, line, 4, 128, 1)
    l2 = CacheLevel("L2", l2_kib * KiB, line, 8, 64, 4)
    mem = MemorySystem("mem", gb_per_s(100), 0.8, 100e-9)
    topo = Topology("t", 1, 4)
    return Machine("tiny", core, (l1, l2), mem, topo, (SCALAR,))


def _traffic(kernel, machine, **info_kwargs):
    info = CodegenNestInfo(nest=kernel.nests[0], **info_kwargs)
    return nest_traffic(info, machine)


class TestStreamTraffic:
    def test_stream_memory_traffic_is_compulsory(self, a64fx_machine):
        n = 1 << 20
        kernel = build_stream(n)
        report = _traffic(kernel, a64fx_machine, streaming_stores=True)
        mem = report.boundaries[-1]
        # reads: b and c arrays; write: a
        assert mem.read_bytes == pytest.approx(2 * n * 8, rel=0.05)
        assert mem.write_bytes == pytest.approx(n * 8, rel=0.05)

    def test_write_allocate_adds_read_traffic(self, a64fx_machine):
        n = 1 << 20
        kernel = build_stream(n)
        with_ws = _traffic(kernel, a64fx_machine, streaming_stores=False)
        without = _traffic(kernel, a64fx_machine, streaming_stores=True)
        assert with_ws.boundaries[-1].read_bytes > without.boundaries[-1].read_bytes

    def test_cache_resident_kernel_no_memory_traffic_refetch(self, a64fx_machine):
        kernel = build_stream(64)  # 1.5 KiB total: L1-resident
        report = _traffic(kernel, a64fx_machine, streaming_stores=True)
        assert report.memory_bytes <= 3 * 64 * 8 * 1.1  # compulsory only


class TestGemmTraffic:
    def test_untiled_ijk_refetches_b(self, a64fx_machine):
        n = 1200  # B is 11.5 MB: beyond L2
        kernel = build_gemm(n)
        report = _traffic(kernel, a64fx_machine)
        # B refetched ~n times at line granularity
        assert report.memory_bytes > n * n * 8 * 10

    def test_tiling_cuts_memory_traffic(self, a64fx_machine):
        n = 1200
        kernel = build_gemm(n)
        untiled = _traffic(kernel, a64fx_machine)
        tiled = _traffic(kernel, a64fx_machine, tile_working_set=4 * 1024 * 1024)
        assert tiled.memory_bytes < untiled.memory_bytes / 20

    def test_interchange_cuts_line_amplification(self, a64fx_machine):
        # Untiled, both orders stream B from memory once per i; the
        # strided order additionally amplifies the L1<->L2 boundary by
        # the line/element ratio (256/8 = 32x on A64FX).
        n = 1200
        kernel = build_gemm(n)
        bad = _traffic(kernel, a64fx_machine)
        good_nest = kernel.nests[0].permuted(("i", "k", "j"))
        good = nest_traffic(CodegenNestInfo(nest=good_nest), a64fx_machine)
        bad_l2 = bad.boundaries[0].total_bytes
        good_l2 = good.boundaries[0].total_bytes
        assert good_l2 < bad_l2 / 10
        assert good.memory_bytes == pytest.approx(bad.memory_bytes, rel=0.2)

    def test_shared_cache_pressure_increases_traffic(self, a64fx_machine):
        n = 700  # B ~3.9MB: fits L2 alone, not when shared by 12 cores
        kernel = build_gemm(n)
        alone = nest_traffic(CodegenNestInfo(nest=kernel.nests[0]), a64fx_machine, 1)
        shared = nest_traffic(CodegenNestInfo(nest=kernel.nests[0]), a64fx_machine, 12)
        assert shared.memory_bytes > alone.memory_bytes

    def test_eliminated_nest_zero_traffic(self, a64fx_machine):
        kernel = build_gemm(128)
        info = CodegenNestInfo(nest=kernel.nests[0], eliminated=True)
        assert nest_traffic(info, a64fx_machine).memory_bytes == 0


class TestLatencyExposure:
    def test_indirect_marks_latency_fraction(self, a64fx_machine):
        b = KernelBuilder("g", Language.C)
        n = 1 << 20
        b.array("x", (n,))
        b.array("y", (n,))
        b.nest([("i", n)], [b.stmt(write("y", "i"), read("x", "i", indirect=True), fadd=1)])
        report = _traffic(b.build(), a64fx_machine)
        assert report.boundaries[-1].latency_exposed_fraction > 0.5

    def test_contiguous_not_latency_exposed(self, a64fx_machine):
        report = _traffic(build_stream(1 << 20), a64fx_machine)
        assert report.boundaries[-1].latency_exposed_fraction == 0.0


class TestCrossValidationAgainstTrace:
    """The analytic model must agree with the reference LRU simulation
    on small kernels (within the layer-condition approximation)."""

    def _compare(self, kernel, machine, rel=0.5):
        nest = kernel.nests[0]
        analytic = nest_traffic(CodegenNestInfo(nest=nest, streaming_stores=False), machine)
        traced = trace_traffic(nest, machine.cache_levels)
        a_mem = analytic.memory_bytes
        t_mem = traced.memory_bytes
        assert a_mem == pytest.approx(t_mem, rel=rel), (a_mem, t_mem)

    def test_stream_matches(self):
        m = tiny_machine()
        self._compare(build_stream(1 << 14), m, rel=0.4)

    def test_small_gemm_matches(self):
        m = tiny_machine(l1_kib=4, l2_kib=32)
        # 96x96 doubles = 72 KiB per matrix: beyond L2 -> refetch regime
        self._compare(build_gemm(96), m, rel=0.6)

    def test_l2_resident_gemm_matches(self):
        m = tiny_machine(l1_kib=4, l2_kib=512)
        # 48x48: all three matrices fit L2 easily -> compulsory regime
        self._compare(build_gemm(48), m, rel=0.6)

    def test_trace_refuses_huge_nests(self):
        from repro.perf.trace import iterate_addresses

        with pytest.raises(ValueError):
            list(iterate_addresses(build_gemm(512).nests[0]))
