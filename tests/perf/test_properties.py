"""Property-based invariants of the performance models.

Random small kernels are generated with hypothesis, and physical
invariants are asserted: traffic is non-negative and no smaller than
compulsory, bigger caches never increase traffic, more threads never
slow compute, tiling never adds memory traffic, and the ECM total is
never below its slowest component.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compilers.base import CodegenNestInfo
from repro.ir import AccessKind, KernelBuilder, Language
from repro.ir.builder import AccessSpec
from repro.machine import CacheLevel, Machine, SCALAR
from repro.machine.core import CoreModel
from repro.machine.memory import MemorySystem
from repro.machine.topology import Topology
from repro.perf.ecm import nest_time
from repro.perf.traffic import nest_traffic
from repro.units import KiB, gb_per_s, ghz


def machine_with_l1(l1_kib: int) -> Machine:
    core = CoreModel("p", ghz(2.0), 2, 512, 2, 2, 1, 40, 50, 60, 10, 0.6)
    l1 = CacheLevel("L1d", l1_kib * KiB, 64, 4, 128, 1)
    l2 = CacheLevel("L2", 4096 * KiB, 64, 8, 64, 4)
    mem = MemorySystem("mem", gb_per_s(100), 0.8, 100e-9)
    return Machine("p", core, (l1, l2), mem, Topology("t", 1, 4), (SCALAR,))


@st.composite
def random_affine_nest(draw):
    """A random 2-deep affine nest over up to three arrays."""
    n = draw(st.sampled_from([16, 32, 64]))
    m = draw(st.sampled_from([16, 32]))
    b = KernelBuilder("prop", Language.C)
    b.array("A", (n, m))
    b.array("B", (n, m))
    b.array("v", (max(n, m),))
    specs = []
    n_accesses = draw(st.integers(1, 4))
    for _ in range(n_accesses):
        arr = draw(st.sampled_from(["A", "B", "v"]))
        kind = draw(st.sampled_from([AccessKind.READ, AccessKind.WRITE, AccessKind.UPDATE]))
        if arr == "v":
            idx = (draw(st.sampled_from(["i", "j"])),)
        else:
            idx = (
                draw(st.sampled_from(["i", "i"])),
                draw(st.sampled_from(["j", "j"])),
            )
        specs.append(AccessSpec(arr, idx, kind))
    stmt = b.stmt(*specs, fadd=draw(st.integers(0, 4)), iops=draw(st.integers(0, 2)))
    return b.nest([("i", n), ("j", m)], [stmt])


class TestTrafficInvariants:
    @settings(max_examples=60, deadline=None)
    @given(random_affine_nest(), st.sampled_from([2, 8, 32]))
    def test_volumes_nonnegative_and_fractions_bounded(self, nest, l1_kib):
        machine = machine_with_l1(l1_kib)
        report = nest_traffic(CodegenNestInfo(nest=nest), machine)
        for b in report.boundaries:
            assert b.read_bytes >= 0 and b.write_bytes >= 0
            assert 0.0 <= b.latency_exposed_fraction <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(random_affine_nest())
    def test_bigger_l1_never_increases_l2_traffic(self, nest):
        small = nest_traffic(CodegenNestInfo(nest=nest), machine_with_l1(2))
        big = nest_traffic(CodegenNestInfo(nest=nest), machine_with_l1(64))
        assert big.boundaries[0].total_bytes <= small.boundaries[0].total_bytes * 1.001

    @settings(max_examples=40, deadline=None)
    @given(random_affine_nest())
    def test_tiling_never_increases_memory_traffic(self, nest):
        machine = machine_with_l1(8)
        plain = nest_traffic(CodegenNestInfo(nest=nest), machine)
        tiled = nest_traffic(
            CodegenNestInfo(nest=nest, tile_working_set=64 * KiB), machine
        )
        assert tiled.memory_bytes <= plain.memory_bytes * 1.001

    @settings(max_examples=40, deadline=None)
    @given(random_affine_nest())
    def test_streaming_stores_never_add_traffic(self, nest):
        machine = machine_with_l1(8)
        with_alloc = nest_traffic(
            CodegenNestInfo(nest=nest, streaming_stores=False), machine
        )
        nt = nest_traffic(CodegenNestInfo(nest=nest, streaming_stores=True), machine)
        assert nt.memory_bytes <= with_alloc.memory_bytes * 1.001


class TestEcmInvariants:
    @settings(max_examples=40, deadline=None)
    @given(random_affine_nest(), st.sampled_from([1, 2, 4]))
    def test_time_positive_and_total_covers_components(self, nest, threads):
        machine = machine_with_l1(8)
        t = nest_time(CodegenNestInfo(nest=nest), machine, threads=threads)
        assert t.total_s > 0
        assert t.total_s >= t.compute_s * 0.999
        assert t.total_s >= max(t.transfer_s) * 0.999

    @settings(max_examples=30, deadline=None)
    @given(random_affine_nest())
    def test_more_threads_never_slow_compute(self, nest):
        machine = machine_with_l1(8)
        t1 = nest_time(CodegenNestInfo(nest=nest), machine, threads=1)
        t4 = nest_time(CodegenNestInfo(nest=nest), machine, threads=4, active_cores_per_domain=4)
        assert t4.compute_s <= t1.compute_s * 1.001

    @settings(max_examples=30, deadline=None)
    @given(random_affine_nest(), st.floats(0.1, 1.0))
    def test_work_fraction_linear_in_compute(self, nest, frac):
        machine = machine_with_l1(8)
        full = nest_time(CodegenNestInfo(nest=nest), machine)
        part = nest_time(CodegenNestInfo(nest=nest), machine, work_fraction=frac)
        assert part.compute_s == pytest.approx(full.compute_s * frac, rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(random_affine_nest(), st.floats(1.0, 3.0))
    def test_numa_penalty_monotone(self, nest, penalty):
        machine = machine_with_l1(8)
        base = nest_time(CodegenNestInfo(nest=nest), machine)
        pen = nest_time(CodegenNestInfo(nest=nest), machine, numa_penalty=penalty)
        assert pen.total_s >= base.total_s * 0.999
