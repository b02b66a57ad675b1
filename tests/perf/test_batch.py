"""Tests for the batched grid evaluator (repro.perf.batch).

The scalar :func:`repro.perf.cost.benchmark_model` is the reference
oracle: the differential tests sweep the full default campaign grid and
assert the batched path reproduces every scalar ``ModelResult``
bit-identically, failed-build ``inf`` cells included.  Property tests
pin the feature-matrix extractor to the scalar traffic/ECM models on
degenerate (zero-trip) and triangular-approximated nests.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GridSpec, evaluate_grid
from repro.compilers.base import CodegenNestInfo
from repro.compilers.registry import STUDY_VARIANTS
from repro.errors import HarnessError
from repro.harness import placement_candidates
from repro.ir import AccessKind, KernelBuilder, Language
from repro.ir.builder import AccessSpec
from repro.machine import CacheLevel, Machine, SCALAR, a64fx
from repro.machine.core import CoreModel
from repro.machine.memory import MemorySystem
from repro.machine.select import resolve_machine
from repro.machine.topology import Topology
from repro.perf import (
    CompilationCache,
    benchmark_model,
    evaluate_placements,
    nest_features,
)
from repro.perf.ecm import cycles_per_iteration
from repro.perf.traffic import nest_traffic
from repro.suites import all_benchmarks, micro_suite
from repro.units import KiB, gb_per_s, ghz


class TestDifferentialFullGrid:
    @pytest.mark.parametrize(
        "machine_name, min_cells",
        [("a64fx", 4000), ("xeon", 3000), ("thunderx2", 3000)],
        ids=["a64fx", "xeon", "thunderx2"],
    )
    def test_full_default_grid_bit_identical(self, machine_name, min_cells):
        """Every (benchmark, variant, placement) cell of the default
        campaign grid: batched == scalar, exactly."""
        machine = resolve_machine(machine_name)
        cache = CompilationCache()
        cells = 0
        failed = 0
        for bench in all_benchmarks():
            placements = placement_candidates(bench, machine)
            for variant in STUDY_VARIANTS:
                batched = evaluate_placements(
                    bench, variant, machine, placements, cache=cache
                )
                assert len(batched) == len(placements)
                for placement, got in zip(placements, batched):
                    want = benchmark_model(
                        bench, variant, machine, placement, cache=cache
                    )
                    assert got == want, (bench.full_name, variant, placement)
                    cells += 1
                    if not want.valid:
                        failed += 1
                        assert got.time_s == float("inf")
        assert cells > min_cells
        # Figure 2's compile/runtime-failure cells must be represented.
        assert failed > 0

    def test_failed_build_cell_is_inf(self, a64fx_machine):
        # micro.k22 is a compile-error cell under FJclang (Figure 2).
        bench = micro_suite().get("k22")
        placements = placement_candidates(bench, a64fx_machine)
        results = evaluate_placements(bench, "FJclang", a64fx_machine, placements)
        for r in results:
            assert not r.valid
            assert r.time_s == float("inf")

    def test_results_are_plain_floats(self, a64fx_machine):
        # Record times are json-serialized downstream: no numpy scalar
        # types may leak out of the batched path.
        bench = micro_suite().get("k04")
        placements = placement_candidates(bench, a64fx_machine)
        assert len(placements) > 1  # exercises the vectorized branch
        for r in evaluate_placements(bench, "GNU", a64fx_machine, placements):
            assert type(r.time_s) is float
            assert type(r.compute_s) is float
            assert type(r.memory_s) is float
            assert type(r.comm_s) is float


class TestEvaluateGrid:
    def test_grid_matches_evaluate_placements(self, a64fx_machine):
        grid = evaluate_grid(
            GridSpec(suites=("top500",), variants=("GNU", "LLVM"))
        )
        assert grid.machine == "A64FX"
        assert len(grid.cells) == 6  # 3 benchmarks x 2 variants
        for cell in grid.cells:
            bench = next(
                b for b in all_benchmarks() if b.full_name == cell.benchmark
            )
            want = evaluate_placements(
                bench, cell.variant, a64fx_machine, cell.placements
            )
            assert cell.results == want

    def test_overrides_and_cell_lookup(self):
        grid = evaluate_grid(benchmarks=("polybench.gemm",), variants=("GNU",))
        cell = grid.cell("polybench.gemm", "GNU")
        assert cell.best.valid
        assert cell.best.time_s == min(r.time_s for r in cell.results)

    def test_unknown_machine_rejected(self):
        with pytest.raises(HarnessError):
            evaluate_grid(GridSpec(machine="cray-1"))

    def test_spec_with_(self):
        spec = GridSpec().with_(variants=("GNU",))
        assert spec.variants == ("GNU",)


def _machine(l1_kib: int = 32) -> Machine:
    core = CoreModel("p", ghz(2.0), 2, 512, 2, 2, 1, 40, 50, 60, 10, 0.6)
    l1 = CacheLevel("L1d", l1_kib * KiB, 64, 4, 4, 128, 1)
    l2 = CacheLevel("L2", 4096 * KiB, 64, 8, 30, 64, 4)
    mem = MemorySystem("mem", gb_per_s(100), 0.8, 100e-9)
    return Machine("p", core, (l1, l2), mem, Topology("t", 1, 4), (SCALAR,))


@st.composite
def triangularish_nest(draw):
    """A 2-deep nest with triangular-style bounds: a nonzero lower
    bound and/or a halved inner trip (the polybench_la approximation),
    possibly zero-trip."""
    n = draw(st.sampled_from([0, 1, 16, 48]))
    lo = draw(st.integers(0, 8))
    hi = lo + draw(st.sampled_from([0, n // 2 if n else 0, n]))
    b = KernelBuilder("tri", Language.C)
    b.array("L", (64, 64))
    b.array("x", (64,))
    specs = [
        AccessSpec("L", ("i", "j"), AccessKind.READ),
        AccessSpec(
            "x",
            (draw(st.sampled_from(["i", "j"])),),
            draw(st.sampled_from([AccessKind.READ, AccessKind.UPDATE])),
        ),
    ]
    stmt = b.stmt(*specs, fadd=draw(st.integers(0, 3)), fmul=draw(st.integers(0, 2)))
    return b.nest([("i", n), ("j", lo, hi)], [stmt])


class TestFeatureMatrixProperties:
    @settings(max_examples=60, deadline=None)
    @given(triangularish_nest(), st.sampled_from([1, 3, 12]))
    def test_traffic_matches_scalar_oracle(self, nest, acpd):
        machine = _machine()
        info = CodegenNestInfo(nest=nest)
        features = nest_features(info, machine)
        assert features.traffic_for(acpd) == nest_traffic(info, machine, acpd)

    @settings(max_examples=40, deadline=None)
    @given(triangularish_nest())
    def test_cpi_matches_scalar_oracle(self, nest):
        machine = _machine()
        info = CodegenNestInfo(nest=nest)
        features = nest_features(info, machine)
        if features.empty:
            assert nest.iterations == 0
        else:
            assert features.cpi == cycles_per_iteration(info, machine)
            assert math.isfinite(features.cpi) and features.cpi > 0

    def test_zero_trip_nest_is_empty(self):
        machine = _machine()
        b = KernelBuilder("z", Language.C)
        b.array("A", (8, 8))
        stmt = b.stmt(AccessSpec("A", ("i", "j"), AccessKind.READ), fadd=1)
        nest = b.nest([("i", 0), ("j", 8)], [stmt])
        info = CodegenNestInfo(nest=nest)
        features = nest_features(info, machine)
        assert features.empty
        report = features.traffic_for(1)
        assert report == nest_traffic(info, machine, 1)
        assert all(bd.total_bytes == 0.0 for bd in report.boundaries)

    def test_features_memoized_by_identity(self):
        machine = a64fx()
        b = KernelBuilder("memo", Language.C)
        b.array("A", (16, 16))
        stmt = b.stmt(AccessSpec("A", ("i", "j"), AccessKind.READ), fadd=1)
        nest = b.nest([("i", 16), ("j", 16)], [stmt])
        info = CodegenNestInfo(nest=nest)
        assert nest_features(info, machine) is nest_features(info, machine)


class TestGridCellRanked:
    def test_ranked_fastest_first_ties_keep_order(self, a64fx_machine):
        grid = evaluate_grid(benchmarks=("ecp.nekbone",), variants=("GNU",))
        cell = grid.cell("ecp.nekbone", "GNU")
        ranked = cell.ranked
        assert len(ranked) == len(cell.results)
        times = [r.time_s for r in ranked]
        assert times == sorted(times)
        assert ranked[0] == cell.best
        # a permutation, nothing dropped
        assert sorted(ranked, key=id) != [] and set(
            id(r) for r in ranked
        ) == set(id(r) for r in cell.results)
