"""Tests for the energy-to-solution extension."""

import pytest

from repro.errors import MachineConfigError
from repro.machine import Placement, a64fx
from repro.perf.energy import POWER_MODELS, PowerModel, benchmark_energy, power_model_for
from repro.suites import get_benchmark


class TestPowerModel:
    def test_all_machines_covered(self):
        assert set(POWER_MODELS) >= {"A64FX", "Xeon", "ThunderX2"}

    def test_negative_rejected(self):
        with pytest.raises(MachineConfigError):
            PowerModel("x", -1, 1, 1)

    def test_unknown_machine_rejected(self):
        from repro.machine import CacheLevel, Machine, SCALAR
        from repro.machine.core import CoreModel
        from repro.machine.memory import MemorySystem
        from repro.machine.topology import Topology
        from repro.units import KiB, gb_per_s, ghz

        m = Machine(
            "Mystery",
            CoreModel("c", ghz(1), 1, 128, 1, 1, 1, 10, 10, 10, 10, 0.5),
            (CacheLevel("L1", capacity_bytes=32 * KiB, line_bytes=64,
                        associativity=4, bytes_per_cycle_per_core=64),),
            MemorySystem("m", gb_per_s(10), 0.8, 1e-7),
            Topology("t", 1, 1),
            (SCALAR,),
        )
        with pytest.raises(MachineConfigError):
            power_model_for(m)


class TestBenchmarkEnergy:
    def test_hpl_near_green500(self, a64fx_machine):
        """Fugaku's Green500 submission: ~15 GF/W on HPL."""
        bench = get_benchmark("top500.hpl")
        report = benchmark_energy(bench, "FJtrad", a64fx_machine, Placement(4, 12))
        assert 10.0 <= report.gflops_per_w <= 22.0
        assert 120.0 <= report.avg_power_w <= 300.0

    def test_memory_bound_burns_bandwidth_power(self, a64fx_machine):
        bench = get_benchmark("top500.babelstream")
        report = benchmark_energy(bench, "LLVM", a64fx_machine, Placement(1, 48))
        # streaming at ~800 GB/s: the bandwidth term is visible
        assert report.avg_power_w > 150.0
        assert report.gflops_per_w < 5.0

    def test_faster_compiler_saves_energy(self, a64fx_machine):
        """The Green500 subtext: the best compiler cuts joules too."""
        bench = get_benchmark("polybench.2mm")
        p = Placement(1, 1)
        fj = benchmark_energy(bench, "FJtrad", a64fx_machine, p)
        llvm = benchmark_energy(bench, "LLVM", a64fx_machine, p)
        assert llvm.energy_j < fj.energy_j / 3

    def test_failed_build_infinite_energy(self, a64fx_machine):
        bench = get_benchmark("micro.k22")
        report = benchmark_energy(bench, "FJclang", a64fx_machine, Placement(1, 12))
        assert report.energy_j == float("inf")
        assert report.gflops_per_w == 0.0
