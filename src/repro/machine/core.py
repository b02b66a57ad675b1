"""Core microarchitecture parameters.

These are datasheet/microbenchmark quantities the ECM-style compute
model (:mod:`repro.perf.ecm`) consumes.  A64FX's core is wide for SIMD
FP (two 512-bit FLA/FLB pipes) but comparatively weak at scalar and
integer work (modest out-of-order window, 2 integer pipes) — one of the
microarchitectural reasons the paper's single-threaded SPEC integer
results are so compiler-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineConfigError


@dataclass(frozen=True)
class CoreModel:
    """Execution resources of one core."""

    name: str
    frequency_hz: float
    #: Number of SIMD FP pipes (FMA-capable).
    fp_pipes: int
    #: Native width of those pipes in bits.
    fp_pipe_bits: int
    #: Scalar integer ALU pipes.
    int_pipes: int
    #: Vector load issue slots per cycle.
    load_ports: int
    #: Vector store issue slots per cycle.
    store_ports: int
    #: Cycles per vector FP divide (per full vector, pipelined poorly).
    fdiv_cycles: float
    #: Cycles per vector FP square root.
    fsqrt_cycles: float
    #: Cycles per vector "special function" (exp/log/trig via libm or
    #: vendor vector-math library).
    fspecial_cycles: float
    #: Branch misprediction penalty in cycles.
    branch_miss_penalty: float
    #: Out-of-order effectiveness in [0, 1]: how well the core overlaps
    #: independent scalar work and hides L1/L2 latency.  Xeon ~0.9,
    #: A64FX ~0.55 (shallower scheduler, weaker scalar engine).
    ooo_quality: float

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise MachineConfigError(f"{self.name}: frequency must be positive")
        for attr in ("fp_pipes", "fp_pipe_bits", "int_pipes", "load_ports", "store_ports"):
            if getattr(self, attr) <= 0:
                raise MachineConfigError(f"{self.name}: {attr} must be positive")
        if not 0 < self.ooo_quality <= 1:
            raise MachineConfigError(f"{self.name}: ooo_quality must be in (0,1]")

    @property
    def peak_dp_flops(self) -> float:
        """Peak double-precision flop/s of one core (FMA counted as 2)."""
        lanes = self.fp_pipe_bits // 64
        return self.frequency_hz * self.fp_pipes * lanes * 2.0

    def fp_ops_per_cycle(self, vector_bits: int, element_bits: int) -> float:
        """FP *instructions* retireable per cycle at a given codegen
        vector width (instructions wider than the pipe are cracked)."""
        if vector_bits <= self.fp_pipe_bits:
            return float(self.fp_pipes)
        crack = vector_bits / self.fp_pipe_bits
        return self.fp_pipes / crack

    def __str__(self) -> str:
        return f"{self.name} @ {self.frequency_hz / 1e9:.2f} GHz"
