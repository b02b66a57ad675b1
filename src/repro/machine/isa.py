"""Vector ISA descriptors.

The study's headline hardware feature is Arm's Scalable Vector
Extension (SVE) at A64FX's 512-bit implementation; the compiler models
differ in whether and how well they target it (e.g. GNU 10.2 can emit
SVE but frequently falls back to 128-bit NEON on FP-heavy OpenMP loops,
one of the paper's Section 3.3 findings).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineConfigError
from repro.ir.types import DType


@dataclass(frozen=True)
class VectorISA:
    """One vector instruction-set level a compiler can target."""

    name: str
    vector_bits: int
    #: Per-lane predication (SVE/AVX-512 masks).  Without it, loops with
    #: conditionals need scalar fallbacks or blend sequences.
    has_predication: bool
    #: Hardware gather loads (indirect reads in vector code).
    has_gather: bool
    #: Relative per-element cost of a gather versus a contiguous vector
    #: load (A64FX gathers are element-serialized: ~1 element/cycle).
    gather_cost_per_element: float = 1.0

    def __post_init__(self) -> None:
        if self.vector_bits <= 0 or self.vector_bits % 64:
            raise MachineConfigError(
                f"{self.name}: vector width must be a positive multiple of 64 bits"
            )

    def lanes(self, dtype: DType) -> int:
        """SIMD lanes for elements of ``dtype``."""
        return max(1, self.vector_bits // (dtype.size * 8))

    def __str__(self) -> str:
        return f"{self.name}({self.vector_bits}b)"


#: Scalar fallback (no SIMD at all).
SCALAR = VectorISA("scalar", 64, has_predication=False, has_gather=False)

#: Arm NEON / ASIMD: 128-bit, no predication, no gather.
NEON = VectorISA("neon", 128, has_predication=False, has_gather=False)

#: Arm SVE at A64FX's 512-bit width; gathers are element-serialized.
SVE512 = VectorISA(
    "sve512",
    512,
    has_predication=True,
    has_gather=True,
    gather_cost_per_element=1.0,
)

#: Intel AVX2 (256-bit, gathers but no scatter, no masking to speak of).
AVX2 = VectorISA(
    "avx2",
    256,
    has_predication=False,
    has_gather=True,
    gather_cost_per_element=0.8,
)

#: Intel AVX-512 (Skylake-SP/Cascade Lake server implementation).
AVX512 = VectorISA(
    "avx512",
    512,
    has_predication=True,
    has_gather=True,
    gather_cost_per_element=0.6,
)

ALL_ISAS: tuple[VectorISA, ...] = (SCALAR, NEON, SVE512, AVX2, AVX512)


def isa_by_name(name: str) -> VectorISA:
    for isa in ALL_ISAS:
        if isa.name == name:
            return isa
    raise MachineConfigError(f"unknown vector ISA {name!r}")
