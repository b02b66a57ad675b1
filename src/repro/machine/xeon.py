"""The Intel Xeon reference machine for Figure 1.

The paper compares PolyBench on A64FX against "an Intel reference
architecture"; we model a Cascade Lake server part (Xeon Gold 6240-
class): 18 cores at 2.6 GHz base / ~3.3 GHz single-core turbo with
AVX-512 (two FMA pipes), the classic 32 KiB L1 / 1 MiB L2 / shared L3,
and six DDR4-2933 channels.  PolyBench is single-threaded and pinned,
so the single-core turbo clock and the private caches dominate.
"""

from __future__ import annotations

from repro.machine.cache import CacheLevel
from repro.machine.core import CoreModel
from repro.machine.isa import AVX2, AVX512, SCALAR
from repro.machine.machine import Machine
from repro.machine.memory import MemorySystem
from repro.machine.topology import Topology
from repro.units import KiB, MiB, gb_per_s, ghz

XEON_CORE = CoreModel(
    name="Xeon (Cascade Lake) core",
    frequency_hz=ghz(3.3),  # single-core turbo; PolyBench is 1-thread
    fp_pipes=2,
    fp_pipe_bits=512,
    int_pipes=4,
    load_ports=2,
    store_ports=1,
    fdiv_cycles=16.0,
    fsqrt_cycles=24.0,
    fspecial_cycles=40.0,
    branch_miss_penalty=17.0,
    ooo_quality=0.90,
)

XEON_L1 = CacheLevel(
    name="L1d",
    capacity_bytes=32 * KiB,
    line_bytes=64,
    associativity=8,
    bytes_per_cycle_per_core=128.0,
    shared_by_cores=1,
)

XEON_L2 = CacheLevel(
    name="L2",
    capacity_bytes=1 * MiB,
    line_bytes=64,
    associativity=16,
    bytes_per_cycle_per_core=64.0,
    shared_by_cores=1,
)

XEON_L3 = CacheLevel(
    name="L3",
    capacity_bytes=24 * MiB,  # modelled at 24 MiB/12-way (datasheet: 24.75, 11-way)
    line_bytes=64,
    associativity=12,
    bytes_per_cycle_per_core=32.0,
    shared_by_cores=18,
)

XEON_DDR4 = MemorySystem(
    name="DDR4-2933 x6",
    peak_bandwidth=gb_per_s(141.0),
    stream_efficiency=0.78,
    latency=85e-9,
    cores_to_half_saturation=4.0,
)

XEON_TOPOLOGY = Topology(
    name="Xeon socket",
    numa_domains=1,
    cores_per_domain=18,
)


def xeon() -> Machine:
    """The Intel Xeon reference node used in Figure 1."""
    return Machine(
        name="Xeon",
        core=XEON_CORE,
        cache_levels=(XEON_L1, XEON_L2, XEON_L3),
        memory=XEON_DDR4,
        topology=XEON_TOPOLOGY,
        isas=(AVX512, AVX2, SCALAR),
        hw_prefetch_quality=0.9,
        base_page_bytes=4 * KiB,
    )
