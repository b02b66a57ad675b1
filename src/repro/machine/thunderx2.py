"""Marvell ThunderX2 machine model (extension).

The paper's related-work section cites several studies ([19], [20])
comparing A64FX against ThunderX2 — the previous generation of Arm HPC
silicon (Astra, Isambard).  This model enables reproducing those
qualitative comparisons with the same IR/compiler machinery: TX2 is a
NEON-only (128-bit), DDR4-fed part with a beefier out-of-order core per
clock but an order of magnitude less bandwidth and vector width than
A64FX.

Constants follow the TX2 CN9980 datasheet: 32 cores at 2.2 GHz
(2.5 GHz turbo), 2x 128-bit NEON FMA pipes, 32 KiB L1d / 256 KiB L2
private, 32 MiB distributed L3, 8 DDR4-2666 channels (~170 GB/s per
two-socket node; we model one socket at ~85 GB/s).
"""

from __future__ import annotations

from repro.machine.cache import CacheLevel
from repro.machine.core import CoreModel
from repro.machine.isa import NEON, SCALAR
from repro.machine.machine import Machine
from repro.machine.memory import MemorySystem
from repro.machine.topology import Topology
from repro.units import KiB, MiB, gb_per_s, ghz

TX2_CORE = CoreModel(
    name="ThunderX2 core",
    frequency_hz=ghz(2.5),
    fp_pipes=2,
    fp_pipe_bits=128,
    int_pipes=4,
    load_ports=2,
    store_ports=1,
    fdiv_cycles=23.0,
    fsqrt_cycles=31.0,
    fspecial_cycles=50.0,
    branch_miss_penalty=14.0,
    ooo_quality=0.80,
)

TX2_L1 = CacheLevel(
    name="L1d",
    capacity_bytes=32 * KiB,
    line_bytes=64,
    associativity=8,
    bytes_per_cycle_per_core=32.0,
    shared_by_cores=1,
)

TX2_L2 = CacheLevel(
    name="L2",
    capacity_bytes=256 * KiB,
    line_bytes=64,
    associativity=8,
    bytes_per_cycle_per_core=32.0,
    shared_by_cores=1,
)

TX2_L3 = CacheLevel(
    name="L3",
    capacity_bytes=32 * MiB,
    line_bytes=64,
    associativity=16,
    bytes_per_cycle_per_core=16.0,
    shared_by_cores=32,
)

TX2_DDR4 = MemorySystem(
    name="DDR4-2666 x8",
    peak_bandwidth=gb_per_s(85.0),
    stream_efficiency=0.80,
    latency=90e-9,
    cores_to_half_saturation=4.0,
)

TX2_TOPOLOGY = Topology(
    name="ThunderX2 socket",
    numa_domains=1,
    cores_per_domain=32,
)


def thunderx2() -> Machine:
    """A single ThunderX2 CN9980 socket."""
    return Machine(
        name="ThunderX2",
        core=TX2_CORE,
        cache_levels=(TX2_L1, TX2_L2, TX2_L3),
        memory=TX2_DDR4,
        topology=TX2_TOPOLOGY,
        isas=(NEON, SCALAR),
        hw_prefetch_quality=0.85,
        base_page_bytes=64 * KiB,
    )
