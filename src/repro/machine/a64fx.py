"""The Fujitsu A64FX machine model (Fugaku compute node).

Constants follow the public A64FX datasheet and the Fugaku co-design
papers ([4], [5] in the reproduced paper):

* 48 compute cores at 2.2 GHz (Fugaku "boost off" clock used for the
  paper's runs), organized as 4 CMGs x 12 cores;
* per core: two 512-bit SVE FMA pipes -> 70.4 GF/s DP, 3.379 TF/s node;
* L1d 64 KiB 4-way private, 256 B lines; L2 8 MiB 16-way per CMG;
  no L3;
* HBM2: 8 GiB and 256 GB/s per CMG (1024 GB/s node), measured STREAM
  triad ~840 GB/s (~0.82 efficiency), latency ~130 ns;
* the scalar/OoO engine is modest compared to server Xeons — reflected
  in ``ooo_quality`` and the integer pipe count.
"""

from __future__ import annotations

from repro.machine.cache import CacheLevel
from repro.machine.core import CoreModel
from repro.machine.isa import NEON, SCALAR, SVE512
from repro.machine.machine import Machine
from repro.machine.memory import MemorySystem
from repro.machine.topology import Topology
from repro.units import GiB, KiB, MiB, gb_per_s, ghz

A64FX_CORE = CoreModel(
    name="A64FX core",
    frequency_hz=ghz(2.2),
    fp_pipes=2,
    fp_pipe_bits=512,
    int_pipes=2,
    load_ports=2,
    store_ports=1,
    fdiv_cycles=43.0,  # 512-bit DP fdiv, unpipelined on A64FX
    fsqrt_cycles=52.0,
    fspecial_cycles=60.0,
    branch_miss_penalty=12.0,
    ooo_quality=0.55,
)

A64FX_L1 = CacheLevel(
    name="L1d",
    capacity_bytes=64 * KiB,
    line_bytes=256,
    associativity=4,
    bytes_per_cycle_per_core=128.0,  # 2x 512-bit loads/cycle
    shared_by_cores=1,
)

A64FX_L2 = CacheLevel(
    name="L2",
    capacity_bytes=8 * MiB,
    line_bytes=256,
    associativity=16,
    bytes_per_cycle_per_core=64.0,
    shared_by_cores=12,
)

A64FX_HBM2 = MemorySystem(
    name="HBM2 (per CMG)",
    peak_bandwidth=gb_per_s(256.0),
    stream_efficiency=0.82,
    latency=130e-9,
    cores_to_half_saturation=3.0,
)

A64FX_TOPOLOGY = Topology(
    name="A64FX node (4 CMGs)",
    numa_domains=4,
    cores_per_domain=12,
)


def a64fx() -> Machine:
    """A Fugaku A64FX compute node at the paper's 2.2 GHz clock."""
    return Machine(
        name="A64FX",
        core=A64FX_CORE,
        cache_levels=(A64FX_L1, A64FX_L2),
        memory=A64FX_HBM2,
        topology=A64FX_TOPOLOGY,
        isas=(SVE512, NEON, SCALAR),
        hw_prefetch_quality=0.75,
        base_page_bytes=64 * KiB,
    )


#: Per-CMG HBM2 capacity (limits problem sizes per rank).
A64FX_MEMORY_PER_CMG = 8 * GiB
