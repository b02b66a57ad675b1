"""Performance models: traffic, ECM costing, scaling, noise, and the
benchmark cost model — one implementation in :mod:`repro.perf.batch`,
whose one-placement form is :func:`repro.perf.cost.benchmark_model`."""

from repro.perf.batch import (
    GridCell,
    GridResult,
    GridSpec,
    NestFeatures,
    evaluate_grid,
    evaluate_placements,
    nest_features,
)
from repro.perf.cost import (
    CACHE_SCHEMA_VERSION,
    CompilationCache,
    ModelResult,
    UnitBreakdown,
    benchmark_model,
    kernel_fingerprint,
    machine_fingerprint,
    machine_memo_key,
)
from repro.perf.ecm import NestTime, cycles_per_iteration, nest_time
from repro.perf.energy import (
    POWER_MODELS,
    EnergyReport,
    PowerModel,
    benchmark_energy,
    power_model_for,
)
from repro.perf.noise import noise_multiplier, timer_resolution_floor
from repro.perf.roofline import (
    RooflinePoint,
    machine_balance,
    roofline_point,
    roofline_table,
)
from repro.perf.scaling import numa_spill_penalty, omp_region_overhead_s
from repro.perf.traffic import BoundaryTraffic, TrafficReport, nest_traffic

__all__ = [
    "BoundaryTraffic",
    "CACHE_SCHEMA_VERSION",
    "kernel_fingerprint",
    "machine_fingerprint",
    "EnergyReport",
    "POWER_MODELS",
    "PowerModel",
    "benchmark_energy",
    "power_model_for",
    "CompilationCache",
    "GridCell",
    "GridResult",
    "GridSpec",
    "ModelResult",
    "NestFeatures",
    "NestTime",
    "RooflinePoint",
    "TrafficReport",
    "UnitBreakdown",
    "benchmark_model",
    "cycles_per_iteration",
    "evaluate_grid",
    "evaluate_placements",
    "machine_memo_key",
    "nest_features",
    "nest_time",
    "nest_traffic",
    "machine_balance",
    "roofline_point",
    "roofline_table",
    "noise_multiplier",
    "numa_spill_penalty",
    "omp_region_overhead_s",
    "timer_resolution_floor",
]
