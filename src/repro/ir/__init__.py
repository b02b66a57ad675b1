"""Kernel intermediate representation.

The IR describes benchmark kernels as affine loop nests over typed
arrays, precisely enough for real dependence analysis and loop
transformations, while staying compact enough to describe 150+ kernels
by hand in :mod:`repro.suites`.

Public surface::

    from repro.ir import (
        AffineExpr, Array, Access, AccessKind, DType, Language, Layout,
        Loop, LoopNest, OpCount, Statement, Kernel, Feature,
        KernelBuilder, read, write, update,
    )
"""

from repro import _lazy_exports

__all__ = [
    "Access",
    "AccessKind",
    "AccessPattern",
    "AccessSpec",
    "AffineExpr",
    "Array",
    "DepKind",
    "Dependence",
    "Direction",
    "DType",
    "Feature",
    "Kernel",
    "KernelBuilder",
    "Language",
    "Layout",
    "Loop",
    "LoopNest",
    "OpCount",
    "Statement",
    "StrideClass",
    "VectorizationLegality",
    "carried_dependences",
    "check_kernel",
    "classify_access",
    "contiguous_fraction",
    "footprint_bytes",
    "innermost_vectorization_legality",
    "interchange",
    "strip_mine",
    "tile",
    "kernel_from_dict",
    "kernel_from_json",
    "kernel_to_dict",
    "kernel_to_json",
    "is_scop",
    "nest_access_patterns",
    "nest_dependences",
    "permutation_legal",
    "read",
    "reuse_potential",
    "update",
    "validate_kernel",
    "validate_nest",
    "working_set_bytes",
    "working_set_profile",
    "write",
]

__getattr__ = _lazy_exports(__name__, {
    "repro.ir.analysis": (
        "AccessPattern",
        "StrideClass",
        "classify_access",
        "contiguous_fraction",
        "is_scop",
        "nest_access_patterns",
        "reuse_potential",
        "working_set_bytes",
        "working_set_profile",
    ),
    "repro.ir.array": ("Access", "Array", "footprint_bytes"),
    "repro.ir.builder": ("AccessSpec", "KernelBuilder", "read", "update", "write"),
    "repro.ir.dependence": (
        "Dependence",
        "DepKind",
        "Direction",
        "VectorizationLegality",
        "carried_dependences",
        "innermost_vectorization_legality",
        "nest_dependences",
        "permutation_legal",
    ),
    "repro.ir.expr": ("AffineExpr",),
    "repro.ir.kernel": ("Feature", "Kernel"),
    "repro.ir.loop": ("Loop", "LoopNest"),
    "repro.ir.serialize": (
        "kernel_from_dict",
        "kernel_from_json",
        "kernel_to_dict",
        "kernel_to_json",
    ),
    "repro.ir.statement": ("OpCount", "Statement"),
    "repro.ir.transforms": ("interchange", "strip_mine", "tile"),
    "repro.ir.types": ("AccessKind", "DType", "Language", "Layout"),
    "repro.ir.validate": ("check_kernel", "validate_kernel", "validate_nest"),
})
