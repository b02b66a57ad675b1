"""Innermost-loop auto-vectorization.

Legality comes from the dependence analysis
(:func:`repro.ir.dependence.innermost_vectorization_legality`);
profitability and codegen shape come from the variant's capabilities:

* which ISA is targeted (SVE-512 on A64FX, AVX-512 on the Xeon
  reference — GNU 10.2's immature SVE support makes it bail to scalar
  code on strided/predicated loops, one driver of its poor FP results);
* whether FP reductions may be reassociated (fast-math — present in
  every variant's paper flags except GNU's);
* whether indirect streams become hardware gathers;
* predication of conditional bodies.

The resulting :class:`CodegenNestInfo` records the achieved width and a
(0, 1] efficiency multiplier the ECM model applies to vector throughput.
"""

from __future__ import annotations

from repro.compilers.base import CodegenNestInfo, Pass, PassContext
from repro.ir.analysis import StrideClass, nest_access_patterns
from repro.ir.dependence import innermost_vectorization_legality
from repro.ir.kernel import Feature
from repro.machine.isa import SCALAR, VectorISA, isa_by_name


def _select_isa(ctx: PassContext) -> VectorISA:
    """First ISA in the variant's preference order the machine supports.

    Without ``-march=native``-style targeting the compiler stays on the
    architecture baseline (NEON on Arm, AVX2 on x86), i.e. the widest
    machine ISA is skipped — this is what the flag-ablation benchmark
    exercises.
    """
    machine_isas = {isa.name for isa in ctx.machine.isas}
    widest = ctx.machine.widest_isa.name
    for name in ctx.caps.isa_preference:
        if name == widest and not ctx.flags.march_native:
            continue
        if name in machine_isas or name == "scalar":
            return isa_by_name(name)
    return SCALAR


class VectorizePass(Pass):
    """Vectorize the innermost loop where legal and profitable."""

    name = "vectorize"

    def run(self, info: CodegenNestInfo, ctx: PassContext) -> None:
        if info.eliminated or info.vectorized:
            return
        caps, flags = ctx.caps, ctx.flags
        if flags.opt_level < 2:
            info.vector_blocker = "auto-vectorizer off below -O2"
            return
        isa = _select_isa(ctx)
        if isa is SCALAR:
            info.vector_blocker = "no vector ISA targeted"
            return

        nest = info.nest
        verdict = innermost_vectorization_legality(nest, ctx.dependences(nest))
        if not verdict.legal:
            info.vector_blocker = "carried dependence blocks SIMD"
            return
        if verdict.needs_reduction_reassociation:
            if caps.reduction_requires_fastmath and not flags.fast_math:
                # GNU at -O3: FP reductions stay scalar.
                info.vector_blocker = "FP reduction needs fast-math to reassociate"
                return
        if verdict.needs_runtime_checks and not caps.runtime_alias_checks:
            info.vector_blocker = "needs runtime alias checks the compiler won't emit"
            return

        # Dependent-load chains (binary searches, list walks) cannot be
        # turned into vector code at all.
        if ctx.kernel.has_feature(Feature.POINTER_CHASING):
            info.vector_blocker = "dependent-load chain"
            return

        patterns = nest_access_patterns(nest)
        has_indirect = any(p.stride_class is StrideClass.INDIRECT for p in patterns)
        has_strided = any(p.stride_class is StrideClass.STRIDED for p in patterns)
        has_predicated = any(s.predicated for s in nest.body)
        has_indirect_write = any(
            a.indirect and a.kind.writes for a in nest.accesses
        )

        # Scattered read-modify-writes (histogramming) have intra-vector
        # conflict hazards; none of the studied compilers vectorize them.
        if has_indirect_write:
            info.vector_blocker = "scattered read-modify-write (conflict hazard)"
            return
        if has_indirect and not (caps.vectorize_gather and isa.has_gather):
            info.vector_blocker = "indirect streams need hardware gathers"
            return
        if has_strided and not caps.vectorize_strided:
            info.vector_blocker = "immature SVE codegen on strided streams"
            return
        if has_predicated and not (caps.predication and isa.has_predication):
            info.vector_blocker = "no profitable predication of conditional bodies"
            return

        dtype = info.dominant_dtype
        lanes = isa.lanes(dtype)
        if lanes <= 1:
            info.vector_blocker = f"{isa.name} has one {dtype.label} lane"
            return

        efficiency = caps.vec_quality.get(ctx.language, 0.8)
        # Loop bodies full of calls only vectorize to the extent the
        # inliner flattens them (and LTO widens the inliner's reach).
        if ctx.kernel.has_feature(Feature.NEEDS_INLINING):
            from repro.compilers.flags import LtoMode

            inline = caps.inline_quality
            if flags.lto is LtoMode.OFF:
                inline *= 0.80
            elif flags.lto is LtoMode.THIN:
                inline *= 0.97
            if inline < 0.5:
                info.vector_blocker = "calls in the body are not inlined"
                return
            efficiency *= inline
        # Remainder/epilogue cost for short trip counts.
        trip = nest.innermost.trip_count
        if trip > 0:
            efficiency *= trip / (trip + 0.5 * lanes)
        # Masked conditional bodies execute both sides' work.
        if has_predicated:
            efficiency *= 0.70
        # Strided vector loads crack into multiple line transactions.
        if has_strided:
            efficiency *= 0.80

        info.vectorized = True
        info.vector_isa = isa
        info.vec_lanes = lanes
        info.vec_efficiency = max(0.05, min(1.0, efficiency))
        info.uses_gather = has_indirect
        info.fma_contracted = flags.opt_level >= 2
        if verdict.needs_runtime_checks:
            info.runtime_check_overhead += 0.03
        info.mark(self.name)
