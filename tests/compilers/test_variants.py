"""Tests for the compiler registry, variants, delegation, incidents."""

import pytest

from repro.compilers import (
    BASELINE_VARIANT,
    STUDY_VARIANTS,
    CompileStatus,
    available_variants,
    compile_kernel,
    get_compiler,
)
from repro.errors import ReproError
from repro.ir import Language
from tests.conftest import build_gemm, build_stream


class TestRegistry:
    def test_study_variants_are_the_papers_five(self):
        assert STUDY_VARIANTS == ("FJtrad", "FJclang", "LLVM", "LLVM+Polly", "GNU")

    def test_baseline_is_fjtrad(self):
        assert BASELINE_VARIANT == "FJtrad"

    def test_icc_available_but_not_a_study_variant(self):
        assert "icc" in available_variants()
        assert "icc" not in STUDY_VARIANTS

    def test_unknown_variant_rejected(self):
        with pytest.raises(ReproError):
            get_compiler("msvc")

    def test_each_variant_instantiates_with_own_caps(self):
        for v in STUDY_VARIANTS:
            c = get_compiler(v)
            assert c.variant == v
            assert c.caps.name == v

    def test_default_flags_match_paper(self):
        assert get_compiler("FJtrad").default_flags().ocl
        assert get_compiler("LLVM").default_flags().fast_math
        assert not get_compiler("GNU").default_flags().fast_math
        assert get_compiler("LLVM+Polly").default_flags().polly


class TestCompileRunsNoAnalysis:
    def test_compile_never_calls_the_static_analyzer(self, a64fx_machine, monkeypatch):
        # Fresh kernel objects miss every analyzer memo, so any analysis
        # inside compilation would reach analyze_kernel and raise.
        def refuse(*args, **kwargs):
            raise AssertionError("compilation ran the static analyzer")

        monkeypatch.setattr("repro.staticanalysis.driver.analyze_kernel", refuse)
        for language in (Language.C, Language.FORTRAN):
            kernel = build_gemm(96, language)
            for variant in STUDY_VARIANTS:
                assert compile_kernel(variant, kernel, a64fx_machine).ok


class TestFortranDelegation:
    def test_llvm_fortran_uses_frt_pipeline(self, a64fx_machine):
        kernel = build_gemm(128, Language.FORTRAN)
        llvm = compile_kernel("LLVM", kernel, a64fx_machine)
        fj = compile_kernel("FJtrad", kernel, a64fx_machine)
        assert llvm.compiler == "LLVM"  # labelled as the requesting env
        assert any("frt" in d for d in llvm.diagnostics)
        # codegen identical to FJtrad's
        assert llvm.nest_infos[0].nest.loop_vars == fj.nest_infos[0].nest.loop_vars
        assert llvm.nest_infos[0].vec_efficiency == fj.nest_infos[0].vec_efficiency

    def test_gnu_compiles_fortran_itself(self, a64fx_machine):
        kernel = build_gemm(128, Language.FORTRAN)
        gnu = compile_kernel("GNU", kernel, a64fx_machine)
        assert not any("frt" in d for d in gnu.diagnostics)

    def test_c_kernels_not_delegated(self, a64fx_machine):
        kernel = build_gemm(128, Language.C)
        llvm = compile_kernel("LLVM", kernel, a64fx_machine)
        assert not any("frt" in d for d in llvm.diagnostics)


class TestIncidents:
    def test_fjclang_ices_on_k22(self, a64fx_machine):
        from repro.suites.microkernels import _kernels

        k22 = next(k for k, _ in _kernels() if k.name == "k22")
        result = compile_kernel("FJclang", k22, a64fx_machine)
        assert result.status is CompileStatus.COMPILE_ERROR
        assert not result.ok
        assert result.nest_infos == ()

    def test_gnu_faults_on_six_micro_kernels(self, a64fx_machine):
        from repro.suites.microkernels import _kernels

        faulted = []
        for kernel, _ in _kernels():
            r = compile_kernel("GNU", kernel, a64fx_machine)
            if r.status is CompileStatus.RUNTIME_FAULT:
                faulted.append(kernel.name)
        assert len(faulted) == 6

    def test_other_variants_build_all_micro_kernels(self, a64fx_machine):
        from repro.suites.microkernels import _kernels

        for variant in ("FJtrad", "LLVM", "LLVM+Polly"):
            for kernel, _ in _kernels():
                assert compile_kernel(variant, kernel, a64fx_machine).ok

    def test_anomaly_multiplier_attached(self, a64fx_machine):
        from repro.suites.polybench_la import mvt

        fj = compile_kernel("FJtrad", mvt(), a64fx_machine)
        assert fj.anomaly_multiplier > 1.0
        llvm = compile_kernel("LLVM", mvt(), a64fx_machine)
        assert llvm.anomaly_multiplier == 1.0


class TestCapsSanity:
    """Cross-variant orderings the paper's findings rest on."""

    def test_integer_quality_ordering(self):
        gnu = get_compiler("GNU").caps
        fj = get_compiler("FJtrad").caps
        llvm = get_compiler("LLVM").caps
        fjc = get_compiler("FJclang").caps
        assert gnu.integer_quality > fj.integer_quality
        assert fj.integer_quality > llvm.integer_quality
        assert fj.integer_quality > fjc.integer_quality

    def test_fortran_vectorization_ordering(self):
        gnu = get_compiler("GNU").caps
        fj = get_compiler("FJtrad").caps
        assert fj.vec_quality[Language.FORTRAN] > gnu.vec_quality[Language.FORTRAN]

    def test_cxx_is_fjtrad_weakness(self):
        fj = get_compiler("FJtrad").caps
        assert fj.scalar_quality[Language.CXX] < fj.scalar_quality[Language.C]

    def test_omp_runtime_ordering(self):
        gnu = get_compiler("GNU").caps
        fj = get_compiler("FJtrad").caps
        assert gnu.openmp_barrier_us > 3 * fj.openmp_barrier_us

    def test_only_polly_variant_is_polyhedral(self):
        for v in STUDY_VARIANTS:
            caps = get_compiler(v).caps
            assert caps.polyhedral == (v == "LLVM+Polly")

    def test_stream_schedule_gap_on_c(self):
        fj = get_compiler("FJtrad").caps
        llvm = get_compiler("LLVM").caps
        ratio = llvm.memory_schedule_quality[Language.C] / fj.memory_schedule_quality[Language.C]
        assert ratio > 1.4  # the BabelStream "up to 51%" driver

    def test_interchange_language_gates(self):
        assert Language.C not in get_compiler("FJtrad").caps.interchange_languages
        assert Language.FORTRAN in get_compiler("FJtrad").caps.interchange_languages
        assert Language.C in get_compiler("LLVM").caps.interchange_languages
        assert not get_compiler("FJclang").caps.interchange_languages
