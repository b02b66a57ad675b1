"""Tests for ISAs, memory systems, topology/placement, and the A64FX and
Xeon node definitions (datasheet invariants)."""

import pytest

from repro.errors import MachineConfigError, PlacementError
from repro.machine import (
    AVX512,
    NEON,
    SCALAR,
    SVE512,
    MemorySystem,
    Placement,
    Topology,
    VectorISA,
    a64fx,
    candidate_placements,
    isa_by_name,
    xeon,
)
from repro.ir import DType
from repro.units import gb_per_s


class TestISA:
    def test_lanes(self):
        assert SVE512.lanes(DType.F64) == 8
        assert SVE512.lanes(DType.F32) == 16
        assert NEON.lanes(DType.F64) == 2
        assert SCALAR.lanes(DType.F64) == 1

    def test_lanes_at_least_one(self):
        assert SCALAR.lanes(DType.I8) >= 1

    def test_lookup(self):
        assert isa_by_name("sve512") is SVE512
        with pytest.raises(MachineConfigError):
            isa_by_name("mmx")

    def test_bad_width_rejected(self):
        with pytest.raises(MachineConfigError):
            VectorISA("odd", 100, False, False)

    def test_feature_flags(self):
        assert SVE512.has_predication and SVE512.has_gather
        assert not NEON.has_gather


class TestMemorySystem:
    def _mem(self):
        return MemorySystem("m", gb_per_s(256), 0.8, 130e-9, cores_to_half_saturation=3.0)

    def test_sustained(self):
        assert self._mem().sustained_bandwidth == pytest.approx(gb_per_s(256) * 0.8)

    def test_saturation_monotone(self):
        m = self._mem()
        bws = [m.bandwidth(c) for c in range(1, 13)]
        assert all(b2 >= b1 for b1, b2 in zip(bws, bws[1:]))
        assert bws[-1] <= m.sustained_bandwidth

    def test_single_core_below_sustained(self):
        m = self._mem()
        assert m.bandwidth(1) < 0.5 * m.sustained_bandwidth

    def test_validation(self):
        with pytest.raises(MachineConfigError):
            MemorySystem("m", -1, 0.8, 1e-7)
        with pytest.raises(MachineConfigError):
            MemorySystem("m", 1e9, 1.5, 1e-7)

    def test_latency_bound_rate_uses_machine_line_size(self):
        # Little's law: rate = concurrency * line / latency.  The line
        # size is the machine model's (256 B on A64FX), not a constant.
        m = self._mem()
        assert m.latency_bound_rate(8.0, 256) == 8.0 * 256 / 130e-9
        assert m.latency_bound_rate(8.0, 64) == 8.0 * 64 / 130e-9
        a64 = a64fx()
        assert a64.line_bytes == 256
        assert a64.memory.latency_bound_rate(10.0, a64.line_bytes) == pytest.approx(
            10.0 * 256 / a64.memory.latency
        )

    def test_latency_bound_rate_latency_override(self):
        m = self._mem()
        assert m.latency_bound_rate(4.0, 256, latency=260e-9) == 4.0 * 256 / 260e-9

    def test_latency_bound_rate_validation(self):
        m = self._mem()
        with pytest.raises(MachineConfigError):
            m.latency_bound_rate(0, 256)
        with pytest.raises(MachineConfigError):
            m.latency_bound_rate(4.0, 0)


class TestPlacement:
    def _topo(self):
        return Topology("t", numa_domains=4, cores_per_domain=12)

    def test_fits(self):
        assert Placement(4, 12).fits(self._topo())
        assert not Placement(4, 13).fits(self._topo())

    def test_validate_raises(self):
        with pytest.raises(PlacementError):
            Placement(48, 2).validate(self._topo())

    def test_domains_used(self):
        topo = self._topo()
        assert Placement(4, 12).domains_used(topo) == 4
        assert Placement(1, 12).domains_used(topo) == 1
        assert Placement(1, 48).domains_used(topo) == 4
        assert Placement(2, 12).domains_used(topo) == 2
        assert Placement(8, 6).domains_used(topo) == 4

    def test_spans_domains(self):
        topo = self._topo()
        assert Placement(1, 48).spans_domains(topo)
        assert not Placement(4, 12).spans_domains(topo)

    def test_active_cores_per_domain(self):
        topo = self._topo()
        assert Placement(4, 12).active_cores_per_domain(topo) == 12
        assert Placement(4, 6).active_cores_per_domain(topo) == 6

    def test_candidates_fit_and_unique(self):
        topo = self._topo()
        cands = candidate_placements(topo)
        assert len(set((p.ranks, p.threads) for p in cands)) == len(cands)
        for p in cands:
            assert p.fits(topo)

    def test_candidates_include_recommended(self):
        cands = candidate_placements(self._topo())
        assert any(p.ranks == 4 and p.threads == 12 for p in cands)

    def test_pow2_filter(self):
        topo = Topology("t", 3, 10)
        cands = candidate_placements(topo, pow2_ranks_only=True)
        assert all(p.ranks & (p.ranks - 1) == 0 for p in cands)


class TestCandidatePlacementEdges:
    """Edge cases of the exploration grid: max_total interplay with the
    numa_domains/total extras, the pow2 filter, and thread options."""

    def _topo(self):
        return Topology("t", numa_domains=4, cores_per_domain=12)

    def test_max_total_caps_every_placement(self):
        cands = candidate_placements(self._topo(), max_total=10)
        assert cands
        for p in cands:
            assert p.total_cores_used <= 10

    def test_max_total_replaces_total_extra(self):
        # the "total" extra becomes the cap itself, not the node total
        cands = candidate_placements(self._topo(), max_total=10)
        ranks = {p.ranks for p in cands}
        assert 10 in ranks
        assert 48 not in ranks
        # numa_domains (4, also a power of two) still present
        assert 4 in ranks

    def test_max_total_above_node_clamps_to_node(self):
        topo = self._topo()
        assert candidate_placements(topo, max_total=10_000) == candidate_placements(
            topo
        )

    def test_non_pow2_numa_domains_extra_injected(self):
        # 3 domains: the per-domain rank count is not a power of two but
        # must still be swept (it is the recommended rank count)
        topo = Topology("t", numa_domains=3, cores_per_domain=10)
        ranks = {p.ranks for p in candidate_placements(topo)}
        assert 3 in ranks
        assert 30 in ranks  # the total extra

    def test_pow2_filter_drops_injected_extras(self):
        topo = Topology("t", numa_domains=3, cores_per_domain=10)
        cands = candidate_placements(topo, pow2_ranks_only=True)
        ranks = {p.ranks for p in cands}
        assert all(r & (r - 1) == 0 for r in ranks)
        assert 3 not in ranks and 30 not in ranks

    def test_pow2_filter_composes_with_max_total(self):
        cands = candidate_placements(
            self._topo(), pow2_ranks_only=True, max_total=10
        )
        for p in cands:
            assert p.ranks & (p.ranks - 1) == 0
            assert p.total_cores_used <= 10
        assert {p.ranks for p in cands} == {1, 2, 4, 8}

    def test_full_domain_thread_count_always_offered(self):
        # 12 threads is not a power of two; the per-domain count must be
        # injected whenever it fits a rank's share
        cands = candidate_placements(self._topo())
        assert any(p.ranks == 1 and p.threads == 12 for p in cands)
        assert any(p.ranks == 4 and p.threads == 12 for p in cands)

    def test_max_threads_share_included(self):
        # each rank's share (total // ranks) appears even when odd-sized
        topo = Topology("t", numa_domains=3, cores_per_domain=10)
        cands = candidate_placements(topo)
        assert any(p.ranks == 4 and p.threads == 7 for p in cands)  # 30//4


class TestPlacementStraddlingDomains:
    """domains_used / active_cores_per_domain when a rank's threads
    straddle CMG boundaries."""

    def _topo(self):
        return Topology("t", numa_domains=4, cores_per_domain=12)

    def test_threads_overflow_one_domain(self):
        topo = self._topo()
        # 13 threads need two domains; one rank -> 2 domains, 6.5 avg
        assert Placement(1, 13).domains_used(topo) == 2
        assert Placement(1, 13).active_cores_per_domain(topo) == pytest.approx(6.5)
        assert Placement(1, 13).spans_domains(topo)

    def test_two_ranks_straddling(self):
        topo = self._topo()
        # each of 2 ranks needs ceil(18/12)=2 domains -> all 4 used
        p = Placement(2, 18)
        assert p.domains_used(topo) == 4
        assert p.active_cores_per_domain(topo) == pytest.approx(36 / 4)

    def test_rank_count_caps_domains(self):
        topo = self._topo()
        # more ranks than domains: every domain is in use
        assert Placement(8, 6).domains_used(topo) == 4
        assert Placement(48, 1).domains_used(topo) == 4
        assert Placement(48, 1).active_cores_per_domain(topo) == 12

    def test_exact_domain_fit_does_not_straddle(self):
        topo = self._topo()
        assert Placement(4, 12).domains_used(topo) == 4
        assert not Placement(4, 12).spans_domains(topo)
        assert Placement(2, 12).domains_used(topo) == 2
        assert Placement(2, 12).active_cores_per_domain(topo) == 12

    def test_oversubscription_rejected_by_domains_used(self):
        with pytest.raises(PlacementError):
            Placement(4, 13).domains_used(self._topo())


class TestA64FX:
    def test_datasheet_invariants(self):
        m = a64fx()
        assert m.total_cores == 48
        assert m.topology.numa_domains == 4
        # 70.4 GF/s per core, 3.379 TF/s node at 2.2 GHz
        assert m.core.peak_dp_flops == pytest.approx(70.4e9, rel=1e-3)
        assert m.peak_dp_flops_node == pytest.approx(3.3792e12, rel=1e-3)
        assert m.peak_bandwidth_node == pytest.approx(1024e9, rel=1e-3)
        assert m.line_bytes == 256
        assert m.widest_isa is SVE512

    def test_recommended_placement(self):
        p = a64fx().recommended_placement()
        assert (p.ranks, p.threads) == (4, 12)

    def test_cache_sizes(self):
        m = a64fx()
        assert m.cache_levels[0].capacity_bytes == 64 * 1024
        assert m.cache_levels[1].capacity_bytes == 8 * 1024 * 1024
        assert m.cache_levels[1].shared_by_cores == 12


class TestXeon:
    def test_basics(self):
        m = xeon()
        assert m.widest_isa is AVX512
        assert m.line_bytes == 64
        assert len(m.cache_levels) == 3
        assert m.topology.numa_domains == 1

    def test_xeon_has_less_bandwidth_than_a64fx(self):
        assert xeon().peak_bandwidth_node < a64fx().peak_bandwidth_node / 4


class TestThunderX2:
    def test_basics(self):
        from repro.machine import thunderx2

        m = thunderx2()
        assert m.widest_isa.name == "neon"
        assert m.total_cores == 32
        # TX2 per-core DP peak: 2 pipes x 2 lanes x 2 x 2.5 GHz = 20 GF/s
        assert m.core.peak_dp_flops == pytest.approx(20e9, rel=1e-3)

    def test_bandwidth_hierarchy_vs_a64fx(self):
        from repro.machine import a64fx, thunderx2

        assert thunderx2().peak_bandwidth_node < a64fx().peak_bandwidth_node / 8

    def test_stream_ratio_matches_related_work(self):
        # [19]/[20]: A64FX sustains roughly an order of magnitude more
        # STREAM bandwidth than a TX2 socket.
        from repro.compilers import compile_kernel
        from repro.ir import Language
        from repro.machine import a64fx, thunderx2
        from repro.perf import nest_time
        from repro.suites.kernels_common import stream_triad

        kernel = stream_triad("tx2_triad", 1 << 26, Language.C)
        times = {}
        for machine, compiler in ((a64fx(), "FJtrad"), (thunderx2(), "GNU")):
            ck = compile_kernel(compiler, kernel, machine)
            times[machine.name] = nest_time(
                ck.nest_infos[0],
                machine,
                threads=machine.total_cores,
                active_cores_per_domain=machine.topology.cores_per_domain,
                domains=machine.topology.numa_domains,
            ).total_s
        ratio = times["ThunderX2"] / times["A64FX"]
        assert 5 <= ratio <= 15
