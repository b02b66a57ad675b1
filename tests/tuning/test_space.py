"""Tests for search spaces: parameters, configs, grids, sampling."""

import pytest

from repro.errors import HarnessError
from repro.machine import Placement
from repro.suites import get_benchmark, polybench_suite
from repro.tuning import (
    Parameter,
    SearchSpace,
    benchmark_placements,
    placement_space,
    render_value,
)


def small_space():
    return SearchSpace(
        (
            Parameter("mr", (2, 4, 6)),
            Parameter("nr", (1, 2)),
            Parameter("fast", (True, False)),
        )
    )


class TestRenderValue:
    def test_bools_lowercase(self):
        assert render_value(True) == "true"
        assert render_value(False) == "false"

    def test_placement_renders_compactly(self):
        assert render_value(Placement(4, 12)) == "4x12"

    def test_ints_via_str(self):
        assert render_value(256) == "256"


class TestParameter:
    def test_empty_name_rejected(self):
        with pytest.raises(HarnessError):
            Parameter("", (1, 2))

    def test_empty_choices_rejected(self):
        with pytest.raises(HarnessError):
            Parameter("mr", ())

    def test_duplicate_choices_rejected(self):
        # duplicates by *canonical render*, not object identity
        with pytest.raises(HarnessError):
            Parameter("x", (1, "1"))

    def test_index_of(self):
        p = Parameter("mr", (2, 4, 6))
        assert p.index_of(4) == 1
        with pytest.raises(HarnessError):
            p.index_of(5)


class TestSearchSpace:
    def test_duplicate_param_names_rejected(self):
        with pytest.raises(HarnessError):
            SearchSpace((Parameter("a", (1,)), Parameter("a", (2,))))

    def test_size_is_product(self):
        assert small_space().size == 3 * 2 * 2

    def test_grid_lexicographic_in_axis_order(self):
        grid = small_space().grid()
        assert len(grid) == 12
        assert grid[0].label == "mr=2,nr=1,fast=true"
        assert grid[1].label == "mr=2,nr=1,fast=false"
        assert grid[-1].label == "mr=6,nr=2,fast=false"
        # the first axis varies slowest
        assert [c["mr"] for c in grid] == [2] * 4 + [4] * 4 + [6] * 4

    def test_config_validates_keys_and_values(self):
        space = small_space()
        config = space.config(mr=4, nr=2, fast=True)
        assert config["mr"] == 4 and config["fast"] is True
        with pytest.raises(HarnessError):
            space.config(mr=4, nr=2)  # missing key
        with pytest.raises(HarnessError):
            space.config(mr=5, nr=2, fast=True)  # not a choice

    def test_sample_deterministic_and_distinct(self):
        space = small_space()
        a = space.sample(5, seed=7)
        b = space.sample(5, seed=7)
        assert a == b
        assert len(set(c.label for c in a)) == 5
        assert space.sample(5, seed=8) != a

    def test_sample_covers_grid_when_n_large(self):
        space = small_space()
        assert set(space.sample(100, seed=0)) == set(space.grid())

    def test_sample_size_validated(self):
        with pytest.raises(HarnessError):
            small_space().sample(0, seed=0)

    def test_fingerprint_tracks_choices(self):
        a = SearchSpace((Parameter("mr", (2, 4)),))
        b = SearchSpace((Parameter("mr", (2, 6)),))
        c = SearchSpace((Parameter("nr", (2, 4)),))
        assert a.fingerprint != b.fingerprint
        assert a.fingerprint != c.fingerprint
        assert a.fingerprint == SearchSpace((Parameter("mr", (2, 4)),)).fingerprint


class TestPlacementSpace:
    def test_preserves_candidate_order(self, a64fx_machine):
        bench = get_benchmark("ecp.amg")
        cands = benchmark_placements(bench, a64fx_machine)
        space = placement_space(bench=bench, machine=a64fx_machine)
        assert tuple(c["placement"] for c in space.grid()) == cands

    def test_explicit_placements(self):
        placements = (Placement(1, 1), Placement(4, 12))
        space = placement_space(placements)
        assert space.names == ("placement",)
        assert space.size == 2
        assert space.grid()[0]["placement"] == Placement(1, 1)

    def test_needs_placements_or_bench(self):
        with pytest.raises(HarnessError):
            placement_space()

    def test_pinned_bench_single_candidate(self, a64fx_machine):
        bench = polybench_suite().get("mvt")
        space = placement_space(bench=bench, machine=a64fx_machine)
        assert space.size == 1
        assert space.grid()[0]["placement"] == Placement(1, 1)
