"""Shared fixtures: machines, canonical kernels, and (session-scoped)
campaign results so the integration tests pay the campaign cost once."""

from __future__ import annotations

import pytest

from repro.ir import KernelBuilder, Language, read, update, write
from repro.machine import Placement, a64fx, xeon


@pytest.fixture
def fresh_engine_pool():
    """Shut the process's engine pool down around the test: workers
    forked earlier would not see what the test patches, and workers
    forked from a patched process must not outlive the test."""
    from repro.harness.engine import shutdown_engine_pool

    shutdown_engine_pool()
    yield
    shutdown_engine_pool()


@pytest.fixture(scope="session")
def a64fx_machine():
    return a64fx()


@pytest.fixture(scope="session")
def xeon_machine():
    return xeon()


def build_gemm(n: int = 256, language: Language = Language.C, name: str = "gemm_test"):
    """The canonical i-j-k matmul used across compiler/perf tests."""
    b = KernelBuilder(name, language)
    b.array("A", (n, n))
    b.array("B", (n, n))
    b.array("C", (n, n))
    b.nest(
        loops=[("i", n), ("j", n), ("k", n)],
        body=[
            b.stmt(
                update("C", "i", "j"),
                read("A", "i", "k"),
                read("B", "k", "j"),
                fma=1,
                reduction="k",
            )
        ],
    )
    return b.build()


def build_stream(n: int = 4096, language: Language = Language.C, name: str = "triad_test"):
    """A triad stream kernel (one parallel loop)."""
    b = KernelBuilder(name, language)
    b.array("a", (n,))
    b.array("bb", (n,))
    b.array("c", (n,))
    b.nest(
        loops=[("i", n)],
        body=[b.stmt(write("a", "i"), read("bb", "i"), read("c", "i"), fma=1)],
        parallel=("i",),
    )
    return b.build()


@pytest.fixture
def gemm_kernel():
    return build_gemm()


@pytest.fixture
def stream_kernel():
    return build_stream()


@pytest.fixture(scope="session")
def campaign_result():
    """The full 108x5 A64FX campaign (computed once per test session)."""
    from repro.api import CampaignConfig, CampaignSession

    return CampaignSession(CampaignConfig()).run()


@pytest.fixture(scope="session")
def xeon_polybench_result():
    from repro.harness import run_polybench_xeon

    return run_polybench_xeon()


@pytest.fixture
def single_core():
    return Placement(1, 1)
