"""The Figure 1 reference campaign.

``run_polybench_xeon()`` produces the icc/Xeon reference column that
Figure 1 compares against, as a thin wrapper over
:class:`repro.harness.engine.CampaignEngine`.  Measurement campaigns on
A64FX go through :class:`repro.api.CampaignSession`.
"""

from __future__ import annotations

from repro.harness.engine import CampaignEngine
from repro.harness.results import CampaignResult
from repro.machine.xeon import xeon


def run_polybench_xeon() -> CampaignResult:
    """The Figure 1 reference: PolyBench under icc on the Xeon node."""
    from repro.suites.polybench import polybench_suite

    engine = CampaignEngine(
        xeon(), variants=("icc",), suites=(polybench_suite(),), workers=1
    )
    return engine.run()
