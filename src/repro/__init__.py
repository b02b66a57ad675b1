"""repro — a reproduction of "A64FX - Your Compiler You Must Decide!"
(Jens Domke, IEEE CLUSTER 2021).

The package models the paper's entire measurement campaign in software:
benchmark kernels as an affine loop-nest IR (:mod:`repro.ir`), five
compiler environments as transformation pipelines (:mod:`repro.compilers`),
A64FX and a Xeon reference as analytic machine models
(:mod:`repro.machine`, :mod:`repro.perf`), the seven benchmark suites
(:mod:`repro.suites`), the exploration/performance-run harness
(:mod:`repro.harness`), and the figure/statistics generators
(:mod:`repro.analysis`).

Quickstart::

    from repro import CampaignConfig, CampaignSession
    from repro.analysis import figure2, overall_summary

    session = CampaignSession(CampaignConfig(workers=4, cache_dir=".cache"))
    results = session.run()           # all 108 benchmarks x 5 compilers
    print(figure2(results).render())  # the paper's Figure 2 heatmap
    print(overall_summary(results))   # "median gain from best compiler"

:class:`repro.api.CampaignSession` is the documented entry point for
measurement campaigns and :func:`repro.api.evaluate_grid` for batched
model-space sweeps.
"""

from collections.abc import Callable
from importlib import import_module

__version__ = "2.0.0"


def _lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> Callable[[str], object]:
    """A PEP 562 module ``__getattr__`` for ``package``: each name in
    ``exports`` (module -> names) loads its module on first use.

    Package inits import only what every user of the package needs, so
    a process loads just the subsystems it runs (see docs/PERF.md
    §Start-up).
    """
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(module), name)

    return __getattr__


__all__ = [
    "CampaignConfig",
    "CampaignEvent",
    "CampaignSession",
    "EventKind",
    "GridSpec",
    "evaluate_grid",
    "__version__",
]

__getattr__ = _lazy_exports(__name__, {
    "repro.api": (
        "CampaignConfig",
        "CampaignEvent",
        "CampaignSession",
        "EventKind",
        "GridSpec",
        "evaluate_grid",
    ),
})
