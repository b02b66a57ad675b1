"""The import boundary: each entry point loads only the subsystems it
runs, and every public name still resolves.

Each probe runs in a fresh interpreter, because this process has
imported most of the package already.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

from repro.harness.journalstore import CampaignJournal
from repro.harness.results import RunRecord

#: Subsystems that a command which does not run them must not load.
HEAVY = (
    "numpy",
    "asyncio",
    "repro.service",
    "repro.tuning",
    "repro.analysis",
    "repro.staticanalysis.driver",
)


def _loaded(code: str) -> set:
    """The modules loaded after running ``code`` in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _cli(*args: str) -> str:
    """Probe code running ``a64fx-campaign ARGS``; a nonzero exit fails."""
    return (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        code = main({list(args)!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "if code:\n"
        "    raise SystemExit(f'exit {code}')\n"
    )


def _under(modules: set, package: str) -> list:
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


@pytest.mark.parametrize("code", [
    "import repro",
    "import repro.cli",
    _cli("--help"),
    _cli("list"),
], ids=["import repro", "import repro.cli", "--help", "list"])
def test_entry_point_loads_no_heavy_subsystem(code):
    modules = _loaded(code)
    loaded = {name: _under(modules, name) for name in HEAVY}
    assert {name: found for name, found in loaded.items() if found} == {}


def _journal_dir(tmp_path):
    cells = [("micro.k01", "GNU"), ("micro.k02", "GNU")]
    journal = CampaignJournal(tmp_path / "journal.jsonl")
    journal.start("fp", "A64FX", cells)
    for bench, variant in cells:
        journal.append(RunRecord(bench, "micro", variant, 1, 1, (1.0,)))
    journal.done()
    return str(tmp_path)


@pytest.mark.parametrize("command", [
    ("journal", "status"),
    ("journal", "merge"),
    ("doctor",),
])
def test_journal_and_doctor_load_no_numpy(command, tmp_path):
    modules = _loaded(_cli(*command, "--cache-dir", _journal_dir(tmp_path)))
    assert "repro.harness.journalstore" in modules
    assert "numpy" not in modules


def test_ir_loads_no_telemetry():
    modules = _loaded("import repro.ir")
    assert "repro.ir.validate" in modules
    assert _under(modules, "repro.telemetry") == []


#: Exported constants carry no ``__module__``: the module each is read
#: from.  Everything else is checked against its own ``__module__``.
CONSTANT_HOMES = {
    "__version__": "repro",
    "ENGINE_VERSION": "repro.harness.engine",
    "EXPLORATION_TRIALS": "repro.harness.exploration",
    "FAILURE_STATUSES": "repro.harness.results",
    "PERFORMANCE_RUNS": "repro.harness.runner",
    "RESULT_SCHEMA_VERSION": "repro.harness.results",
    "STATUS_COMPILE_ERROR": "repro.harness.results",
    "STATUS_OK": "repro.harness.results",
    "STATUS_RUNTIME_ERROR": "repro.harness.results",
    "STATUS_TIMEOUT": "repro.harness.results",
    "STATUS_VERIFICATION_ERROR": "repro.harness.results",
    "STATUS_WORKER_CRASH": "repro.harness.results",
    "SPAN_CAMPAIGN": "repro.telemetry.recorder",
    "SPAN_CELL": "repro.telemetry.recorder",
    "SPAN_LINT": "repro.telemetry.recorder",
    "SPAN_TUNE": "repro.telemetry.recorder",
    "SPAN_TUNE_RUNG": "repro.telemetry.recorder",
    "TIME_BUCKETS_S": "repro.telemetry.metrics",
}


@pytest.mark.parametrize("package", [
    "repro",
    "repro.api",
    "repro.harness",
    "repro.telemetry",
    "repro.staticanalysis",
])
def test_every_public_name_resolves_to_its_definition(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        if name in CONSTANT_HOMES:
            home, attr = CONSTANT_HOMES[name], name
        else:
            home, attr = value.__module__, value.__name__
        assert getattr(importlib.import_module(home), attr) is value, (package, name)
