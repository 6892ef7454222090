"""Package-level sanity checks: version, public exports, and subpackage imports."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro


SUBPACKAGES = [
    "repro.tensor",
    "repro.nn",
    "repro.optim",
    "repro.models",
    "repro.data",
    "repro.attacks",
    "repro.training",
    "repro.pruning",
    "repro.core",
    "repro.metrics",
    "repro.experiments",
    "repro.serve",
    "repro.bench",
    "repro.utils",
]


def test_version_is_a_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_and_exports(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__") or name == "repro.utils"
    for exported in getattr(module, "__all__", []):
        assert hasattr(module, exported), f"{name}.__all__ lists missing attribute {exported!r}"


def test_public_api_entry_points_exist():
    from repro.core import RobustTicketPipeline, Ticket
    from repro.data import downstream_task, source_task
    from repro.experiments import run_experiment

    assert callable(downstream_task) and callable(source_task)
    assert callable(run_experiment)
    assert RobustTicketPipeline is not None and Ticket is not None


#: What a server, a fleet shard and a pipeline's cold start import.
START_MODULES = [
    "repro.serve.__main__",
    "repro.serve.fleet.worker",
    "repro.core.pipeline",
    "repro.core.transfer",
    "repro.attacks.pgd",
    "repro.data.tasks",
    "repro.training.evaluation",
    "repro.training.trainer",
    "repro.experiments.config",
    "repro.nn.fuse",
]


def test_processes_start_without_importing_scipy():
    # scipy costs about a second and tens of MB per process; only the
    # four functions that call it import it, when they run.  A fresh
    # interpreter, because this test session has long imported it.
    script = (
        "import importlib, json, sys\n"
        f"for name in {START_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "from repro.tensor import sparse\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps({'scipy': loaded, 'backend': sparse.sparse_backend()}))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["scipy"] == [], f"start-up imported scipy modules: {result['scipy']}"
    assert result["backend"] == "scipy"
