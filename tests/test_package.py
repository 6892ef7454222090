"""Package-level sanity checks: version, package boundaries, and start-up imports."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Every package under ``src/repro``, ``repro`` itself included.
PACKAGES = sorted(
    os.path.relpath(dirpath, SRC).replace(os.sep, ".")
    for dirpath, _, files in os.walk(os.path.join(SRC, "repro"))
    if "__init__.py" in files
)

#: The only packages whose ``__init__`` imports anything: the version,
#: the numpy substrate, and the fleet.  Each re-exports its own modules.
REEXPORTING = ["repro", "repro.nn", "repro.optim", "repro.serve.fleet", "repro.tensor"]


def test_version_is_a_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def _under(module: str, packages) -> bool:
    return any(module == package or module.startswith(package + ".") for package in packages)


def _owning_package(module: str) -> str:
    """The innermost package under ``src/repro`` that holds ``module``."""
    return max((package for package in PACKAGES if _under(module, [package])), key=len)


@pytest.mark.parametrize("name", PACKAGES)
def test_subpackage_imports_and_exports(name):
    # One import path per name: a name is imported from the module that
    # defines it, so an ``__init__`` holds its docstring and nothing
    # else, apart from the five that re-export their own modules.
    importlib.import_module(name)
    with open(os.path.join(SRC, *name.split("."), "__init__.py")) as handle:
        tree = ast.parse(handle.read())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    if name not in REEXPORTING:
        assert imports == [], f"{name}/__init__.py imports on line {imports[0].lineno}"
        return
    assert imports, f"{name} re-exports nothing; drop it from REEXPORTING"
    for node in imports:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{name}/__init__.py:{node.lineno} imports relatively"
            modules = [node.module]
        else:
            modules = [alias.name for alias in node.names]
        for module in modules:
            assert module.startswith("repro") and _owning_package(module) == name, (
                f"{name}/__init__.py:{node.lineno} imports {module}, outside its own package"
            )


def test_public_api_entry_points_exist():
    from repro.core.pipeline import RobustTicketPipeline
    from repro.core.tickets import Ticket
    from repro.data.tasks import downstream_task, source_task
    from repro.experiments.registry import run_experiment

    assert callable(downstream_task) and callable(source_task)
    assert callable(run_experiment)
    assert RobustTicketPipeline is not None and Ticket is not None


#: What a server and a fleet shard import at start-up.
SERVING_START_MODULES = ["repro.serve.__main__", "repro.serve.fleet.worker"]

#: What a pipeline's cold start imports.
PIPELINE_START_MODULES = [
    "repro.core.pipeline",
    "repro.core.transfer",
    "repro.attacks.pgd",
    "repro.data.tasks",
    "repro.training.evaluation",
    "repro.training.trainer",
    "repro.experiments.config",
    "repro.nn.fuse",
]

START_MODULES = SERVING_START_MODULES + PIPELINE_START_MODULES

#: Modules that pretrain, draw, transfer or sweep; serving runs none of them.
SERVING_NEVER_LOADS = [
    "repro.experiments",
    "repro.metrics",
    "repro.core.cache",
    "repro.core.parallel",
    "repro.core.pipeline",
    "repro.core.runstore",
    "repro.core.transfer",
    "repro.pruning.imp",
    "repro.pruning.lmp",
    "repro.pruning.omp",
    "repro.training.adversarial",
    "repro.training.pretrain",
    "repro.training.trainer",
]


def _fresh_start(modules) -> dict:
    """What a new interpreter holds after importing ``modules``, and its sparse backend.

    A fresh interpreter, because this test session has long imported
    everything.
    """
    script = (
        "import importlib, json, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "modules = sorted(sys.modules)\n"
        "from repro.tensor import sparse\n"
        "print(json.dumps({'modules': modules, 'backend': sparse.sparse_backend()}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_processes_start_without_importing_scipy():
    # scipy costs about a second and tens of MB per process; only the
    # four functions that call it import it, when they run.
    result = _fresh_start(START_MODULES)
    scipy = [module for module in result["modules"] if _under(module, ["scipy"])]
    assert scipy == [], f"start-up imported scipy modules: {scipy}"
    assert result["backend"] == "scipy"


@pytest.mark.parametrize("entry", SERVING_START_MODULES)
def test_serving_processes_load_no_pipeline_module(entry):
    loaded = _fresh_start([entry])["modules"]
    unwanted = [module for module in loaded if _under(module, SERVING_NEVER_LOADS)]
    assert unwanted == [], f"{entry} loaded {unwanted}"


def test_pipeline_start_loads_no_serving_or_runner_module():
    loaded = _fresh_start(PIPELINE_START_MODULES)["modules"]
    unwanted = [
        module
        for module in loaded
        if _under(module, ["repro.serve"])
        or (
            _under(module, ["repro.experiments"])
            and module not in ("repro.experiments", "repro.experiments.config")
        )
    ]
    assert unwanted == [], f"the pipeline's start loaded {unwanted}"
