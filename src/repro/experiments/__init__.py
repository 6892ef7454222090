"""Experiment runners: one per figure / table of the paper's evaluation.

Each ``figN_*`` module exposes a ``run(scale=...)`` function returning a
:class:`~repro.experiments.results.ResultTable` whose rows mirror the
series plotted in the corresponding figure (or the rows of the
corresponding table).  The benchmark harness in ``benchmarks/`` simply
calls these runners and prints the tables; EXPERIMENTS.md records the
paper-vs-measured comparison.

``ExperimentScale`` controls dataset sizes, epochs and sweep grids:
``smoke`` (default, minutes on CPU) and ``paper`` (closer to the paper's
grids, hours).
"""

from repro.experiments.config import ExperimentScale, SMOKE, PAPER, get_scale
from repro.experiments.results import ResultTable
from repro.experiments.context import (
    ExperimentContext,
    shared_context,
    shared_context_scope,
)
from repro.experiments.spec import ExperimentSpec, GridPlan
from repro.experiments.registry import (
    EXPERIMENTS,
    available_experiments,
    get_spec,
    run_experiment,
)

__all__ = [
    "ExperimentScale",
    "SMOKE",
    "PAPER",
    "get_scale",
    "ResultTable",
    "ExperimentContext",
    "shared_context",
    "shared_context_scope",
    "ExperimentSpec",
    "GridPlan",
    "EXPERIMENTS",
    "get_spec",
    "run_experiment",
    "available_experiments",
]
