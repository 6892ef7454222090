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
