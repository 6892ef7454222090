"""repro.analysis — static analysis and runtime checking for the codebase.

Three pillars, one package:

* **Lint** (:mod:`repro.analysis.engine` / :mod:`repro.analysis.rules`):
  a custom AST engine with codebase-aware rules — dtype discipline,
  lock discipline for the threaded serving layer, atomic-write
  discipline for artifact stores, plus general hygiene.  CLI:
  ``python -m repro.analysis lint [--strict] [--json report.json]``.
* **Graph checking** (:mod:`repro.analysis.graph`): symbolic
  shape/dtype inference over :class:`~repro.nn.module.Module` trees,
  proving shape compatibility, BN channel agreement, and mask/weight
  shape matches without running a forward pass.  ``repro.serve`` runs
  :func:`~repro.analysis.graph.check_model` before sealing an artifact.
* **Runtime sanitizer** (:mod:`repro.tensor.sanitize`):
  ``REPRO_SANITIZE=1`` or :func:`~repro.tensor.sanitize.sanitize_scope`
  instruments every tensor op and module forward to raise on NaN/Inf,
  naming the offending op and layer.

Findings serialise as ``repro-analysis/v1`` JSON
(:mod:`repro.analysis.findings`); single lines are suppressed with
``# repro: ignore[rule-id] -- reason`` (reason mandatory).
"""
