"""Observability plane: metrics registry, exposition, generated docs.

See :mod:`repro.obs.registry` for the instrument model (families,
children, snapshots), :mod:`repro.obs.export` for the ``/metrics``
renderings, and :mod:`repro.obs.docgen` for the committed metrics
reference.  ``python -m repro.obs doc`` regenerates ``docs/METRICS.md``.
"""
