"""The environment a result was measured in.

Two results are comparable only when their fingerprints agree: a
different core count, BLAS build, sparse backend or dispatch threshold
changes the numbers without any change to the program.  Every stored
result carries one, and ``compare.py`` flags pairs whose fingerprints
differ.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict

#: Environment variables that steer threading or the program's own
#: knobs; any that are set go into the fingerprint.
_ENV_PREFIXES = ("REPRO_", "OPENBLAS_", "OMP_", "MKL_", "BLIS_", "GOTO", "VECLIB_", "NUMEXPR_")


def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def fingerprint() -> Dict[str, object]:
    """Everything about the host and libraries that moves a measurement."""
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    from repro.tensor import sparse

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
        "sparse_backend": sparse.sparse_backend(),
        "sparse_threshold": sparse.DEFAULT_THRESHOLD,
        "env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith(_ENV_PREFIXES)
        },
        "executable": os.path.basename(sys.executable),
    }


def differences(left: Dict[str, object], right: Dict[str, object]) -> Dict[str, tuple]:
    """Fields whose values differ between two fingerprints."""
    keys = sorted(set(left) | set(right))
    return {key: (left.get(key), right.get(key)) for key in keys if left.get(key) != right.get(key)}
