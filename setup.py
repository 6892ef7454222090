"""Package metadata, and the shim that lets ``pip install -e .`` work offline.

The offline environment lacks the ``wheel`` package required by PEP 660
editable installs, so this file enables the legacy ``setup.py develop``
path.  All project metadata is declared here; the version is read from
``src/repro/_version.py``, its single source of truth.
"""

import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src", "repro", "_version.py")
    with open(path, encoding="utf-8") as handle:
        return re.search(r'^__version__ = "([^"]+)"', handle.read(), re.M).group(1)


setup(
    name="repro",
    version=_version(),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
