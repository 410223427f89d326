"""Package metadata and install script for ``repro``.

There is no ``pyproject.toml``: every piece of metadata lives in the
``setup()`` call below, which ``pip install .`` and
``python setup.py --name --version`` both read.  Offline, where pip cannot
fetch its build requirements, ``pip install --no-build-isolation .`` needs
setuptools and wheel; ``python setup.py install`` needs setuptools only.
The version is read from ``src/repro/__init__.py`` without importing the
package.  The one runtime dependency is numpy 2 or later: the inference
kernels are numpy array code, with no pure-Python twin.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(encoding="utf-8"), re.M)
if _VERSION is None:
    raise RuntimeError(f"no __version__ in {_INIT}")

setup(
    name="repro",
    version=_VERSION.group(1),
    description="JIM: interactive join query inference (reproduction)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2"],
)
