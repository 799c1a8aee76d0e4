"""Setuptools configuration of the ``repro`` package (``src/`` layout).

All project metadata lives here; the version is read from
``repro.__version__`` without importing the package.  Editable install::

    pip install --no-build-isolation --no-deps -e .

pip builds the editable install with setuptools' ``bdist_wheel``, which
needs the ``wheel`` package; where it is missing,
``python setup.py develop --no-deps`` installs the same editable package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description="DynaPipe: optimizing multi-task training through dynamic pipelines",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
