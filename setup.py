"""Package metadata for ``repro``, the Breadth-First Pipeline Parallelism
reproduction.

The sources live under ``src/`` and the version in
``src/repro/version.py``.  Installing (``pip install .``, or
``python setup.py develop`` where editable wheels cannot be built)
creates the ``repro-experiments`` console script, which runs
:func:`repro.experiments.runner.main`.  Uninstalled, everything runs
with ``PYTHONPATH=src`` from the repository root.
"""

from pathlib import Path
from runpy import run_path

from setuptools import find_packages, setup

VERSION = run_path(str(Path(__file__).parent / "src" / "repro" / "version.py"))[
    "__version__"
]

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={
        "console_scripts": [
            "repro-experiments = repro.experiments.runner:main",
        ],
    },
)
