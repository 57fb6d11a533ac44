"""Setuptools configuration of the ``repro`` package (the LLAMP reproduction).

The package lives under ``src/``.  Install with ``pip install .``; the
tests and benchmarks also run from a checkout with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="LLAMP: network latency tolerance of MPI applications via linear programming",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
