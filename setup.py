"""Packaging for the VaidyaTL12 reproduction.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so editable installs
work in offline environments without the ``wheel`` package (pip falls back
to ``setup.py develop`` when invoked with ``--no-use-pep517``).  The console
script makes ``repro`` available on PATH after ``pip install -e .``; from a
bare checkout the same CLI runs as ``PYTHONPATH=src python -m repro``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-vaidya-tseng-liang-podc12",
    version="1.0.0",
    description=(
        "Reproduction of 'Iterative Approximate Byzantine Consensus in "
        "Arbitrary Directed Graphs' (Vaidya, Tseng, Liang; PODC 2012)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # PEP 561: ship the py.typed marker so downstream type checkers consume
    # the package's inline annotations (gated by mypy.ini + reprolint TYP001).
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    # The test suite's own needs: ``pip install -e .[test]``.
    extras_require={"test": ["pytest", "hypothesis"]},
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
