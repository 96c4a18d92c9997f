"""Setuptools metadata for the ``repro`` package.

The version has one home, ``__version__`` in ``src/repro/__init__.py``; it is
read here as text so that installing never imports the package.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    init = Path(__file__).parent / "src" / "repro" / "__init__.py"
    match = re.search(r'^__version__ = "([^"]+)"', init.read_text(), re.MULTILINE)
    if match is None:
        raise RuntimeError(f"no __version__ in {init}")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description=(
        "LEGO: a layout expression language for code generation of "
        "hierarchical mapping (reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
