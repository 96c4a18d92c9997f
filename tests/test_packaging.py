"""Packaging metadata: the version lives in one place."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_version_matches_package_version():
    result = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip().splitlines()[-1] == repro.__version__
