"""The package: each module imports on its own, and its version."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hotloc

PACKAGE = Path(hotloc.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    """Each module imports as the first of the package in a fresh
    interpreter, which an import cycle between modules would break."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", f"import hotloc.{module}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_version_is_pyprojects():
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', text, flags=re.M)
    assert hotloc.__version__ == version
