"""Every demo runs to exit 0 against this package.

The demos are scripts, not tests. Running each one catches a renamed or
removed import as well as a name that fails only when called.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fragsim

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# the directory that holds the fragsim package under test
SRC = str(Path(fragsim.__file__).resolve().parents[1])


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_exist(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, f"{path.name} exited {run.returncode}:\n{run.stderr}"
