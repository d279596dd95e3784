"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest


def _fresh_python(script: str, **env) -> str:
    """stdout of script run in a fresh interpreter on this checkout's svns,
    with env added to the environment."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=str(root),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def fresh_python():
    """Runs a script in a fresh interpreter: fresh_python(script, **env) -> stdout."""
    return _fresh_python
