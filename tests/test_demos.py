"""Every script in ``demos/`` runs to completion in a new interpreter, with
``src`` on the path, and writes nothing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pseudotelepathy

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(Path(pseudotelepathy.__file__).parents[1])}
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout
