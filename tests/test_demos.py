"""Every demo script runs to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fasris

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path):
    # run a copy: demo 06 writes its SVG next to the script
    shutil.copy(DEMOS / name, tmp_path / name)
    path = [str(Path(fasris.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, name], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
