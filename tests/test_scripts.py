"""Smoke test of the study scripts: each runs on small arguments and exits 0."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("pv_scheme_study.py", ["--ratios", "1e1,1e3,1e4"]),
    ("vacuum_polarization_scan.py", ["--n", "5"]),
    ("zero_point_study.py", ["--n", "3", "--diagnose-gauge"]),
])
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout
