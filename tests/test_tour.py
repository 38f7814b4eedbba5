"""The guided tour, ``demos/tour.py``, runs to its end.

The tour reads one set through the package's public names, so a removed
export or a failing stage stops it before its last line, the rebuilt
witness decomposition.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tour_runs_to_the_rebuilt_decomposition():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / "tour.py")],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    last = out.stdout.splitlines()[-1]
    assert last.startswith("rebuilt") and last.endswith("True"), last
