"""No ``src/`` function joins the committed list of unreached functions.

Runs ``tests/reachability.py`` in a fresh interpreter (a warm process
would have its caches filled by other tests and skip calls); see its
docstring for the command battery and what it leaves out.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_function_joins_the_unreached_list():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_STORE", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "reachability.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
