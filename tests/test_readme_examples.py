"""Every fenced ``python`` block of README.md runs as written.

The README documents library API with code examples; each block runs in
a fresh interpreter with ``src/`` on the path and a scratch working
directory (one example writes a CSV), so a renamed or deleted name in an
example fails here instead of in a reader's session.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M
)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 5


@pytest.mark.parametrize(
    "code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))]
)
def test_readme_block_runs(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_STORE", None)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
