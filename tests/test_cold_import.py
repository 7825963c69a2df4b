"""Structural cold-start gate: no product path loads scipy.

scipy dominated a cold ``import repro`` (``scipy.optimize`` alone took
about two thirds of it, ``scipy.special`` a third of each paper
command), so the product carries in-tree ports of the two functions it
used (``brentq`` and ``erf``), and every crossbar read solves through
numpy's ``np.linalg``.  scipy is a test dependency only.  Each case runs
in a fresh interpreter and inspects ``sys.modules`` afterwards; this
gates what is loaded, not how long it takes, so it does not flake on a
busy host.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORTS = "import repro, repro.api, repro.cli, repro.dist\n"

#: Appended to every case: print the loaded scipy modules as JSON.
REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

#: Paths that must load no scipy module at all.
SCIPY_FREE = {
    "import": "",
    "cli info": "repro.cli.main(['info'])",
    "cli fig5": "repro.cli.main(['fig5'])",
    "marginmc": (
        "repro.api.simulate(repro.api.McRequest('marginmc', 'BGC', 8, samples=256))"
    ),
    "cavemc": (
        "repro.api.simulate(repro.api.McRequest('cavemc', 'BGC', 8, samples=256))"
    ),
    "shard job": (
        "plan = repro.dist.plan_mc_shards("
        "'marginmc', 'BGC', 8, shards=2, samples=2048)\n"
        "repro.dist.run_shard(plan.shards[0])"
    ),
    "ecc memsim": (
        "repro.api.memsim(repro.api.WorkloadRequest("
        "'BGC', 10, parity_bits=8, error_rate=1e-3, accesses=256, instances=2))"
    ),
    "electrical memsim": (
        "repro.api.memsim(repro.api.WorkloadRequest("
        "'TC', 6, readout='float', accesses=256, instances=2))"
    ),
    "cli fig7": "repro.cli.main(['fig7'])",
    "cli fig8": "repro.cli.main(['fig8'])",
    "cli headline": "repro.cli.main(['headline'])",
    "cli calibrate": "repro.cli.main(['calibrate'])",
    "cli readout": "repro.cli.main(['readout', '--scheme', 'all'])",
    "array reads": (
        "from repro.codes import make_code\n"
        "from repro.crossbar import CrossbarArray, CrossbarSpec\n"
        "arr = CrossbarArray(CrossbarSpec(raw_kilobytes=0.2), make_code('TC', 2, 6))\n"
        "rows = arr.defects.row_ok.nonzero()[0][:4]\n"
        "cols = arr.defects.col_ok.nonzero()[0][:4]\n"
        "arr.read_bits(rows, cols)\n"
        "arr.read_margins(rows, cols)"
    ),
}


def loaded_scipy_modules(body: str) -> list[str]:
    """Run ``body`` in a fresh interpreter; the scipy modules it loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_STORE", None)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORTS + body + REPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("body", SCIPY_FREE.values(), ids=SCIPY_FREE.keys())
def test_path_loads_no_scipy(body):
    assert loaded_scipy_modules(body) == []
