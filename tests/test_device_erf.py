"""The in-tree ``erf`` port returns ``scipy.special.erf``'s exact bits.

``repro.device.variability._erf`` replaces ``scipy.special.erf`` in the
analytic yield (Sec. 6.1, Figs. 7-8) so that no engine or paper path
loads scipy.  It must return the same float as scipy for every argument
the product passes, or every yield (and every digest and pinned output
built from one) would move.  These tests import scipy; the product does
not.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from repro.device.variability import _MAXLOG, _erf

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs the paper commands and an ECC memsim in a fresh interpreter with
#: ``_erf`` wrapped, and saves every argument it received to ``argv[1]``.
CAPTURE = """
import contextlib, io, sys
import numpy as np
import repro.api, repro.cli
from repro.device import variability

seen = []
port = variability._erf

def recording(x):
    seen.append(np.array(x, dtype=float).ravel())
    return port(x)

variability._erf = recording
with contextlib.redirect_stdout(io.StringIO()):
    for command in ("fig7", "fig8", "headline", "calibrate"):
        repro.cli.main([command])
repro.api.memsim(repro.api.WorkloadRequest(
    "BGC", 10, parity_bits=8, error_rate=1e-3, accesses=256, instances=2))
np.save(sys.argv[1], np.concatenate(seen))
"""


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_bit_identical(x: np.ndarray) -> None:
    ours, theirs = _bits(_erf(x)), _bits(erf(x))
    bad = np.flatnonzero(ours != theirs)
    assert bad.size == 0, (
        f"{bad.size} of {x.size} differ, first at x={x[bad[0]]!r}: "
        f"{_erf(x[bad[:1]])[0]!r} != {erf(x[bad[0]])!r}"
    )


@pytest.fixture(scope="module")
def product_arguments(tmp_path_factory) -> np.ndarray:
    path = tmp_path_factory.mktemp("erf") / "args.npy"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_STORE", None)
    subprocess.run(
        [sys.executable, "-c", CAPTURE, str(path)],
        env=env,
        check=True,
        timeout=300,
    )
    return np.load(path)


class TestBitIdenticalToScipy:
    def test_every_argument_the_product_passes(self, product_arguments):
        # fig7/fig8/headline/calibrate and an ECC memsim pass ~13k values
        assert product_arguments.size > 10_000
        assert_bit_identical(product_arguments)

    def test_math_erf_would_move_the_product_bits(self, product_arguments):
        # why the port exists: the C library's erf is a different algorithm
        x = np.unique(product_arguments)
        libm = np.array([math.erf(v) for v in x.tolist()])
        assert np.any(_bits(libm) != _bits(erf(x)))

    def test_a_million_seeded_points(self):
        rng = np.random.default_rng(26)
        uniform = rng.uniform(-6.0, 6.0, 500_000)
        log_uniform = np.exp(rng.uniform(math.log(1e-13), math.log(33.0), 500_000))
        assert_bit_identical(np.concatenate([uniform, log_uniform]))

    def test_branch_boundaries(self):
        # |x| = 1 splits T/U from P/Q, x = 8 splits P/Q from R/S, and
        # erfc(x) reaches 0 near 26.55 and underflows past sqrt(MAXLOG)
        centres = [1.0, 8.0, 26.55, math.sqrt(_MAXLOG)]
        x = np.concatenate(
            [c + np.arange(-64, 65) * np.spacing(c) for c in centres]
            + [np.linspace(26.0, 27.0, 1001)]
        )
        assert_bit_identical(np.concatenate([x, -x]))

    @pytest.mark.parametrize(
        "x",
        [
            0.0,
            -0.0,
            1.0,
            -1.0,
            8.0,
            -8.0,
            5e-324,
            -5e-324,
            2.2e-308,
            26.55,
            26.64,
            1e300,
            math.inf,
            -math.inf,
            math.nan,
        ],
    )
    def test_edge_case(self, x):
        assert_bit_identical(np.array([x]))

    def test_shapes_and_empty_input(self):
        x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        assert _erf(x).shape == x.shape
        assert_bit_identical(x)
        assert _erf(np.array([])).shape == (0,)

