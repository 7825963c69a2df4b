"""FIG7 — crossbar yield vs code length (paper Fig. 7, two panels).

Paper setting: D_RAW = 16 kB, P_L = 32 nm, P_N = 10 nm, sigma_T = 50 mV;
binary TC/BGC at lengths 6/8/10 and HC/AHC at lengths 4/6/8.

Paper findings the regenerated series must show:
* yield rises with code length (saturating around M ~ 10 / M ~ 6);
* TC gains ~40 points from M = 6 to 10; AHC similar from 4 to 8;
* at fixed length the optimised codes (BGC, AHC) beat TC, HC.
"""

import pytest

from repro.analysis.figures import fig7_crossbar_yield
from repro.analysis.report import render_table
from repro.codes import make_code
from repro.crossbar.montecarlo import simulate_cave_yield


def test_fig7_yield(benchmark, emit, spec):
    data = benchmark(fig7_crossbar_yield, spec)

    rows = []
    for family, points in data.items():
        for length, y in points:
            rows.append([family, length, f"{100 * y:.1f}%"])
    emit(
        "fig7_yield",
        "Fig. 7 — crossbar yield (addressable fraction) by code length\n"
        + render_table(["family", "M", "yield"], rows),
    )

    tc = dict(data["TC"])
    bgc = dict(data["BGC"])
    hc = dict(data["HC"])
    ahc = dict(data["AHC"])

    # paper-shape assertions
    assert tc[6] < tc[8] < tc[10]                  # rising TC curve
    assert tc[10] - tc[6] > 0.15                   # large TC gain (paper ~40pt)
    assert ahc[8] - ahc[4] > 0.25                  # large AHC gain (paper ~40pt)
    for length in (6, 8, 10):
        assert bgc[length] > tc[length]            # BGC beats TC everywhere
    for length in (4, 6, 8):
        assert ahc[length] > hc[length]            # AHC beats HC everywhere
    assert hc[6] > 2 * hc[4]                       # hot-code jump at Omega >= N


def test_fig7_points_match_batched_montecarlo(emit, spec):
    """Spot-check Fig. 7 curve points against the batched sim engine.

    The analytic curve is what the figure plots; the engine's 20k-trial
    estimates must land on it within a few standard errors.
    """
    rows = []
    curves = fig7_crossbar_yield(spec)
    for family, length in [("TC", 8), ("BGC", 10), ("AHC", 6)]:
        code = make_code(family, 2, length)
        analytic = dict(curves[family])[length]
        mc = simulate_cave_yield(spec, code, samples=20_000, seed=29)
        rows.append(
            [
                f"{family}/{length}",
                f"{100 * analytic:.1f}%",
                f"{100 * mc.mean_cave_yield:.1f}%",
                f"{100 * mc.stderr:.2f}%",
            ]
        )
        assert mc.mean_cave_yield == pytest.approx(
            analytic, abs=max(0.015, 5 * mc.stderr)
        ), f"{family}/{length} off the analytic curve"
    emit(
        "fig7_yield_mc",
        "Fig. 7 points vs batched Monte-Carlo (20k trials)\n"
        + render_table(["design", "analytic", "MC mean", "MC stderr"], rows),
    )
