"""The headline claims stay where the model puts them, with the paper's sign.

``analysis.stats.headline_summary`` measures ten claims of the paper
(``repro headline``).  Each is pinned near the value the model gives
today: fractions within 0.005 absolute, the smallest bit area within
1 nm^2.  Every claim the paper states is a reduction, a gain or a
saving, so each must also stay positive.  A change that moves a claim
out of its band has to re-pin it here and say why.
"""

import pytest

from repro.analysis.stats import headline_summary, min_bit_area

#: claim key -> measured value at the time of pinning
PINNED = {
    "gray_complexity": 0.1944,
    "bgc_variability": 0.3664,
    "tc_yield_gain": 0.2990,
    "ahc_yield_gain": 0.5988,
    "bgc_vs_tc_yield": 0.2770,
    "ahc_vs_hc_yield": 0.1333,
    "tc_area_saving": 0.6564,
    "bgc_vs_tc_area": 0.3868,
    "ahc_vs_hc_area": 0.1812,
}
FRACTION_BAND = 0.005

MIN_BIT_AREA_NM2 = 163.33
AREA_BAND_NM2 = 1.0


@pytest.fixture(scope="module")
def claims():
    return {claim.key: claim.measured_value for claim in headline_summary()}


def test_every_claim_is_pinned(claims):
    assert set(claims) == set(PINNED) | {"min_bit_area"}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_fraction_claim_pinned_with_paper_sign(claims, key):
    value = claims[key]
    assert value > 0
    assert abs(value - PINNED[key]) <= FRACTION_BAND


def test_min_bit_area_pinned():
    family, _, area = min_bit_area()
    assert family == "BGC"
    assert area > 0
    assert abs(area - MIN_BIT_AREA_NM2) <= AREA_BAND_NM2


def test_min_bit_area_claim_matches(claims):
    assert claims["min_bit_area"] == min_bit_area()[2]
