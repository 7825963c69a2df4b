"""HEADLINE — every textual claim of the abstract / Sec. 6.2.

Regenerates the paper-vs-measured table (``python -m repro headline``):
complexity -17%, variability -18%, yield +40 points / +42% / +19%,
area -51% / -13%, minimum bit area ~169-175 nm^2.
"""

from repro.analysis.report import paper_vs_measured
from repro.analysis.stats import headline_summary


def test_headline_claims(benchmark, emit, spec):
    claims = benchmark(headline_summary, spec)

    emit(
        "headline_claims",
        "Headline claims — paper vs measured\n"
        + paper_vs_measured(
            [(c.description, c.paper, c.measured) for c in claims]
        ),
    )

    by_key = {c.key: c for c in claims}
    # every claim keeps the paper's direction and rough magnitude
    assert 0.05 < by_key["gray_complexity"].measured_value < 0.35
    assert 0.10 < by_key["bgc_variability"].measured_value < 0.60
    assert by_key["tc_yield_gain"].measured_value > 0.15
    assert by_key["ahc_yield_gain"].measured_value > 0.25
    assert by_key["bgc_vs_tc_yield"].measured_value > 0.10
    assert by_key["ahc_vs_hc_yield"].measured_value > 0.05
    assert by_key["tc_area_saving"].measured_value > 0.30
    assert by_key["ahc_vs_hc_area"].measured_value > 0.05
    assert 140 < by_key["min_bit_area"].measured_value < 200
