"""Analysis layer: figure data generators, headline statistics, sweeps.

One generator per paper figure (:mod:`repro.analysis.figures`), one
measurable function per textual claim (:mod:`repro.analysis.stats`), a
platform-spec perturbation helper (:mod:`repro.analysis.sweeps`) and
plain-text reporting (:mod:`repro.analysis.report`).
"""

from repro.analysis.figures import (
    FIG5_LOGICS,
    FIG5_NANOWIRES,
    FIG6_NANOWIRES,
    HOT_LENGTHS,
    TREE_LENGTHS,
    fig5_fabrication_complexity,
    fig6_variability_maps,
    fig7_crossbar_yield,
    fig8_bit_area,
)
from repro.analysis.calibration import (
    PAPER_TARGETS,
    CalibrationPoint,
    default_point,
    evaluate_point,
    grid_search,
    measure_targets,
)
from repro.analysis.export import (
    matrix_to_csv,
    records_to_csv,
    series_to_csv,
    to_json,
)
from repro.analysis.multilevel import (
    MultilevelPoint,
    admissible_length,
    multilevel_comparison,
    orderings_hold,
)
from repro.analysis.report import (
    format_cell,
    format_delta_percent,
    format_percent,
    paper_vs_measured,
    render_table,
)
from repro.analysis.stats import (
    Claim,
    ahc_vs_hc_area,
    ahc_vs_hc_yield,
    ahc_yield_gain,
    bgc_variability_reduction,
    bgc_vs_tc_area,
    bgc_vs_tc_yield,
    gray_complexity_reduction,
    headline_summary,
    min_bit_area,
    tc_area_saving,
    tc_yield_gain,
)
from repro.analysis.sweeps import Record, spec_with

__all__ = [
    "CalibrationPoint",
    "Claim",
    "PAPER_TARGETS",
    "default_point",
    "evaluate_point",
    "grid_search",
    "measure_targets",
    "MultilevelPoint",
    "admissible_length",
    "matrix_to_csv",
    "multilevel_comparison",
    "orderings_hold",
    "records_to_csv",
    "series_to_csv",
    "to_json",
    "FIG5_LOGICS",
    "FIG5_NANOWIRES",
    "FIG6_NANOWIRES",
    "HOT_LENGTHS",
    "Record",
    "TREE_LENGTHS",
    "ahc_vs_hc_area",
    "ahc_vs_hc_yield",
    "ahc_yield_gain",
    "bgc_variability_reduction",
    "bgc_vs_tc_area",
    "bgc_vs_tc_yield",
    "fig5_fabrication_complexity",
    "fig6_variability_maps",
    "fig7_crossbar_yield",
    "fig8_bit_area",
    "format_cell",
    "format_delta_percent",
    "format_percent",
    "gray_complexity_reduction",
    "headline_summary",
    "min_bit_area",
    "paper_vs_measured",
    "render_table",
    "spec_with",
    "tc_area_saving",
    "tc_yield_gain",
]
