"""Code spaces for nanowire addressing (paper Sec. 2.3 and Sec. 5).

Five families:

* :class:`~repro.codes.tree.TreeCode` — all n-ary words, counting order;
* :class:`~repro.codes.gray.GrayCode` — same space, single-digit-change order;
* :class:`~repro.codes.balanced.BalancedGrayCode` — Gray order with balanced
  per-digit transition counts;
* :class:`~repro.codes.hot.HotCode` — fixed value multiplicities, lex order;
* :class:`~repro.codes.arranged.ArrangedHotCode` — hot code in minimum-
  transition (distance-2) order.

Tree-derived families are used in reflected form (word + complement);
hot families are used as-is.  :func:`~repro.codes.registry.make_code`
builds any family from its total on-nanowire length ``M``.
"""

from repro.codes.arranged import ArrangedHotCode, arranged_hot_words
from repro.codes.balanced import BalancedGrayCode, balanced_gray_words
from repro.codes.base import (
    CodeError,
    CodeSpace,
    Word,
    complement_word,
    covers,
    hamming_distance,
    is_antichain,
    reflect_word,
    validate_word,
)
from repro.codes.gray import GrayCode, gray_rank, reflected_gray_words
from repro.codes.hot import HotCode, hot_code_size, hot_words, multiset_permutations
from repro.codes.optimal import (
    OptimalArrangement,
    OptimalSearchError,
    gray_sigma_lower_bound,
    minimise_phi_arrangement,
    minimise_sigma_arrangement,
    phi_cost_of_order,
    sigma_cost_of_order,
    verify_gray_exact_optimality,
)
from repro.codes.metrics import (
    balance_spread,
    digit_transition_counts,
    is_distance_sequence,
    is_gray_sequence,
    max_digit_transitions,
    space_transition_summary,
    step_transitions,
    total_transitions,
    transition_positions,
)
from repro.codes.registry import (
    ALL_FAMILIES,
    HOT_FAMILIES,
    TREE_FAMILIES,
    family_lengths,
    make_code,
    shortest_covering_code,
)
from repro.codes.tree import TreeCode, counting_words, int_to_word, word_to_int

__all__ = [
    "ALL_FAMILIES",
    "ArrangedHotCode",
    "BalancedGrayCode",
    "CodeError",
    "CodeSpace",
    "GrayCode",
    "HOT_FAMILIES",
    "HotCode",
    "OptimalArrangement",
    "OptimalSearchError",
    "TREE_FAMILIES",
    "TreeCode",
    "Word",
    "arranged_hot_words",
    "balance_spread",
    "balanced_gray_words",
    "complement_word",
    "counting_words",
    "covers",
    "digit_transition_counts",
    "family_lengths",
    "gray_rank",
    "gray_sigma_lower_bound",
    "hamming_distance",
    "hot_code_size",
    "hot_words",
    "int_to_word",
    "is_antichain",
    "is_distance_sequence",
    "is_gray_sequence",
    "make_code",
    "minimise_phi_arrangement",
    "minimise_sigma_arrangement",
    "phi_cost_of_order",
    "max_digit_transitions",
    "multiset_permutations",
    "reflect_word",
    "reflected_gray_words",
    "sigma_cost_of_order",
    "shortest_covering_code",
    "space_transition_summary",
    "step_transitions",
    "total_transitions",
    "transition_positions",
    "verify_gray_exact_optimality",
    "validate_word",
    "word_to_int",
]
