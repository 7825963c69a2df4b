"""Exact optimal-arrangement solver for small code spaces.

Propositions 4 and 5 state that Gray arrangements minimise the decoder
variability ``||Sigma||_1`` and the fabrication complexity ``Phi`` over
*all* arrangements of a tree-code space.  The theorem checks in
:mod:`repro.core.theorems` compare against random arrangements; this
module goes further and computes the *true* optimum by branch-and-bound
over the permutation space, so the propositions can be verified exactly
on every enumerable space.

Key identity (used both for speed and as a proof device): with N = Omega
rows, M total digits and ``d_k`` the number of digit transitions between
pattern rows k and k+1,

    ||nu||_1 = N * M + sum_k (k + 1) * d_k

because the final doping step doses every region of every wire once, and
a transition at step k re-doses one region of wires 0..k.  Minimising
``||Sigma||_1`` is therefore a position-weighted minimum-transition
ordering problem; since every pair of distinct words differs in at least
``d_min`` digits, any arrangement's cost is bounded below by
``N * M + d_min * sum_k (k + 1)`` — which Gray arrangements achieve with
equality (``d_k = d_min`` throughout).  The branch-and-bound uses the
same bound for pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codes.base import CodeSpace, Word, hamming_distance
from repro.fabrication.complexity import (
    distinct_nonzero_count,
    fabrication_complexity,
)
from repro.fabrication.doping import DopingPlan, default_digit_map


class OptimalSearchError(RuntimeError):
    """Raised when the branch-and-bound exceeds its node budget."""


def sigma_cost_of_order(space: CodeSpace, order: list[int]) -> int:
    """``||nu||_1`` (in sigma_T^2 units) of an arrangement, via the identity.

    Cross-validated against the matrix pipeline in the test suite.
    """
    patterns = [space.pattern_word(i) for i in order]
    rows = len(order)
    total_digits = space.total_length
    cost = rows * total_digits
    for k in range(rows - 1):
        cost += (k + 1) * hamming_distance(patterns[k], patterns[k + 1])
    return cost


def phi_cost_of_order(space: CodeSpace, order: list[int]) -> int:
    """Fabrication complexity Phi of an arrangement (via the dose plan)."""
    reordered = space.rearranged(order)
    plan = DopingPlan.from_code(reordered, len(order), default_digit_map(space.n))
    return fabrication_complexity(plan.steps)


@dataclass(frozen=True)
class OptimalArrangement:
    """Result of an exact arrangement search."""

    order: tuple[int, ...]
    cost: int
    nodes_explored: int
    objective: str


def _min_pattern_distance(patterns: list[Word]) -> int:
    best = None
    for i, a in enumerate(patterns):
        for b in patterns[i + 1 :]:
            d = hamming_distance(a, b)
            best = d if best is None or d < best else best
            if best == 1:
                return 1
    assert best is not None
    return best


def minimise_sigma_arrangement(
    space: CodeSpace,
    node_budget: int = 2_000_000,
) -> OptimalArrangement:
    """Exact minimum-``||Sigma||_1`` arrangement by branch-and-bound.

    Raises :class:`OptimalSearchError` when the budget is exceeded, so a
    caller never mistakes a truncated search for a certified optimum.
    """
    patterns = [space.pattern_word(i) for i in range(space.size)]
    size = space.size
    total_digits = space.total_length
    if size == 1:
        return OptimalArrangement((0,), total_digits, 0, "variability")
    d_min = _min_pattern_distance(patterns)

    dist = np.zeros((size, size), dtype=int)
    for i in range(size):
        for j in range(size):
            if i != j:
                dist[i, j] = hamming_distance(patterns[i], patterns[j])

    best_cost = sigma_cost_of_order(space, list(range(size)))
    best_order = list(range(size))
    nodes = 0
    order: list[int] = []
    used = [False] * size

    def remaining_bound(position: int) -> int:
        """Admissible bound: remaining steps at least d_min each."""
        return d_min * sum(k + 1 for k in range(position, size - 1))

    def extend(position: int, cost_so_far: int) -> None:
        nonlocal best_cost, best_order, nodes
        nodes += 1
        if nodes > node_budget:
            raise OptimalSearchError(
                f"node budget {node_budget} exceeded for {space.name}"
            )
        if position == size:
            if cost_so_far < best_cost:
                best_cost = cost_so_far
                best_order = list(order)
            return
        if cost_so_far + remaining_bound(position) >= best_cost:
            return
        prev = order[-1] if order else None
        candidates = range(size)
        if prev is not None:
            candidates = sorted(range(size), key=lambda c: dist[prev, c])
        for cand in candidates:
            if used[cand]:
                continue
            step = 0 if prev is None else position * int(dist[prev, cand])
            used[cand] = True
            order.append(cand)
            extend(position + 1, cost_so_far + step)
            order.pop()
            used[cand] = False

    extend(0, size * total_digits)
    return OptimalArrangement(tuple(best_order), best_cost, nodes, "variability")


def minimise_phi_arrangement(
    space: CodeSpace,
    node_budget: int = 500_000,
) -> OptimalArrangement:
    """Exact minimum-Phi arrangement by branch-and-bound.

    Edge costs are the distinct-dose counts of each adjacent word pair
    (position-independent), plus a final-word cost for the direct doping
    of the last-defined nanowire.
    """
    size = space.size
    digit_map = default_digit_map(space.n)
    levels = digit_map.doping_levels()
    patterns = [np.asarray(space.pattern_word(i)) for i in range(space.size)]
    dopings = [levels[p] for p in patterns]

    if size == 1:
        return OptimalArrangement(
            (0,), distinct_nonzero_count(dopings[0]), 0, "complexity"
        )

    edge = np.zeros((size, size), dtype=int)
    for i in range(size):
        for j in range(size):
            if i != j:
                edge[i, j] = distinct_nonzero_count(dopings[i] - dopings[j])
    final = np.array([distinct_nonzero_count(d) for d in dopings])
    min_edge = int(edge[edge > 0].min())

    best_cost = phi_cost_of_order(space, list(range(size)))
    best_order = list(range(size))
    nodes = 0
    order: list[int] = []
    used = [False] * size

    def extend(position: int, cost_so_far: int) -> None:
        nonlocal best_cost, best_order, nodes
        nodes += 1
        if nodes > node_budget:
            raise OptimalSearchError(
                f"node budget {node_budget} exceeded for {space.name}"
            )
        if position == size:
            total = cost_so_far + int(final[order[-1]])
            if total < best_cost:
                best_cost = total
                best_order = list(order)
            return
        remaining_steps = size - 1 - position if position > 0 else size - 1
        bound = cost_so_far + min_edge * remaining_steps + int(final.min())
        if bound >= best_cost:
            return
        prev = order[-1] if order else None
        candidates = range(size)
        if prev is not None:
            candidates = sorted(range(size), key=lambda c: edge[prev, c])
        for cand in candidates:
            if used[cand]:
                continue
            step = 0 if prev is None else int(edge[prev, cand])
            used[cand] = True
            order.append(cand)
            extend(position + 1, cost_so_far + step)
            order.pop()
            used[cand] = False

    extend(0, 0)
    return OptimalArrangement(tuple(best_order), best_cost, nodes, "complexity")


def gray_sigma_lower_bound(space: CodeSpace) -> int:
    """The closed-form optimum every Gray arrangement achieves.

    ``N * M + d_min * sum_{k} (k + 1)`` — see the module docstring.
    """
    patterns = [space.pattern_word(i) for i in range(space.size)]
    size = space.size
    d_min = _min_pattern_distance(patterns) if size > 1 else 0
    return size * space.total_length + d_min * sum(range(1, size))


def verify_gray_exact_optimality(n: int, length: int) -> bool:
    """Certify Prop. 4 exactly: Gray order attains the global optimum."""
    from repro.codes.gray import GrayCode

    gray = GrayCode(n, length)
    gray_cost = sigma_cost_of_order(gray, list(range(gray.size)))
    optimum = minimise_sigma_arrangement(gray)
    return gray_cost == optimum.cost == gray_sigma_lower_bound(gray)
