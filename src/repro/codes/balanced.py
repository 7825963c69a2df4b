"""Balanced Gray codes (BGC): transition-balanced Gray arrangements (Sec. 2.3).

A balanced Gray code is a Gray arrangement of the full tree-code space in
which the per-digit transition counts are as equal as possible (the
paper's reference [3], Bhat & Savage).  The standard reflected Gray code
is maximally *unbalanced* — its least significant digit absorbs half of
all transitions — which concentrates threshold-voltage variability in a
few doping regions.  Balancing spreads the variability evenly across the
decoder (Fig. 6.e/f) and lowers the worst-case region variance, which is
what improves the crossbar yield (Fig. 7).

Construction
------------
Published balanced-Gray constructions (Robinson–Cohn, Bhat–Savage) are
specific to binary cycles of power-of-two length.  The code spaces used
by the paper are tiny (at most ``n**m <= 64`` words for the plotted
lengths), so this module finds balanced Gray *paths* directly with an
iterative-deepening backtracking search over the per-digit transition
cap: the smallest cap is ``ceil((n**m - 1) / m)`` (perfect balance), and
the search raises the cap only when no Hamiltonian path satisfies it
within the node budget.  Results are memoised per ``(n, m)``, so each
space is searched at most once per process.

For n-valued logic the allowed step is the reflected-Gray step (one digit
changes by +-1), which is a valid Gray step and keeps the branching
factor small.
"""

from __future__ import annotations

from typing import Iterator

from repro.codes.base import CodeError, CodeSpace, Word
from repro.codes.metrics import digit_transition_counts, is_gray_sequence


def _balanced_path_search(
    n: int,
    length: int,
    cap: int,
    start: Word,
    node_budget: int,
    require_cycle: bool = False,
    order: str = "balance",
) -> list[Word] | None:
    """Depth-first search for a Gray Hamiltonian path with capped digit counts.

    With ``require_cycle`` the last word must additionally be a Gray
    neighbour of ``start``, making the sequence a Gray *cycle* — this is
    preferred because half caves holding more nanowires than the code
    space restart the code, and a cycle keeps the wrap-around step a
    single-digit transition too.

    The depth-first search keeps an explicit stack of move iterators,
    one per path word, so its depth is not bounded by the interpreter's
    recursion limit.  Returns the path, or None if none exists under
    ``cap`` or the node budget runs out (inconclusive).
    """
    size = n**length
    path: list[Word] = [start]
    visited: set[Word] = {start}
    counts = [0] * length
    nodes = 0

    def raw_neighbours(word: Word) -> list[tuple[int, Word]]:
        """All unvisited +-1 single-digit neighbours (ignoring the cap)."""
        out = []
        for j in range(length):
            for v in (word[j] - 1, word[j] + 1):
                if 0 <= v < n:
                    nxt = word[:j] + (v,) + word[j + 1 :]
                    if nxt not in visited:
                        out.append((j, nxt))
        return out

    def candidate_moves(word: Word) -> list[tuple[int, Word]]:
        """Legal moves, best-first.

        Two orderings, both combining the Warnsdorff rule (fewest onward
        moves first, which keeps Hamiltonian searches on grid graphs from
        stranding corners) with a balance bias (digits with the fewest
        transitions so far first); ``order`` decides which criterion
        leads.  Balance-first finds tighter caps on most spaces;
        Warnsdorff-first rescues the larger grid spaces (e.g. n=4, m=3).
        """
        moves = []
        for j, nxt in raw_neighbours(word):
            if counts[j] >= cap:
                continue
            visited.add(nxt)
            onward = len(raw_neighbours(nxt))
            visited.remove(nxt)
            moves.append((onward, counts[j], j, nxt))
        if order == "balance":
            moves.sort(key=lambda m: (m[1], m[0]))
        else:
            moves.sort(key=lambda m: (m[0], m[1]))
        return [(j, nxt) for _, __, j, nxt in moves]

    def is_gray_neighbour_of_start(word: Word) -> bool:
        return sum(1 for a, b in zip(word, start) if a != b) == 1

    # stack[d] iterates the moves out of path[d]; changed[d] is the
    # digit the move to path[d + 1] stepped, to undo on backtrack
    stack: list[Iterator[tuple[int, Word]]] = []
    changed: list[int] = []
    while True:
        if len(path) < size:
            nodes += 1
            if nodes > node_budget:
                return None
            stack.append(iter(candidate_moves(path[-1])))
        elif not require_cycle or is_gray_neighbour_of_start(path[-1]):
            return path
        while True:
            if len(changed) == len(stack):
                counts[changed.pop()] -= 1
                visited.remove(path.pop())
            move = next(stack[-1], None)
            if move is not None:
                break
            stack.pop()
            if not stack:
                return None
        j, nxt = move
        visited.add(nxt)
        path.append(nxt)
        counts[j] += 1
        changed.append(j)


_CACHE: dict[tuple[int, int], list[Word]] = {}


def balanced_gray_words(
    n: int,
    length: int,
    node_budget: int = 150_000,
    extra_cap_slack: int = 4,
) -> list[Word]:
    """A Gray ordering of all ``n**length`` words with balanced digit counts.

    Parameters
    ----------
    n, length:
        Logic valence and raw word length ``m``.
    node_budget:
        Backtracking node limit per (cap, start) attempt.
    extra_cap_slack:
        How far above the perfect-balance cap the iterative deepening may
        go before giving up.

    Raises
    ------
    CodeError
        If no balanced Gray path is found within the allowed caps; this
        does not occur for the code sizes used in the paper (m <= 5).
    """
    key = (n, length)
    if key in _CACHE:
        return list(_CACHE[key])
    if length < 1 or n < 2:
        raise CodeError(f"invalid balanced Gray parameters n={n}, m={length}")
    if length == 1:
        words: list[Word] = [(d,) for d in range(n)]
        _CACHE[key] = words
        return list(words)

    size = n**length
    perfect_cap = -(-(size - 1) // length)  # ceil((size-1)/m)
    starts: list[Word] = [(0,) * length, (n - 1,) + (0,) * (length - 1)]
    # first pass: insist on a Gray cycle (single-digit wrap-around), which
    # exists whenever the word count is even; second pass: any Gray path.
    for require_cycle in (True, False):
        for cap in range(perfect_cap, perfect_cap + extra_cap_slack + 1):
            for order in ("balance", "warnsdorff"):
                for start in starts:
                    path = _balanced_path_search(
                        n, length, cap, start, node_budget, require_cycle, order
                    )
                    if path is not None:
                        _CACHE[key] = path
                        return list(path)
    raise CodeError(
        f"no balanced Gray path found for n={n}, m={length} "
        f"within cap {perfect_cap + extra_cap_slack}"
    )


class BalancedGrayCode(CodeSpace):
    """Balanced Gray arrangement of the full tree-code space, used reflected.

    Examples
    --------
    >>> bgc = BalancedGrayCode(n=2, length=3)
    >>> from repro.codes.metrics import digit_transition_counts
    >>> counts = digit_transition_counts(list(bgc.words))
    >>> max(counts) - min(counts) <= 1
    True
    """

    family = "BGC"

    def __init__(self, n: int, length: int) -> None:
        words = balanced_gray_words(n, length)
        if not is_gray_sequence(words):
            raise CodeError("internal error: balanced search returned non-Gray path")
        super().__init__(
            words,
            n,
            reflected=True,
            name=f"BGC(n={n},m={length})",
        )

    @classmethod
    def from_total_length(cls, n: int, total_length: int) -> "BalancedGrayCode":
        """Build from the reflected length ``M`` used in the paper's plots."""
        if total_length % 2 != 0:
            raise CodeError(
                f"reflected Gray codes need an even total length, got {total_length}"
            )
        return cls(n, total_length // 2)

    def digit_balance(self) -> dict:
        """Balance diagnostics of the raw-word sequence."""
        counts = digit_transition_counts(list(self.words))
        return {
            "per_digit": counts,
            "max": max(counts),
            "min": min(counts),
            "spread": max(counts) - min(counts),
        }
