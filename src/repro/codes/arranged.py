"""Arranged hot codes (AHC): minimum-transition hot-code orderings (Sec. 5.2).

Hot-code words all share the same value multiplicities, so two distinct
words differ in at least two digits; the best possible "Gray-like"
arrangement of a hot code therefore has exactly two digit transitions
between successive words (a swap of two positions).  The paper finds by
exhaustive search that such arrangements exist for every hot code of
practical size and shows (analogously to Props. 4 and 5) that they are
optimal among all arrangements of the same space w.r.t. fabrication
complexity and variability.

For binary hot codes a distance-2 arrangement is the classic
"revolving-door" combination Gray code; rather than special-casing it we
search the distance-2 graph (the Johnson graph for binary codes) directly
with a Warnsdorff-style backtracking search, additionally steering the
search toward *balanced* per-digit transition counts — the same
balancing idea the paper applies to Gray codes.  All spaces used in the
paper's plots (up to 252 words) are solved in well under a second and
memoised per ``(n, k)``.
"""

from __future__ import annotations

from typing import Iterator

from repro.codes.base import CodeError, CodeSpace, Word, hamming_distance
from repro.codes.hot import hot_words
from repro.codes.metrics import digit_transition_counts, is_distance_sequence


def _swap_neighbours(word: Word) -> list[Word]:
    """All words obtained from ``word`` by swapping two unequal digits.

    For hot codes these are exactly the distance-2 neighbours within the
    same code space (any other change alters the value multiplicities).
    """
    out = []
    m = len(word)
    for a in range(m):
        for b in range(a + 1, m):
            if word[a] != word[b]:
                w = list(word)
                w[a], w[b] = w[b], w[a]
                out.append(tuple(w))
    return out


def _arranged_path_search(
    words: list[Word],
    start: Word,
    node_budget: int,
) -> list[Word] | None:
    """Hamiltonian distance-2 path over ``words`` starting at ``start``.

    Move ordering combines the Warnsdorff rule (fewest onward moves
    first) with a balance bias (prefer swaps touching digits with the
    fewest transitions so far).  The depth-first search keeps an
    explicit stack of move iterators, one per path word, so its depth
    is not bounded by the interpreter's recursion limit.  Returns None
    when no path exists or the node budget runs out.
    """
    space = set(words)
    m = len(start)
    path = [start]
    visited = {start}
    counts = [0] * m
    nodes = 0

    def legal_moves(word: Word) -> list[Word]:
        return [w for w in _swap_neighbours(word) if w in space and w not in visited]

    def move_key(word: Word, nxt: Word) -> tuple[int, int]:
        onward = len(legal_moves(nxt))
        balance = sum(counts[j] for j in range(m) if word[j] != nxt[j])
        return (onward, balance)

    def ordered_moves(word: Word) -> Iterator[Word]:
        return iter(sorted(legal_moves(word), key=lambda w: move_key(word, w)))

    # stack[d] iterates the moves out of path[d]; changed[d] holds the
    # digits the move to path[d + 1] swapped, to undo on backtrack
    stack: list[Iterator[Word]] = []
    changed: list[list[int]] = []
    while True:
        if len(path) == len(words):
            return path
        nodes += 1
        if nodes > node_budget:
            return None
        stack.append(ordered_moves(path[-1]))
        while True:
            if len(changed) == len(stack):
                for j in changed.pop():
                    counts[j] -= 1
                visited.remove(path.pop())
            nxt = next(stack[-1], None)
            if nxt is not None:
                break
            stack.pop()
            if not stack:
                return None
        word = path[-1]
        swapped = [j for j in range(m) if word[j] != nxt[j]]
        visited.add(nxt)
        path.append(nxt)
        for j in swapped:
            counts[j] += 1
        changed.append(swapped)


_CACHE: dict[tuple[int, int], list[Word]] = {}


def arranged_hot_words(n: int, k: int, node_budget: int = 500_000) -> list[Word]:
    """A distance-2 (minimum-transition) ordering of the (k*n, k) hot code.

    Raises
    ------
    CodeError
        If no arrangement is found within the node budget; per the
        paper's exhaustive-search observation this does not happen for
        code spaces of practical size.
    """
    key = (n, k)
    if key in _CACHE:
        return list(_CACHE[key])
    words = hot_words(n, k)
    if len(words) == 1:
        _CACHE[key] = words
        return list(words)
    starts = [words[0], words[-1]]
    for start in starts:
        path = _arranged_path_search(words, start, node_budget)
        if path is not None:
            _CACHE[key] = path
            return list(path)
    raise CodeError(f"no distance-2 arrangement found for hot code n={n}, k={k}")


class ArrangedHotCode(CodeSpace):
    """Hot code reordered so successive words differ in exactly two digits.

    Examples
    --------
    >>> ahc = ArrangedHotCode(n=2, k=2)
    >>> from repro.codes.metrics import step_transitions
    >>> set(step_transitions(list(ahc.words)))
    {2}
    """

    family = "AHC"

    def __init__(self, n: int, k: int) -> None:
        self._k = int(k)
        words = arranged_hot_words(n, k)
        if len(words) > 1 and not is_distance_sequence(words, 2):
            raise CodeError("internal error: arrangement is not distance-2")
        super().__init__(
            words,
            n,
            reflected=False,
            name=f"AHC(n={n},M={k * n},k={k})",
        )

    @property
    def k(self) -> int:
        """Value multiplicity inherited from the underlying hot code."""
        return self._k

    @classmethod
    def from_total_length(cls, n: int, total_length: int) -> "ArrangedHotCode":
        """Build from the word length ``M``; requires ``n | M``."""
        if total_length % n != 0:
            raise CodeError(
                f"hot codes need M divisible by n, got M={total_length}, n={n}"
            )
        return cls(n, total_length // n)

    def digit_balance(self) -> dict:
        """Per-digit transition statistics of the arrangement."""
        counts = digit_transition_counts(list(self.words))
        return {
            "per_digit": counts,
            "max": max(counts),
            "min": min(counts),
            "spread": max(counts) - min(counts),
        }


def minimum_possible_step(words: list[Word]) -> int:
    """Smallest Hamming distance between any two distinct words.

    For hot codes this equals 2, which is why distance-2 arrangements are
    transition-optimal (Sec. 5.2).
    """
    best = None
    for i, a in enumerate(words):
        for b in words[i + 1 :]:
            d = hamming_distance(a, b)
            if best is None or d < best:
                best = d
            if best == 1:
                return 1
    if best is None:
        raise CodeError("need at least two words")
    return best
