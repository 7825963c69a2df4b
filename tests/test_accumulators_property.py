"""Property tests: StreamingMoments merge algebra and shard-fold exactness.

Two layers of guarantee back the distributed merge:

* **approximate algebra** — Chan's parallel combine is associative and
  commutative up to floating-point rounding, with exact counts; any
  shard split therefore yields statistically identical moments.
* **exact replay** — the shard layer never relies on reordering: shard
  result files store *per-block* ``(count, mean, M2)`` states, and a
  fresh accumulator updated with one batch holds exactly that batch's
  state, so folding the states in global block order is bit-for-bit
  the ``fold`` sequence of a single-host engine run.  That
  property is exact, not approximate, and is asserted with ``==``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.accumulators import StreamingMoments

#: Bounded, well-scaled trial values: keeps rounding differences between
#: merge orders tiny without hiding genuine algebra bugs.
values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

batch = st.lists(values, min_size=1, max_size=40)
batches = st.lists(batch, min_size=1, max_size=8)


def moments_of(data: list[float]) -> StreamingMoments:
    out = StreamingMoments()
    out.update(np.asarray(data))
    return out


def assert_close(a: StreamingMoments, b: StreamingMoments) -> None:
    assert a.count == b.count
    scale = max(1.0, abs(a.mean), abs(b.mean))
    assert math.isclose(a.mean, b.mean, rel_tol=1e-9, abs_tol=1e-9 * scale)
    vscale = max(1.0, a.variance, b.variance)
    assert math.isclose(
        a.variance, b.variance, rel_tol=1e-6, abs_tol=1e-6 * vscale
    )


class TestMergeAlgebra:
    @given(batches)
    @settings(max_examples=80, deadline=None)
    def test_merge_commutative(self, data):
        forward = StreamingMoments()
        for d in data:
            forward.merge(moments_of(d))
        backward = StreamingMoments()
        for d in reversed(data):
            backward.merge(moments_of(d))
        assert_close(forward, backward)

    @given(batches, st.integers(min_value=0, max_value=7))
    @settings(max_examples=80, deadline=None)
    def test_merge_associative_across_any_split(self, data, cut):
        cut = min(cut, len(data))
        left = StreamingMoments()
        for d in data[:cut]:
            left.merge(moments_of(d))
        right = StreamingMoments()
        for d in data[cut:]:
            right.merge(moments_of(d))
        left.merge(right)

        flat = StreamingMoments()
        for d in data:
            flat.merge(moments_of(d))
        assert_close(left, flat)

    @given(batches)
    @settings(max_examples=80, deadline=None)
    def test_merged_moments_match_numpy(self, data):
        acc = StreamingMoments()
        for d in data:
            acc.merge(moments_of(d))
        everything = np.concatenate([np.asarray(d) for d in data])
        assert acc.count == everything.size
        scale = max(1.0, float(np.abs(everything).max()))
        assert math.isclose(
            acc.mean, float(everything.mean()), rel_tol=1e-9, abs_tol=1e-9 * scale
        )


class TestExactShardFold:
    @given(batches)
    @settings(max_examples=80, deadline=None)
    def test_state_roundtrip_is_exact(self, data):
        acc = StreamingMoments()
        for d in data:
            acc.update(np.asarray(d))
        clone = StreamingMoments.from_state(*acc.state())
        assert clone.state() == acc.state()
        assert (clone.mean, clone.std, clone.stderr) == (
            acc.mean,
            acc.std,
            acc.stderr,
        )

    @given(batches)
    @settings(max_examples=80, deadline=None)
    def test_single_batch_accumulator_is_the_batch_state(self, data):
        """With count=0 the combine degenerates to plain assignment."""
        for d in data:
            arr = np.asarray(d, dtype=float)
            n = arr.size
            mean = float(arr.mean())
            m2 = float(((arr - mean) ** 2).sum())
            assert moments_of(d).state() == (n, mean, m2)

    @given(batches, st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_block_order_fold_is_bitexact_for_any_shard_split(self, data, parts):
        """The merge.py invariant: serialising per-block states through
        ``state()``/``from_state`` and folding them in global order is
        *bit-identical* to a single accumulator updated batch by batch,
        however the blocks were grouped into shards.
        """
        direct = StreamingMoments()
        for d in data:
            direct.update(np.asarray(d))

        parts = min(parts, len(data))
        bounds = [round(i * len(data) / parts) for i in range(parts + 1)]
        folded = StreamingMoments()
        for lo, hi in zip(bounds, bounds[1:]):
            shard_states = [moments_of(d).state() for d in data[lo:hi]]
            for state in shard_states:
                folded.merge(StreamingMoments.from_state(*state))
        assert folded.state() == direct.state()
        assert (folded.mean, folded.std, folded.stderr) == (
            direct.mean,
            direct.std,
            direct.stderr,
        )
