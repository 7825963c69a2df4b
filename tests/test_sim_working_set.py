"""One Monte-Carlo stream block keeps a cache-sized working set.

The margin kernel draws, transforms and reduces one trial slab at a
time into buffers local to the call, and the cave kernel draws one
uniform per wire, so a 4096-trial block of BGC M=8 never holds a
block-sized normal draw.
NumPy reports its buffers to ``tracemalloc``, so the peak below is the
kernel's own allocation high-water mark on any host.  A kernel that
draws a whole block at once peaks at 15 MB (marginmc) and 5 MB
(cavemc).
"""

import tracemalloc

import numpy as np
import pytest

from repro import api
from repro.sim.batch import DEFAULT_STREAM_BLOCK


@pytest.mark.parametrize("kind, bound_mb", [("marginmc", 4.0), ("cavemc", 2.0)])
def test_one_block_peak_allocation(kind, bound_mb):
    kernel = api.mc_kernel(api.McRequest(kind, family="BGC", total_length=8))
    kernel.sample(np.random.default_rng(0), DEFAULT_STREAM_BLOCK)  # warm caches
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        kernel.sample(rng, DEFAULT_STREAM_BLOCK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6, f"{kind} block peaked at {peak / 1e6:.2f} MB"
