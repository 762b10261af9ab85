"""Shared fixtures."""

import numpy as np
import pytest

from redrafter import kernels
from redrafter.drafter import DrafterParams


@pytest.fixture(params=["numpy", "blas"])
def lane(request, monkeypatch):
    """Route every ``kernels.matmul`` call of the test through one kernel
    lane (attention is the same on both); the blas lane shows up as skipped
    where the import-time row probe withdrew it."""
    if request.param not in kernels._LANES:
        pytest.skip(f"the {request.param} kernel lane is not available here")
    monkeypatch.setattr(kernels, "matmul", kernels._LANES[request.param])
    return request.param


@pytest.fixture
def float64_drafter():
    """A float64 drafter maker, ``(rng, d_s, vocab_size) -> DrafterParams``:
    ``DrafterParams.random``'s normal draws, the same rng calls in the same
    order, kept in float64 instead of rounded to float32.  The drafter runs
    in its parameters' dtype, so the checks held to float64 references or
    finite differences run the production code at float64's precision."""
    def make(rng, d_s, vocab_size):
        d_g = 2 * d_s
        return DrafterParams(
            u=rng.normal(0.0, 0.1, (d_s, d_s)),
            w=rng.normal(0.0, 0.1, (d_s, d_s)),
            b=np.zeros(d_s),
            mlp=[(rng.normal(0.0, 0.1, (d_g, d_g)), np.zeros(d_g)) for _ in range(2)],
            out_proj=rng.normal(0.0, 0.1, (vocab_size, d_g)),
        )
    return make
