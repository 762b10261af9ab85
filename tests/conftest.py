"""Shared fixtures."""

import pytest

from redrafter import kernels


@pytest.fixture(params=["numpy", "blas"])
def lane(request, monkeypatch):
    """Route every ``kernels.matmul`` call of the test through one kernel
    lane (attention is the same on both); the blas lane shows up as skipped
    where the import-time row probe withdrew it."""
    if request.param not in kernels._LANES:
        pytest.skip(f"the {request.param} kernel lane is not available here")
    monkeypatch.setattr(kernels, "_matmul_impl", kernels._LANES[request.param])
    return request.param
