"""Shared fixtures."""

import pytest

from redrafter import kernels


@pytest.fixture(params=["numpy", "blas"])
def lane(request, monkeypatch):
    """Route every ``kernels.matmul`` call of the test through one kernel
    lane (attention is the same on both); the blas lane shows up as skipped
    where the import-time row probe withdrew it."""
    try:
        matmul = kernels.get_lane(request.param)
    except KeyError:
        pytest.skip(f"the {request.param} kernel lane is not available here")
    monkeypatch.setattr(kernels, "_matmul_impl", matmul)
    return request.param
