"""Kernel-level checks: fixed-order arithmetic, row invariance, lane agreement,
mask zeros."""

import numpy as np
import pytest

from redrafter import kernels
from redrafter.errors import ShapeError


def naive_matmul(a, b):
    """Reference triple loop, float32 accumulation in i, j, k order."""
    a = a.astype(np.float32)
    b = b.astype(np.float32)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = np.float32(0.0)
            for k in range(a.shape[1]):
                acc = np.float32(acc + np.float32(a[i, k] * b[k, j]))
            out[i, j] = acc
    return out


# Every lane is listed; one that cannot run here shows up as skipped.
LANES = ["numpy",
         pytest.param("numba", marks=pytest.mark.skipif(
             not kernels.HAVE_NUMBA, reason="numba is not installed: numba kernel lane untested"))]

# (m, k, n): a single output element, one output column, and summed lengths
# on both sides of numpy's pairwise-summation blocks (8 and 128 terms).
EDGE_SHAPES = [(1, 1, 1), (1, 9, 1), (5, 7, 1), (3, 1, 4), (4, 8, 3), (4, 9, 3), (3, 130, 5),
               (1, 130, 1)]


def bits(x):
    return x.view(np.uint32)  # distinguishes -0.0 from +0.0, unlike ==


@pytest.mark.parametrize("lane", LANES)
def test_matmul_matches_triple_loop_bitwise(lane):
    matmul, _, _ = kernels.get_lane(lane)
    rng = np.random.default_rng(0)
    shapes = [tuple(rng.integers(1, 9, size=3)) for _ in range(5)] + EDGE_SHAPES
    for m, k, n in shapes:
        a = rng.normal(size=(m, k)).astype(np.float32)
        b = rng.normal(size=(k, n)).astype(np.float32)
        got = matmul(a, b)
        assert got.dtype == np.float32
        assert np.array_equal(bits(got), bits(naive_matmul(a, b))), (m, k, n)
        # row invariance: a row's result does not depend on the rest of the batch
        for i in range(m):
            assert np.array_equal(bits(matmul(a[i:i + 1], b)), bits(got[i:i + 1])), (m, k, n, i)


def test_matmul_close_to_float64_reference():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(16, 32)).astype(np.float32)
    b = rng.normal(size=(32, 12)).astype(np.float32)
    ref = a.astype(np.float64) @ b.astype(np.float64)
    assert np.allclose(kernels.matmul(a, b), ref, atol=1e-4)


def test_matmul_shape_validation():
    with pytest.raises(ShapeError):
        kernels.matmul(np.zeros((2, 3)), np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        kernels.matmul(np.zeros(3), np.zeros((3, 2)))


@pytest.mark.parametrize("lane", LANES)
def test_row_softmax_rows_normalize(lane):
    _, row_softmax, _ = kernels.get_lane(lane)
    rng = np.random.default_rng(2)
    scores = rng.normal(scale=3.0, size=(7, 11)).astype(np.float32)
    probs = row_softmax(scores)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)


@pytest.mark.parametrize("lane", LANES)
def test_masked_entries_are_exact_zero_and_do_not_perturb(lane):
    """Masked-out columns must not change the other columns' bits.

    Rows longer than 8 and 128 columns, with masked columns between live
    ones, are where a pairwise (blocked) sum would regroup the survivors.
    """
    _, row_softmax, _ = kernels.get_lane(lane)
    rng = np.random.default_rng(3)
    for cols, masked_cols in [(6, [4]), (20, [1, 2, 9, 15]), (150, list(range(0, 150, 3)))]:
        scores = rng.normal(size=(5, cols)).astype(np.float32)
        bias = np.zeros_like(scores)
        bias[:, masked_cols] = kernels._NEG_BIAS
        masked = row_softmax(scores + bias)
        assert np.all(masked[:, masked_cols] == 0.0)
        # removing the masked columns entirely gives bitwise-identical survivors
        keep = [j for j in range(cols) if j not in masked_cols]
        direct = row_softmax(scores[:, keep])
        assert np.array_equal(bits(masked[:, keep]), bits(direct)), cols


def test_masked_bias_values():
    allowed = np.array([[True, False], [False, True]])
    bias = kernels.masked_bias(allowed)
    assert bias[0, 0] == 0.0 and bias[1, 1] == 0.0
    assert bias[0, 1] == kernels._NEG_BIAS and bias[1, 0] == kernels._NEG_BIAS


def test_argmax_breaks_ties_toward_low_index():
    assert kernels.argmax_tie_low(np.array([1.0, 3.0, 3.0, 2.0])) == 1
    assert kernels.argmax_tie_low(np.array([5.0])) == 0
    with pytest.raises(ShapeError):
        kernels.argmax_tie_low(np.zeros(0))


@pytest.mark.parametrize("lane", LANES)
def test_attend_equals_composed_primitives(lane):
    """The fused attention kernel must reproduce matmul + softmax + matmul
    of the same lane bitwise: they share one accumulation order.  Each query
    row attended alone gives the same bits as in the batch."""
    matmul, row_softmax, attend = kernels.get_lane(lane)
    rng = np.random.default_rng(5)
    n, m, n_heads, dh = 4, 7, 2, 3
    d = n_heads * dh
    q = rng.normal(size=(n, d)).astype(np.float32)
    keys = rng.normal(size=(m, d)).astype(np.float32)
    vals = rng.normal(size=(m, d)).astype(np.float32)
    allowed = rng.random((n, m)) > 0.3
    allowed[:, 0] = True  # every query needs at least one key
    bias = kernels.masked_bias(allowed)
    scale = np.float32(1.0 / np.sqrt(dh))

    got = attend(q, keys, vals, bias, n_heads, scale)
    for head in range(n_heads):
        sl = slice(head * dh, (head + 1) * dh)
        scores = matmul(q[:, sl], np.ascontiguousarray(keys[:, sl].T)) * scale + bias
        probs = row_softmax(scores)
        expect = matmul(probs, vals[:, sl])
        assert np.array_equal(bits(got[:, sl]), bits(expect))
    for i in range(n):
        alone = attend(q[i:i + 1], keys, vals, bias[i:i + 1], n_heads, scale)
        assert np.array_equal(bits(alone), bits(got[i:i + 1]))


def test_attend_shape_validation():
    q = np.zeros((2, 4), np.float32)
    kv = np.zeros((3, 4), np.float32)
    with pytest.raises(ShapeError):
        kernels.attend(q, kv, kv, np.zeros((2, 5), np.float32), 2, 0.5)
    with pytest.raises(ShapeError):
        kernels.attend(q, kv, np.zeros((3, 6), np.float32), np.zeros((2, 3), np.float32), 2, 0.5)


def test_backend_selection_is_consistent():
    assert kernels.BACKEND in kernels.available_lanes()
    assert (kernels.matmul.__wrapped__ if hasattr(kernels.matmul, "__wrapped__")
            else kernels._matmul_impl) is kernels.get_lane(kernels.BACKEND)[0]
