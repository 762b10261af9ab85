"""Dense float32 kernels used by the base models.

Every reduction here runs in a fixed, data-independent order: single-precision
accumulation, left to right, starting from +0.0, as in the scalar triple loop.
The exact-output guarantee of the decode loop relies on the packed-verification
path and the plain causal path producing bitwise-identical logits, which only
holds if masked-out attention entries contribute exact zeros to sums taken in
the same order, and if a row's result does not depend on which other rows
share the batch.

The numpy lane does each reduction as whole-array operations, and the order
rule lives in one helper, ``_ordered_sum``.  numpy sums *pairwise* (eight
interleaved partial sums up to 128 terms, recursive halves beyond) whenever
a reduction runs along the innermost, contiguous axis of its operand.  So
``x.sum()``, ``x.sum(axis=-1)`` and ``np.add.reduce`` over a contiguous axis
are banned here: their rounding depends on the row length and on where the
exact zeros of masked entries fall, and survivors of a mask would no longer
match a dense row.  ``_ordered_sum`` instead

- reduces the *outermost* axis of a C-ordered array with ``np.add.reduce``,
  which adds whole slabs one after another, i.e. in index order.  This holds
  only while a slab has at least 2 elements; with 1, numpy collapses the array
  and reduces along a contiguous axis again;
- otherwise uses ``np.add.accumulate``, which is sequential by definition.

Products that feed a sum are written into a fresh C-ordered array with the
summed index outermost (``_ordered_dot``); letting numpy choose the layout
of a broadcast product can put the summed index innermost.  The price is a
temporary as large as the output times the summed length.

numba is an optional extra (``pip install -e ".[numba]"``).  When it imports,
its compiled scalar loops are the default lane, unless
``REDRAFTER_BACKEND=numpy`` forces the numpy lane; without it the numpy lane
runs.  Both lanes implement the same fixed-order arithmetic; within one
process all calls go through the same lane.
"""

import os

import numpy as np

from .errors import ShapeError

_NEG_BIAS = np.float32(-1e9)  # additive mask penalty; exp() underflows to exact 0.0
_ZERO = np.float32(0.0)


def _as_f32(a):
    return np.ascontiguousarray(a, dtype=np.float32)


# ---------------------------------------------------------------------------
# pure-numpy lane
# ---------------------------------------------------------------------------

def _ordered_sum(terms, axis=0):
    """Left-to-right float32 sum of C-ordered ``terms`` along ``axis``, from +0.0."""
    # reduce is sequential only along axis 0 and only while each slab has >= 2 elements
    if terms.shape[axis] == 0 or (axis == 0 and terms.size >= 2 * terms.shape[0]):
        return np.add.reduce(terms, axis=axis, initial=_ZERO)
    # adding +0.0 turns an all-(-0.0) sum into the loop's +0.0 and changes nothing else
    return np.add.accumulate(terms, axis=axis).take(-1, axis=axis) + _ZERO


def _ordered_dot(x, y):
    """Sum over axis 0 of the broadcast product ``x * y``, left to right."""
    terms = np.empty(np.broadcast(x, y).shape, dtype=np.float32)
    return _ordered_sum(np.multiply(x, y, out=terms))


def _matmul_numpy(a, b):
    # terms[k, i, j] = a[i, k] * b[k, j]
    return _ordered_dot(a.T[:, :, None], b[:, None, :])


def _row_softmax_numpy(scores):
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / _ordered_sum(e, axis=-1)[..., None]


def _attend_numpy(q, keys, vals, bias, n_heads, scale):
    """All heads in one pass; the same products and sums as per-head
    ``matmul`` + ``row_softmax`` + ``matmul``."""
    n, d = q.shape
    m = keys.shape[0]
    dh = d // n_heads
    # scores[h, i, j] = sum over t of q[i, h, t] * keys[j, h, t]
    scores = _ordered_dot(q.reshape(n, n_heads, dh).transpose(2, 1, 0)[:, :, :, None],
                          keys.reshape(m, n_heads, dh).transpose(2, 1, 0)[:, :, None, :])
    probs = _row_softmax_numpy(scores * scale + bias)
    # out[h, t, i] = sum over j of probs[h, i, j] * vals[j, h, t]
    out = _ordered_dot(probs.transpose(2, 0, 1)[:, :, None, :],
                       vals.reshape(m, n_heads, dh)[:, :, :, None])
    return out.transpose(2, 0, 1).reshape(n, d)


# ---------------------------------------------------------------------------
# numba lane
# ---------------------------------------------------------------------------

try:
    from numba import njit

    HAVE_NUMBA = True

    @njit(cache=True)
    def _matmul_numba(a, b):
        m, kk = a.shape
        n = b.shape[1]
        out = np.zeros((m, n), dtype=np.float32)
        for i in range(m):
            for j in range(n):
                acc = np.float32(0.0)
                for k in range(kk):
                    p = a[i, k] * b[k, j]
                    acc = acc + p
                out[i, j] = acc
        return out

    @njit(cache=True)
    def _row_softmax_numba(scores):
        n, m = scores.shape
        out = np.empty((n, m), dtype=np.float32)
        for i in range(n):
            mx = scores[i, 0]
            for j in range(1, m):
                if scores[i, j] > mx:
                    mx = scores[i, j]
            total = np.float32(0.0)
            for j in range(m):
                e = np.exp(scores[i, j] - mx)
                out[i, j] = e
                total = total + e
            for j in range(m):
                out[i, j] = out[i, j] / total
        return out

    @njit(cache=True)
    def _attend_numba(q, keys, vals, bias, n_heads, scale):
        n, d = q.shape
        m = keys.shape[0]
        dh = d // n_heads
        out = np.empty((n, d), dtype=np.float32)
        w = np.empty(m, dtype=np.float32)
        for head in range(n_heads):
            lo = head * dh
            for i in range(n):
                mx = np.float32(-np.inf)
                for j in range(m):
                    acc = np.float32(0.0)
                    for k in range(dh):
                        acc = acc + q[i, lo + k] * keys[j, lo + k]
                    s = acc * scale + bias[i, j]
                    w[j] = s
                    if s > mx:
                        mx = s
                total = np.float32(0.0)
                for j in range(m):
                    e = np.exp(w[j] - mx)
                    w[j] = e
                    total = total + e
                for j in range(m):
                    w[j] = w[j] / total
                for k in range(dh):
                    acc = np.float32(0.0)
                    for j in range(m):
                        acc = acc + w[j] * vals[j, lo + k]
                    out[i, lo + k] = acc
        return out

except ImportError:  # pragma: no cover - exercised only without numba installed
    HAVE_NUMBA = False
    _matmul_numba = None
    _row_softmax_numba = None
    _attend_numba = None


_LANES = {"numpy": (_matmul_numpy, _row_softmax_numpy, _attend_numpy)}
if HAVE_NUMBA:
    _LANES["numba"] = (_matmul_numba, _row_softmax_numba, _attend_numba)

_requested = os.environ.get("REDRAFTER_BACKEND", "")
if _requested:
    if _requested not in _LANES:
        raise ImportError(f"REDRAFTER_BACKEND={_requested!r} not available "
                          f"(choices: {sorted(_LANES)})")
    BACKEND = _requested
else:
    BACKEND = "numba" if HAVE_NUMBA else "numpy"

_matmul_impl, _row_softmax_impl, _attend_impl = _LANES[BACKEND]


def get_lane(name):
    """Return (matmul, row_softmax, attend) for an explicit lane; used by the
    backend benchmark."""
    return _LANES[name]


def available_lanes():
    return sorted(_LANES)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Float32 matrix product with fixed-order accumulation.

    Bitwise-equal to the naive triple loop; no data-dependent reordering.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    return _matmul_impl(_as_f32(a), _as_f32(b))


def row_softmax(scores):
    """Row-wise softmax with sequential float32 summation.

    Entries at ``scores + _NEG_BIAS`` exp-underflow to exact 0.0 and therefore
    do not perturb the remaining rows' rounding sequence.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2 or scores.shape[1] == 0:
        raise ShapeError(f"row_softmax expects a non-empty 2-D array, got {scores.shape}")
    return _row_softmax_impl(_as_f32(scores))


def argmax_tie_low(v):
    """Index of the maximum value; ties break toward the lowest index."""
    v = np.asarray(v)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"argmax_tie_low expects a non-empty vector, got shape {v.shape}")
    return int(np.argmax(v))


def attend(q, keys, vals, bias, n_heads, scale):
    """Multi-head scaled-dot attention over an explicit key/value set.

    ``bias`` is additive per (query, key); disallowed keys carry the large
    negative penalty and end up with softmax weight exactly 0.0, so the
    surviving keys see the same rounding sequence as a dense causal row.
    """
    if q.shape[0] != bias.shape[0] or keys.shape[0] != bias.shape[1]:
        raise ShapeError(f"attend: bias {bias.shape} does not match "
                         f"q {q.shape} / keys {keys.shape}")
    if keys.shape != vals.shape or q.shape[1] != keys.shape[1]:
        raise ShapeError(f"attend: incompatible shapes q {q.shape}, keys {keys.shape}, "
                         f"vals {vals.shape}")
    return _attend_impl(_as_f32(q), _as_f32(keys), _as_f32(vals), _as_f32(bias),
                        n_heads, np.float32(scale))


def masked_bias(allowed):
    """Boolean mask -> additive float32 bias (0 where allowed, large negative otherwise)."""
    return np.where(allowed, np.float32(0.0), _NEG_BIAS)
