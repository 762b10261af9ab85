"""Dense float32 kernels used by the base models.

The exact-output guarantee of the decode loop relies on the packed-verification
path and the plain causal path producing bitwise-identical logits.  That
holds if masked-out attention entries contribute exact zeros to sums taken in
the same order, and if a row's result does not depend on which other rows
share the batch or where it sits among them.  Attention has one
implementation, which runs every reduction in a fixed, data-independent
order: single-precision accumulation, left to right, starting from +0.0, as
in the scalar triple loop; its probability x value sum runs over key
positions that differ between a tree row and the same row decoded greedily,
so no BLAS call may choose that order.  A kernel lane is a matmul:

- ``numpy`` sums in the same fixed order, so its matmul is bitwise the
  triple loop.
- ``blas`` makes one identical BLAS vector x matrix call per matmul row
  (``np.matmul`` over a stack of 1-row operands), so a row's bits cannot
  depend on the batch; which order BLAS sums in is its own, so the lane is
  not bitwise the triple loop.

The fixed-order code does each reduction as whole-array operations, and the
order rule lives in one helper, ``_ordered_sum``.  numpy sums *pairwise*
(eight interleaved partial sums up to 128 terms, recursive halves beyond)
whenever a reduction runs along the innermost, contiguous axis of its
operand.  So ``x.sum()``, ``x.sum(axis=-1)`` and ``np.add.reduce`` over a
contiguous axis are banned here: their rounding depends on the row length
and on where the exact zeros of masked entries fall, and survivors of a
mask would no longer match a dense row.  ``_ordered_sum`` instead

- reduces the *outermost* axis of a C-ordered array with ``np.add.reduce``,
  which adds whole slabs one after another, i.e. in index order.  This holds
  only while a slab has at least 2 elements; with 1, numpy collapses the array
  and reduces along a contiguous axis again;
- otherwise uses ``np.add.accumulate``, which is sequential by definition.

Products that feed a sum are written, with ``out=``, into a fresh
``np.empty`` array that is C-ordered with the summed index outermost;
letting numpy choose the layout of a broadcast product can put the summed
index innermost.  The price is a temporary as large as the output times the
summed length.  Attention reads the query and the keys as (head dim, head,
...) views for its score products, and copies the softmax exponentials once,
to (key, head, query), so the denominator is an outer-axis sum and the
probabilities feed the output products as they are.

Calls with more than one row write the matmul products, and attention's
probability x value products, with a contraction-free ``np.einsum`` (every
input index appears in the output, so it sums nothing) into the same
C-ordered temporary, passed as ``out=``; left to itself, einsum picks the
temporary's layout.  Each product is still one float32 multiply.  einsum adds
each product to a zeroed output, so it writes +0.0 where ``np.multiply``
writes -0.0; every sum here starts from +0.0, and the accumulate fallback
adds +0.0 at the end, so each sum has the same bits either way.  einsum pays
only with several rows.  On a 2-vCPU Xeon VM, the products of a 9 x 32 x 96
matmul take 14.2 us against 22.9 us with ``np.multiply``; but a 1-row
matmul's take 5.4 us against 3.0 us, and 1-row score products, whose query
operand is a strided view, 3.9 us against 3.0 us.  So 1-row calls, which
are all of greedy decoding's, and the score products keep ``np.multiply``.

A 1-row call does little arithmetic: its cost is mostly the fixed ~0.5-3 us
of each numpy call it makes.  So no call here copies an operand that is
already float32 (the query is a strided view of the fused QKV product), and
the fresh score array is scaled, biased, shifted and exponentiated in place.
On the same VM, in-process, that took a 1-row 32 x 64 matmul from 7.8 to
5.1 us and a 1-row attend over 21 keys (width 32, 4 heads) from 23 to 20 us.

``tests/test_kernels.py`` lints this fixed-order source for ``.sum``,
``dot``, ``matmul``, ``@`` and einsum subscripts that sum an index.

The default lane is blas when the row probe below passes, else numpy;
``REDRAFTER_BACKEND`` names one lane explicitly.  Within one process all
matmuls go through the same lane.

A BLAS row's bits are an observed property of the BLAS build, not a
documented contract, so at import ``row_dependence`` compares each row of
batched blas calls (K from 8 to 1024, up to 130 rows) with the same row one
place later in the batch and computed alone.  If any differs, the blas lane
is withdrawn, and ``REDRAFTER_BACKEND=blas`` raises ``ImportError`` naming
the shape.  On a 2-vCPU Xeon VM (OpenBLAS 0.3.31, Haswell kernels) a 1-row
32 x 96 matmul takes 3.9 us on this lane against 10.4 us on the numpy lane,
and a 9-row one 5.4 us against 27.4 us.  A plain ``a @ b`` there is not row
invariant: its rows change with the row count from K = 64 on, and with every
1-row call padded to 2 rows, from K = 512 on.
"""

import os

import numpy as np

from .errors import ShapeError

# there is no numba lane; perfbench/run.py's environment stamp reads this
HAVE_NUMBA = False

_NEG_BIAS = np.float32(-1e9)  # additive mask penalty; exp() underflows to exact 0.0
_ZERO = np.float32(0.0)


# ---------------------------------------------------------------------------
# fixed-order sums: the numpy lane's matmul, and attention
# ---------------------------------------------------------------------------

def _ordered_sum(terms):
    """Left-to-right float32 sum of C-ordered ``terms`` along axis 0, from +0.0."""
    # reduce is sequential along axis 0 only while each slab has >= 2 elements
    if terms.shape[0] == 0 or terms.size >= 2 * terms.shape[0]:
        return np.add.reduce(terms, axis=0, initial=_ZERO)
    # adding +0.0 turns an all-(-0.0) sum into the loop's +0.0 and changes nothing else
    return np.add.accumulate(terms, axis=0)[-1] + _ZERO


def _matmul_numpy(a, b):
    # terms[k, i, j] = a[i, k] * b[k, j]
    if a.shape[0] == 1:
        terms = np.empty(b.shape, dtype=np.float32)
        return _ordered_sum(np.multiply(a.T, b, out=terms))[None]
    terms = np.empty((a.shape[1], a.shape[0], b.shape[1]), dtype=np.float32)
    return _ordered_sum(np.einsum("ik,kj->kij", a, b, out=terms))


def _attend_numpy(q, keys, vals, bias, n_heads, scale):
    """All heads in one pass; the same products and sums as per-head
    ``matmul``, a row softmax with a left-to-right denominator, and ``matmul``."""
    n, d = q.shape
    m = keys.shape[0]
    dh = d // n_heads
    # scores[h, i, j] = sum over t of q[i, h, t] * keys[j, h, t]
    terms = np.empty((dh, n_heads, n, m), dtype=np.float32)
    np.multiply(q.reshape(n, n_heads, dh).T[:, :, :, None],
                keys.reshape(m, n_heads, dh).T[:, :, None, :], out=terms)
    scores = _ordered_sum(terms)
    scores *= scale
    scores += bias
    # softmax over keys; probs[j, h, i] holds it keys first, so the
    # denominator is an outer-axis sum
    scores -= np.maximum.reduce(scores, axis=2, keepdims=True)
    probs = np.ascontiguousarray(np.exp(scores, out=scores).transpose(2, 0, 1))
    probs /= _ordered_sum(probs)
    # out[h, t, i] = sum over j of probs[j, h, i] * vals[j, h, t]
    vals = vals.reshape(m, n_heads, dh)
    if n == 1:
        terms = np.empty((m, n_heads, dh), dtype=np.float32)
        return _ordered_sum(np.multiply(probs, vals, out=terms)).reshape(1, d)
    terms = np.empty((m, n_heads, dh, n), dtype=np.float32)
    out = _ordered_sum(np.einsum("jhi,jht->jhti", probs, vals, out=terms))
    return out.transpose(2, 0, 1).reshape(n, d)


# ---------------------------------------------------------------------------
# BLAS lane
# ---------------------------------------------------------------------------

def _matmul_blas(a, b):
    # a stack of 1-row products: numpy makes the same gemv call for every
    # row.  A strided row (a multi-row attention output is a transposed view)
    # takes another gemv path, whose bits differ from K = 64 on, so rows are
    # made contiguous first.
    return np.matmul(np.ascontiguousarray(a)[:, None, :], b)[:, 0, :]


def row_dependence(matmul):
    """The first shape at which a row of ``matmul(a, b)`` changes, bit for
    bit, when it sits one place later in the batch or is computed alone, as
    a message naming it; None when no row does."""
    rng = np.random.default_rng(0)
    a_all = rng.standard_normal((131, 1024), dtype=np.float32)
    b_all = rng.standard_normal((1024, 40), dtype=np.float32)
    for k in (8, 32, 64, 256, 1024):
        for n in (1, 7, 40):
            b = np.ascontiguousarray(b_all[:k, :n])
            for m in (2, 9, 40, 130):
                a = np.ascontiguousarray(a_all[:m + 1, :k])
                got = matmul(a[:m], b)
                pairs = [(matmul(a[1:], b)[:-1], got[1:])]
                pairs += [(matmul(a[i:i + 1].copy(), b), got[i:i + 1]) for i in (0, m - 1)]
                if any(not np.array_equal(x.view(np.uint32), y.view(np.uint32))
                       for x, y in pairs):
                    return (f"a row of a {m}-row matmul with K={k}, N={n} depends on the "
                            f"other rows of the batch")
    return None


_LANES = {"numpy": _matmul_numpy}
_blas_fault = row_dependence(_matmul_blas)
if _blas_fault is None:
    _LANES["blas"] = _matmul_blas

_requested = os.environ.get("REDRAFTER_BACKEND", "")
if _requested == "blas" and _blas_fault:
    raise ImportError(f"REDRAFTER_BACKEND=blas refused: {_blas_fault}")
if _requested:
    if _requested not in _LANES:
        raise ImportError(f"REDRAFTER_BACKEND={_requested!r} not available "
                          f"(choices: {sorted(_LANES)})")
    BACKEND = _requested
else:
    BACKEND = "blas" if "blas" in _LANES else "numpy"

_matmul_impl = _LANES[BACKEND]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Float32 matrix product whose rows do not depend on the batch.

    On the numpy lane it is bitwise the naive triple loop; on the blas lane
    each row is one BLAS vector x matrix call.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    return _matmul_impl(a, b)


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
    if n_heads < 1 or q.shape[1] % n_heads:
        raise ShapeError(f"attend: width {q.shape[1]} does not split into {n_heads} heads")
    f32 = np.float32
    return _attend_numpy(np.asarray(q, f32), np.asarray(keys, f32), np.asarray(vals, f32),
                        np.asarray(bias, f32), n_heads, f32(scale))


def masked_bias(allowed):
    """Boolean mask -> additive float32 bias (0 where allowed, large negative otherwise)."""
    return np.where(allowed, np.float32(0.0), _NEG_BIAS)
