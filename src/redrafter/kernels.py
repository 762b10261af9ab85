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
of each numpy call it makes.  So the kernels convert and check nothing: they
take the float32 2-D operands the model's forwards hand them, and those
forwards, which check every token, mask, start and capacity, are the one
boundary where a forward's inputs are checked.  No operand is copied (the
query is a strided view of the fused QKV product), and the fresh score array
is scaled, masked, shifted and exponentiated in place.

Attention's boolean mask covers only the last keys, or none: the new rows
of a forward see every committed key, so a caller passes the mask over the
keys past the committed context, or None when every row sees every key, as
greedy's one row does.  A disallowed key's scaled score is overwritten with
the -1e9 penalty, and allowed scores are never touched.  Every row sees at
least itself, so its max is an allowed score, and each disallowed key's
exponential underflows to exactly +0.0.

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

# there is no numba lane; perfbench/run.py's environment stamp reads this
HAVE_NUMBA = False

_NEG_BIAS = np.float32(-1e9)  # a disallowed key's score; its exp() underflows to exact 0.0
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


def attend(q, keys, vals, allowed, n_heads, scale):
    """Multi-head scaled-dot attention over an explicit key/value set.

    Unchecked contract: ``q``, ``keys`` and ``vals`` are float32 and 2-D,
    ``keys.shape == vals.shape`` and ``n_heads`` splits the width.
    ``allowed`` is None, every query seeing every key, or a boolean (query,
    key) mask over the *last* ``allowed.shape[1] <= len(keys)`` keys; every
    query sees the keys before them.  A disallowed key's score is set to the
    large negative penalty, of softmax weight exactly 0.0, so the surviving
    keys see the same rounding sequence as a dense causal row.  All heads go
    in one pass: the same products and sums as per-head ``matmul``, a row
    softmax with a left-to-right denominator, and ``matmul``.
    """
    n, d = q.shape
    m = keys.shape[0]
    dh = d // n_heads
    # scores[h, i, j] = sum over t of q[i, h, t] * keys[j, h, t]
    terms = np.empty((dh, n_heads, n, m), dtype=np.float32)
    np.multiply(q.reshape(n, n_heads, dh).T[:, :, :, None],
                keys.reshape(m, n_heads, dh).T[:, :, None, :], out=terms)
    scores = _ordered_sum(terms)
    scores *= np.float32(scale)
    if allowed is not None:
        np.copyto(scores[:, :, m - allowed.shape[1]:], _NEG_BIAS, where=~allowed)
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

# the public matmul is the selected lane: the float32 product of 2-D float32
# operands whose inner dimensions agree, unchecked; bitwise the triple loop on
# the numpy lane, one BLAS vector x matrix call per row on the blas lane
matmul = _LANES[BACKEND]
