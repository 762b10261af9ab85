"""Kernel-level checks: fixed-order arithmetic, row invariance, lane agreement,
mask zeros, a lint of the fixed-order source, and greedy decoding's argmax
tie rule."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from redrafter import kernels
from redrafter.decode import DecodeConfig, autoregressive_generate, speculative_generate
from redrafter.model import ModelConfig, TinyTransformer

from oracles import MirrorProposer


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


needs_blas = pytest.mark.skipif("blas" not in kernels._LANES,
                                reason="the BLAS row probe failed: blas kernel lane withdrawn")

# The fixed-order numpy lane is bitwise the triple loop; the blas lane keeps
# only the row invariance.
FIXED_ORDER_LANES = ["numpy"]

# (m, k, n): a single output element, one output column, and summed lengths
# on both sides of numpy's pairwise-summation blocks (8 and 128 terms).
EDGE_SHAPES = [(1, 1, 1), (1, 9, 1), (5, 7, 1), (3, 1, 4), (4, 8, 3), (4, 9, 3), (3, 130, 5),
               (1, 130, 1)]


# multi-row shapes: 2-17 rows, summed lengths up to 130; with one output
# column, a product array not laid out with the summed index outermost would
# be summed pairwise
MULTI_ROW_SHAPES = [(2, 1, 1), (2, 3, 1), (9, 32, 7), (12, 69, 3), (17, 130, 2), (16, 9, 5),
                    (5, 40, 1), (12, 130, 1)]


def bits(x):
    return x.view(np.uint32)  # distinguishes -0.0 from +0.0, unlike ==


def sprinkle_signed_zeros(rng, x, frac=0.2):
    """Set a random fraction of ``x`` to -0.0 or +0.0 in place."""
    hit = rng.random(x.shape) < frac
    x[hit] = np.where(rng.random(x.shape) < 0.5, np.float32(-0.0), np.float32(0.0))[hit]
    return x


@pytest.mark.parametrize("lane", FIXED_ORDER_LANES)
def test_matmul_matches_triple_loop_bitwise(lane):
    """Random, edge and multi-row shapes, plain and with signed-zero
    operands, including rows whose every product is -0.0."""
    matmul = kernels._LANES[lane]
    rng = np.random.default_rng(0)
    shapes = [tuple(rng.integers(1, 9, size=3)) for _ in range(5)] + EDGE_SHAPES
    cases = [(shape, False) for shape in shapes]
    cases += [(shape, True) for shape in EDGE_SHAPES + MULTI_ROW_SHAPES]
    for (m, k, n), zeros in cases:
        a = rng.normal(size=(m, k)).astype(np.float32)
        b = rng.normal(size=(k, n)).astype(np.float32)
        if zeros:
            sprinkle_signed_zeros(rng, a)
            sprinkle_signed_zeros(rng, b)
            # a row of -0.0 against non-negative columns: all products -0.0
            a[rng.integers(m)] = -0.0
            b[:, :(n + 1) // 2] = np.abs(b[:, :(n + 1) // 2])
        got = matmul(a, b)
        assert got.dtype == np.float32
        assert np.array_equal(bits(got), bits(naive_matmul(a, b))), (m, k, n, zeros)
        # row invariance: a row's result does not depend on the rest of the batch
        for i in range(m):
            assert np.array_equal(bits(matmul(a[i:i + 1], b)), bits(got[i:i + 1])), (m, k, n, i)


@needs_blas
def test_blas_rows_equal_the_row_alone_bitwise():
    """Each row of a blas matmul has the bits of that row computed alone, for
    1-40 rows starting 0-19 rows into a block, K up to 1024, operands with
    signed zeros, a row of -0.0 among them, and rows with a stride."""
    matmul = kernels._LANES["blas"]
    rng = np.random.default_rng(6)
    for k, n in [(1, 3), (9, 1), (32, 96), (64, 32), (130, 7), (512, 32), (1024, 16)]:
        a = sprinkle_signed_zeros(rng, rng.normal(size=(59, k)).astype(np.float32))
        b = sprinkle_signed_zeros(rng, rng.normal(size=(k, n)).astype(np.float32))
        a[23] = -0.0
        b[:, :(n + 1) // 2] = np.abs(b[:, :(n + 1) // 2])
        alone = bits(np.concatenate([matmul(row[None].copy(), b) for row in a]))
        for m in range(1, 41):
            for offset in range(20):
                got = matmul(a[offset:offset + m], b)
                assert np.array_equal(bits(got), alone[offset:offset + m]), (m, offset, k, n)
        # rows that are strided views, as a multi-row attention output is
        assert np.array_equal(bits(matmul(np.asfortranarray(a), b)), alone), (k, n)


def test_row_probe_refuses_a_row_dependent_matmul():
    """The import-time probe passes the fixed-order lane and names the first
    shape at which a row changes with the rows beside it: at once for a
    result that depends on the row count, and only at K = 1024 and 40 rows
    for one that drifts there."""
    exact = kernels._LANES["numpy"]
    eps = np.float32(2.0 ** -20)
    assert kernels.row_dependence(exact) is None
    assert kernels.row_dependence(lambda a, b: exact(a, b) + a.shape[0] * eps) == (
        "a row of a 2-row matmul with K=8, N=1 depends on the other rows of the batch")
    drifts = lambda a, b: exact(a, b) + eps * (a.shape[1] >= 1024 and a.shape[0] > 16)
    assert "40-row matmul with K=1024" in kernels.row_dependence(drifts)


@pytest.mark.parametrize("name", ["numpy", pytest.param("blas", marks=needs_blas)])
def test_backend_variable_selects_the_lane(name):
    """``REDRAFTER_BACKEND`` picks the lane that a fresh process runs."""
    src = Path(kernels.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", "from redrafter import kernels; "
                           "print(kernels.BACKEND)"],
                          env={**os.environ, "REDRAFTER_BACKEND": name, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == [name]


@pytest.mark.parametrize("name", ["numba", "no-such-lane"])
def test_backend_variable_naming_an_absent_lane_fails_the_import(name):
    """A fresh process asked for a lane that does not exist fails at import,
    listing the lanes it has."""
    src = Path(kernels.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", "from redrafter import kernels"],
                          env={**os.environ, "REDRAFTER_BACKEND": name, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert (f"ImportError: REDRAFTER_BACKEND={name!r} not available "
            f"(choices: {sorted(kernels._LANES)})") in done.stderr


def test_matmul_close_to_float64_reference():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(16, 32)).astype(np.float32)
    b = rng.normal(size=(32, 12)).astype(np.float32)
    ref = a.astype(np.float64) @ b.astype(np.float64)
    assert np.allclose(kernels.matmul(a, b), ref, atol=1e-4)


def reference_softmax(scores):
    """Row softmax of float32 ``scores``: a per-row ``np.exp`` of the
    max-shifted row, then a float32 left-to-right sum from +0.0 as the
    denominator."""
    out = np.empty_like(scores)
    for i, row in enumerate(scores):
        e = np.exp(row - row.max())
        total = np.float32(0.0)
        for v in e:
            total = np.float32(total + v)
        out[i] = e / total
    return out


def lane_probs(q, keys, allowed, scale, rows=slice(None)):
    """One head's attention probabilities as ``kernels.attend`` computes them.  Key j
    takes row ``rows[j]`` of the identity as its value, so output column t
    sums exact zeros and the one product p * 1.0 of the key holding t; a
    column no key holds is +0.0."""
    vals = np.eye(keys.shape[1], dtype=np.float32)[rows]
    return kernels.attend(q, keys, vals, allowed, 1, scale)


def random_head(rng, n, n_keys, d):
    return (rng.normal(scale=3.0, size=(n, d)).astype(np.float32),
            rng.normal(size=(n_keys, d)).astype(np.float32), np.float32(1.0 / np.sqrt(d)))


@pytest.mark.parametrize("lane", FIXED_ORDER_LANES)
def test_row_softmax_rows_normalize(lane):
    """The reference softmax's rows sum to 1, and the attention
    probabilities are its bits."""
    matmul = kernels._LANES[lane]
    rng = np.random.default_rng(2)
    q, keys, scale = random_head(rng, 7, 11, 11)
    probs = lane_probs(q, keys, np.ones((7, 11), bool), scale)
    ref = reference_softmax(matmul(q, np.ascontiguousarray(keys.T)) * scale)
    assert np.array_equal(bits(probs), bits(ref))
    assert np.all(ref >= 0)
    assert np.allclose(ref.sum(axis=1), 1.0, atol=1e-5)


def test_masked_entries_are_exact_zero_and_do_not_perturb(lane):
    """Masked-out keys get probability exactly +0.0, and attending over a
    masked key set gives the same bits as attending over the kept keys
    alone, for probabilities and for random values, whichever lane the
    process runs (attention is the same on both).

    Rows longer than 8 and 128 keys, with masked keys between live ones, are
    where a pairwise (blocked) sum would regroup the survivors.
    """
    attend = kernels.attend
    rng = np.random.default_rng(3)
    for cols, masked_cols in [(6, [4]), (20, [1, 2, 9, 15]), (150, list(range(0, 150, 3)))]:
        q, keys, scale = random_head(rng, 5, cols, cols)
        allowed = np.ones((5, cols), bool)
        allowed[:, masked_cols] = False
        keep = [j for j in range(cols) if j not in masked_cols]
        alone = np.ones((5, len(keep)), bool)
        masked = lane_probs(q, keys, allowed, scale)
        assert not bits(masked[:, masked_cols]).any(), cols  # +0.0, not -0.0
        direct = lane_probs(q, keys[keep], alone, scale, keep)
        assert np.array_equal(bits(masked), bits(direct)), cols
        vals = rng.normal(size=(cols, cols)).astype(np.float32)
        assert np.array_equal(bits(attend(q, keys, vals, allowed, 1, scale)),
                              bits(attend(q, keys[keep], vals[keep], alone, 1, scale))), cols


def test_argmax_breaks_ties_toward_low_index():
    """Greedy decoding takes numpy's argmax, whose ties go to the lowest
    index: with ``w_out`` zeroed every logit is 0.0, so each step emits
    token 0, and the speculative stream, verified by the same rule, equals it."""
    config = ModelConfig(vocab_size=16, d_model=16, n_layers=1, n_heads=2, d_ff=16,
                         max_seq_len=32)
    base = TinyTransformer.random(config, seed=0)
    base.weights["w_out"][:] = 0.0
    cfg = DecodeConfig(beam_width=1, beam_length=3, max_new_tokens=9)
    greedy = autoregressive_generate(base, [5, 3, 9], cfg)
    assert greedy == [0] * 9
    spec, _ = speculative_generate(base, MirrorProposer(greedy), [5, 3, 9], cfg)
    assert spec == greedy


def tree_allowed(rng, n_rows, n_ctx, n_unqueried):
    """A packed tree's mask: every context key, then each node's ancestors
    and itself.  The last ``n_unqueried`` nodes are leaves with no query row,
    so their key columns are masked in every row."""
    n = n_rows + n_unqueried
    parents = [int(rng.integers(0, min(i, n_rows))) for i in range(1, n)]
    ancestors = np.eye(n, dtype=bool)
    for i, parent in enumerate(parents, start=1):
        ancestors[i] |= ancestors[parent]
    return np.concatenate([np.ones((n_rows, n_ctx), bool), ancestors[:n_rows]], axis=1)


# (query rows, heads, head width, keys or tree (context keys, unqueried leaves))
ATTEND_CASES = [(4, 2, 3, 7),
                (1, 1, 3, 20),  # one row, one head: _ordered_sum's slab-of-1 fallback
                (1, 1, 5, 1),
                (5, 3, 1, 9),  # dh = 1
                # packed verify sizes: up to 150 keys, unqueried leaves are fully masked columns
                (12, 4, 8, (20, 0)), (13, 4, 8, (40, 3)), (14, 2, 4, (120, 2)),
                (17, 4, 8, (133, 0)), (15, 1, 8, (100, 6)),
                # multi-row verify sizes with short contexts and masked columns
                (2, 2, 4, (1, 1)), (9, 4, 8, (22, 2)), (5, 4, 8, (0, 4))]


@pytest.mark.parametrize("lane", FIXED_ORDER_LANES)
def test_attend_equals_composed_primitives(lane):
    """The fused attention kernel must reproduce the lane's matmul, an
    additive -1e9 bias on the disallowed keys, the reference softmax and the
    lane's matmul bitwise: they share one accumulation order, and a
    disallowed key weighs exactly 0.0 either way.  Each query row attended
    alone gives the same bits as in the batch.  Queries and values carry
    signed zeros, and each case has a value column of -0.0."""
    matmul, attend = kernels._LANES[lane], kernels.attend
    rng = np.random.default_rng(5)
    for n, n_heads, dh, keys_or_tree in ATTEND_CASES:
        if isinstance(keys_or_tree, tuple):
            allowed = tree_allowed(rng, n, *keys_or_tree)
        else:
            allowed = rng.random((n, keys_or_tree)) > 0.3
            allowed[:, 0] = True  # every query needs at least one key
        m = allowed.shape[1]
        d = n_heads * dh
        q = rng.normal(size=(n, d)).astype(np.float32)
        keys = rng.normal(size=(m, d)).astype(np.float32)
        vals = rng.normal(size=(m, d)).astype(np.float32)
        sprinkle_signed_zeros(rng, q)
        sprinkle_signed_zeros(rng, vals)
        vals[:, rng.integers(d)] = -0.0
        bias = np.where(allowed, np.float32(0.0), kernels._NEG_BIAS)
        scale = np.float32(1.0 / np.sqrt(dh))
        case = (n, n_heads, dh, keys_or_tree)

        got = attend(q, keys, vals, allowed, n_heads, scale)
        for head in range(n_heads):
            sl = slice(head * dh, (head + 1) * dh)
            scores = matmul(q[:, sl], np.ascontiguousarray(keys[:, sl].T)) * scale + bias
            probs = reference_softmax(scores)
            expect = matmul(probs, vals[:, sl])
            assert np.array_equal(bits(got[:, sl]), bits(expect)), (case, head)
        for i in range(n):
            alone = attend(q[i:i + 1], keys, vals, allowed[i:i + 1], n_heads, scale)
            assert np.array_equal(bits(alone), bits(got[i:i + 1])), (case, i)


def test_block_mask_equals_the_full_mask_with_all_true_committed_part(lane):
    """``attend``'s mask covers the last keys, and every query sees the keys
    before them.  For random query counts, key counts and tree masks, the
    block mask gives the bits of the full mask whose committed-key part is
    all True, and one all-seeing row with None those of an all-True mask.
    Queries carry signed zeros and one query row is all -0.0, so some scores
    are sums of -0.0 products."""
    rng = np.random.default_rng(13)
    # (query rows, heads, head width, committed keys, unqueried leaves): one
    # key in all, _ordered_sum's slab-of-1 fallback, then random shapes
    cases = [(1, 1, 1, 0, 0), (1, 1, 3, 20, 0), (3, 2, 1, 0, 2)]
    cases += [(int(rng.integers(1, 14)), int(rng.choice([1, 2, 4])), int(rng.choice([1, 3, 8])),
               int(rng.integers(0, 140)), int(rng.integers(0, 4))) for _ in range(30)]
    for case in cases:
        n, n_heads, dh, n_ctx, n_unqueried = case
        allowed = tree_allowed(rng, n, n_ctx, n_unqueried)
        m, d = allowed.shape[1], n_heads * dh
        q = sprinkle_signed_zeros(rng, rng.normal(size=(n, d)).astype(np.float32))
        q[rng.integers(n)] = -0.0
        keys = sprinkle_signed_zeros(rng, rng.normal(size=(m, d)).astype(np.float32))
        vals = sprinkle_signed_zeros(rng, rng.normal(size=(m, d)).astype(np.float32))
        scale = np.float32(1.0 / np.sqrt(dh))
        full = kernels.attend(q, keys, vals, allowed, n_heads, scale)
        block = kernels.attend(q, keys, vals, allowed[:, n_ctx:], n_heads, scale)
        assert np.array_equal(bits(block), bits(full)), case
        for i in range(n):
            every = kernels.attend(q[i:i + 1], keys, vals, np.ones((1, m), bool), n_heads, scale)
            none = kernels.attend(q[i:i + 1], keys, vals, None, n_heads, scale)
            assert np.array_equal(bits(none), bits(every)), (case, i)


def test_backend_selection_is_consistent():
    """The public matmul is the selected lane itself (under a tracer, its
    ``__wrapped__``)."""
    assert getattr(kernels.matmul, "__wrapped__", kernels.matmul) is kernels._LANES[kernels.BACKEND]


def numpy_lane_violations(source):
    """Operations the fixed-order numpy lane must not use, found in its source.

    numpy and BLAS choose their own summation order for ``.sum``, ``dot``,
    ``matmul`` and ``@``, and ``np.einsum`` does too once an index is summed,
    so products may be written only by a contraction-free ``einsum`` (every
    input index appears in the output) and summed by ``_ordered_sum``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("sum", "dot", "matmul"):
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "einsum"):
            spec = node.args[0] if node.args else None
            if not (isinstance(spec, ast.Constant) and isinstance(spec.value, str)
                    and "->" in spec.value):
                found.append(f"line {node.lineno}: einsum without explicit literal subscripts")
                continue
            inputs, output = spec.value.replace(" ", "").split("->")
            contracted = set(inputs.replace(",", "")) - set(output)
            if contracted:
                found.append(f"line {node.lineno}: einsum {spec.value!r} sums over "
                             f"{''.join(sorted(contracted))}")
    return found


def test_numpy_lane_source_uses_only_ordered_sums():
    source = inspect.getsource(kernels)
    start = source.index("# fixed-order sums")
    lane = source[start:source.index("# BLAS lane", start)]
    assert "_ordered_sum" in lane and "np.einsum(" in lane
    assert numpy_lane_violations(lane) == []
    # the lint itself catches each banned form
    for bad in ("x.sum(axis=0)", "np.sum(x)", "np.dot(a, b)", "np.matmul(a, b)", "a @ b",
                'np.einsum("ik,kj->ij", a, b)', 'np.einsum("ik,kj", a, b)'):
        assert numpy_lane_violations(bad), bad
