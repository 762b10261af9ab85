"""Draft head: the batched head and recurrence, the teacher-forced loss and
its gradients."""

import numpy as np
import pytest

from redrafter import drafter
from redrafter.beam import beam_search
from redrafter.drafter import DrafterParams
from redrafter.errors import ContractError, ShapeError, VocabError


def make_params(seed=0, d_model=6, vocab=9):
    return DrafterParams.random(np.random.default_rng(seed), d_model, vocab)


def make_embeddings(seed, vocab, d_model):
    return np.random.default_rng(seed).normal(size=(vocab, d_model))


def cast(p, dtype):
    """``p`` with every tensor cast to ``dtype``."""
    t = {name: arr.astype(dtype) for name, arr in p.flat_arrays()}
    return DrafterParams(u=t["u"], w=t["w"], b=t["b"], out_proj=t["out_proj"],
                         mlp=[(t[f"mlp{i}_w"], t[f"mlp{i}_b"]) for i in range(len(p.mlp))])


def silu(x):
    return x / (1.0 + np.exp(-x))


def test_random_params_shapes_and_invariants():
    p = make_params()
    assert p.d_s == 6 and p.vocab_size == 9
    assert len(p.mlp) == 2
    names = [name for name, _ in p.flat_arrays()]
    assert names == ["u", "w", "b", "mlp0_w", "mlp0_b", "mlp1_w", "mlp1_b", "out_proj"]


def test_head_width_must_exceed_state_width():
    p = make_params()
    with pytest.raises(ShapeError):
        DrafterParams(u=p.u, w=p.w, b=p.b, mlp=[], out_proj=np.zeros((9, 6)))


def test_state_embedding_and_hidden_widths_are_one_width():
    """The state starts as a token embedding, so w is square, and the head
    reads ``[s | h]`` with h of the state's width: out_proj is 2 * d_s wide,
    and so is every head layer.  Every tensor has one dtype, float32 or
    float64: a float64 ``w`` beside float32 tensors, or integer tensors
    throughout, is a ``ShapeError`` too."""
    p = make_params()
    narrow_layer = [(np.zeros((12, 12)), np.zeros(10))]
    for w, mlp, out_proj in ((np.zeros((6, 8)), [], p.out_proj), (p.w, [], np.zeros((9, 14))),
                             (p.w, narrow_layer, p.out_proj)):
        with pytest.raises(ShapeError):
            DrafterParams(u=p.u, w=w, b=p.b, mlp=mlp, out_proj=out_proj)
    with pytest.raises(ShapeError, match="out_proj is missing"):
        DrafterParams(u=p.u, w=p.w, b=p.b)
    with pytest.raises(ShapeError, match="one dtype, float32 or float64: u float32, w float64"):
        DrafterParams(u=p.u, w=p.w.astype(np.float64), b=p.b, mlp=p.mlp, out_proj=p.out_proj)
    with pytest.raises(ShapeError, match="one dtype, float32 or float64: u int64"):
        cast(p, np.int64)
    assert cast(p, np.float64).dtype == np.float64 and p.dtype == np.float32


def test_random_params_are_the_float32_rounding_of_float64_draws(float64_drafter):
    """The same normal draws in the same rng order as a float64 drafter,
    each rounded to float32, with no ``flat`` buffer."""
    for seed, d_s, vocab in ((0, 6, 9), (3, 32, 16)):
        rng, rng64 = np.random.default_rng(seed), np.random.default_rng(seed)
        p = DrafterParams.random(rng, d_s, vocab)
        want = float64_drafter(rng64, d_s, vocab)
        assert p.flat is None and p.dtype == np.float32
        for (name, got), (_, draw) in zip(p.flat_arrays(), want.flat_arrays(), strict=True):
            assert got.dtype == np.float32 and np.array_equal(got, draw.astype(np.float32)), name
        assert rng.normal() == rng64.normal()  # as many draws


def test_step_applies_silu_recurrence():
    p = make_params()
    emb = make_embeddings(2, p.vocab_size, p.d_s)
    nxt = drafter.step_batch(emb[[0]], emb[[4]] @ p.w.T + p.b, p)
    assert nxt.shape == (1, p.d_s)
    assert np.allclose(nxt[0], silu(p.u @ emb[0] + p.w @ emb[4] + p.b))


def test_head_logp_is_normalized_log_distribution():
    p = make_params()
    emb = make_embeddings(4, p.vocab_size, p.d_s)
    x = np.concatenate([emb[[2, 5]], np.ones((2, p.d_s))], axis=1)
    logp = drafter.head_logp_batch(x, p)
    assert logp.shape == (2, p.vocab_size)
    assert np.allclose(np.exp(logp).sum(axis=1), 1.0)


def test_batched_head_and_step_are_bitwise_the_plain_expressions():
    """The in-place activations keep every operation and its order, and each
    ``np.dot`` product is the ``@`` product: results equal the allocating
    expressions bit for bit, and inputs are unchanged.  Both precisions run,
    every operand in the parameters' dtype: float64 at 1, 4 and 9 rows, and
    the float32 that decoding runs at its shapes, 1 row and the beam-width
    rows of the benchmark workloads (4 and 8), width 32, vocab 32 and 64."""
    def head_reference(x, p):
        for wm, bm in p.mlp:
            x = x + silu(x @ wm.T + bm)
        z = x @ p.out_proj.T
        z = z - z.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    rng = np.random.default_rng(15)
    cases = [(np.float64, rows, 8, 11) for rows in (1, 4, 9)]
    cases += [(np.float32, rows, 32, vocab) for vocab in (32, 64) for rows in (1, 4, 8)]
    for dtype, rows, d_s, vocab in cases:
        p = cast(make_params(16 + rows, d_model=d_s, vocab=vocab), dtype)
        p.b = rng.normal(size=p.d_s).astype(dtype)
        p.mlp = [(wm, rng.normal(size=bm.shape).astype(dtype)) for wm, bm in p.mlp]
        x = rng.normal(scale=3.0, size=(rows, 2 * p.d_s)).astype(dtype)
        s, term = (rng.normal(size=(rows, p.d_s)).astype(dtype) for _ in range(2))
        before = x.copy(), s.copy(), term.copy()
        got = drafter.head_logp_batch(x, p)
        assert got.dtype == dtype
        assert np.array_equal(got.view(np.uint8), head_reference(x, p).view(np.uint8))
        got = drafter.step_batch(s, term, p)
        assert got.dtype == dtype
        assert np.array_equal(got.view(np.uint8), silu(s @ p.u.T + term).view(np.uint8))
        for a, b in zip((x, s, term), before):
            assert np.array_equal(a, b)


def test_dsilu_matches_numeric_derivative():
    x = np.linspace(-4, 4, 41)
    eps = 1e-6
    numeric = (silu(x + eps) - silu(x - eps)) / (2 * eps)
    assert np.allclose(drafter._dsilu(x, 1.0 + np.exp(-x)), numeric, atol=1e-8)


def test_batch_loss_matches_stepped_forward_sum():
    p = make_params(8)
    emb = make_embeddings(9, p.vocab_size, p.d_s)
    rng = np.random.default_rng(10)
    h = rng.normal(size=p.d_s)
    teacher = rng.integers(0, p.vocab_size, size=5)
    s0 = emb[[int(rng.integers(p.vocab_size))]]

    loss, grads = drafter.batch_loss(p, emb, h[None, :], s0, teacher[None, :])
    # recompute by stepping the forward beam search drafts with
    token_term = emb @ p.w.T + p.b
    manual = 0.0
    s = s0
    for t in teacher:
        manual -= drafter.head_logp_batch(np.concatenate([s, h[None, :]], axis=1), p)[0, t]
        s = drafter.step_batch(s, token_term[[t]], p)
    assert np.isclose(loss, manual, atol=1e-10)
    assert grads is not None


def test_batch_loss_rejects_empty_teacher():
    p = make_params()
    emb = make_embeddings(0, p.vocab_size, p.d_s)
    with pytest.raises(ContractError):
        drafter.batch_loss(p, emb, np.zeros((1, p.d_s)), np.zeros((1, p.d_s)),
                           np.zeros((1, 0), dtype=np.int64))


def test_batch_loss_rejects_a_teacher_outside_the_vocab():
    p = make_params()
    emb = make_embeddings(0, p.vocab_size, p.d_s)
    for bad in (p.vocab_size, -1):
        with pytest.raises(VocabError):
            drafter.batch_loss(p, emb, np.zeros((1, p.d_s)), np.zeros((1, p.d_s)),
                               np.array([[1, bad]]))


def test_batch_loss_equals_sum_of_sequences():
    p = make_params(11)
    emb = make_embeddings(12, p.vocab_size, p.d_s)
    rng = np.random.default_rng(13)
    bsz, horizon = 4, 3
    h = rng.normal(size=(bsz, p.d_s))
    s0 = rng.normal(size=(bsz, p.d_s))
    teacher = rng.integers(0, p.vocab_size, size=(bsz, horizon))

    total, grads = drafter.batch_loss(p, emb, h, s0, teacher)
    singles = 0.0
    for i in range(bsz):
        li, _ = drafter.batch_loss(p, emb, h[i:i + 1], s0[i:i + 1], teacher[i:i + 1])
        singles += li
    assert np.isclose(total, singles, atol=1e-9)


def test_gradient_matches_central_finite_differences(float64_drafter):
    """Every coordinate, epsilon 1e-3, relative error under 1e-4, on
    float64 parameters."""
    rng = np.random.default_rng(14)
    for _ in range(3):
        p = float64_drafter(rng, 4, 6)
        emb = rng.normal(size=(6, 4))
        h = rng.normal(size=4)
        teacher = rng.integers(0, 6, size=5)
        s0 = emb[[int(rng.integers(6))]]
        args = (emb, h[None, :], s0, teacher[None, :])
        _, grads = drafter.batch_loss(p, *args)

        eps = 1e-3
        worst = 0.0
        grad_by_name = dict(grads.flat_arrays())
        for name, arr in p.flat_arrays():
            g = grad_by_name[name]
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + eps
                lp, _ = drafter.batch_loss(p, *args)
                arr[idx] = orig - eps
                lm, _ = drafter.batch_loss(p, *args)
                arr[idx] = orig
                fd = (lp - lm) / (2 * eps)
                # mixed tolerance: absolute below 1e-4, relative above
                rel = abs(fd - g[idx]) / max(1e-4, abs(fd), abs(g[idx]))
                worst = max(worst, rel)
        assert worst < 1e-4, f"worst relative error {worst:.3e}"


def test_float32_batch_loss_is_the_float64_loss_to_float32_precision():
    """The float32 loss and gradients against the float64 run of the same
    parameters and inputs, upcast.  The bounds are multiples of float32's
    epsilon: the loss within 32 eps of the float64 loss, relative, and each
    gradient within 32 eps of its tensor's largest float64 entry."""
    eps = float(np.finfo(np.float32).eps)
    d_s, vocab, bsz, horizon = 16, 24, 8, 5
    for seed in range(3):
        rng = np.random.default_rng(40 + seed)
        p = DrafterParams.random(rng, d_s, vocab)
        p.b[:] = rng.normal(0.0, 0.1, d_s)  # random init leaves it zero
        emb = rng.normal(size=(vocab, d_s)).astype(np.float32)
        h = rng.normal(size=(bsz, d_s)).astype(np.float32)
        s0 = emb[rng.integers(0, vocab, size=bsz)]
        teacher = rng.integers(0, vocab, size=(bsz, horizon))
        loss, grads = drafter.batch_loss(p, emb, h, s0, teacher)
        loss64, grads64 = drafter.batch_loss(cast(p, np.float64), emb, h, s0, teacher)
        assert grads.flat.dtype == np.float32 and grads64.flat.dtype == np.float64
        assert loss != loss64 and abs(loss - loss64) <= 32 * eps * abs(loss64), seed
        for (name, got), (_, want) in zip(grads.flat_arrays(), grads64.flat_arrays(),
                                          strict=True):
            assert np.abs(got - want).max() <= 32 * eps * np.abs(want).max(), (seed, name)


def test_params_copy_is_deep():
    p = make_params()
    q = p.flat_copy()
    for (_, a), (_, b) in zip(p.flat_arrays(), q.flat_arrays(), strict=True):
        assert np.array_equal(a, b) and np.shares_memory(b, q.flat)
    assert p.flat is None and q.flat.size == sum(a.size for _, a in p.flat_arrays())
    q.u[0, 0] += 1.0
    q.mlp[0][0][0, 0] += 1.0
    assert p.u[0, 0] != q.u[0, 0]
    assert p.mlp[0][0][0, 0] != q.mlp[0][0][0, 0]


def test_zeros_like_views_one_zeroed_buffer():
    p = make_params()
    g = p.zeros_like()
    for (name, a), (g_name, b) in zip(p.flat_arrays(), g.flat_arrays(), strict=True):
        assert name == g_name and b.shape == a.shape and np.shares_memory(b, g.flat)
    assert g.flat.size == sum(a.size for _, a in p.flat_arrays()) and not g.flat.any()


def reference_batch_loss(p, emb, h, s0, teacher):
    """``batch_loss`` as plain formulas: every silu and dsilu takes its own
    exp, and each gradient tensor is its own array.  Returns the loss and
    the (name, gradient) pairs in ``flat_arrays`` order."""
    def dsilu(x):
        sig = 1.0 / (1.0 + np.exp(-x))
        return sig * (1.0 + x * (1.0 - sig))

    bsz, horizon = teacher.shape
    rows = np.arange(bsz)
    states, pre_acts, head_x, head_soft = [s0], [], [], []
    loss = 0.0
    for k in range(horizon):
        x = np.concatenate([states[-1], np.broadcast_to(h, (bsz, p.d_s))], axis=1)
        xs, acts = [x], []
        for wm, bm in p.mlp:
            a = x @ wm.T + bm
            x = x + silu(a)
            acts.append(a)
            xs.append(x)
        z = x @ p.out_proj.T
        z = z - z.max(axis=1, keepdims=True)
        logz = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        loss += -logz[rows, teacher[:, k]].sum()
        head_x.append((xs, acts))
        head_soft.append(np.exp(logz))
        if k + 1 < horizon:
            e = emb[teacher[:, k]]
            pre = states[-1] @ p.u.T + e @ p.w.T + p.b
            pre_acts.append((pre, e))
            states.append(silu(pre))
    g = {name: np.zeros_like(arr) for name, arr in p.flat_arrays()}
    ds = np.zeros((bsz, p.d_s))
    for k in range(horizon - 1, -1, -1):
        xs, acts = head_x[k]
        dz = head_soft[k].copy()
        dz[rows, teacher[:, k]] -= 1.0
        g["out_proj"] += dz.T @ xs[-1]
        dx = dz @ p.out_proj
        for layer in range(len(p.mlp) - 1, -1, -1):
            da = dx * dsilu(acts[layer])
            g[f"mlp{layer}_w"] += da.T @ xs[layer]
            g[f"mlp{layer}_b"] += da.sum(axis=0)
            dx = dx + da @ p.mlp[layer][0]
        ds += dx[:, :p.d_s]
        if k > 0:
            pre, e = pre_acts[k - 1]
            dp = ds * dsilu(pre)
            g["u"] += dp.T @ states[k - 1]
            g["w"] += dp.T @ e
            g["b"] += dp.sum(axis=0)
            ds = dp @ p.u
    return float(loss), [(name, g[name]) for name, _ in p.flat_arrays()]


def bits64(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("horizon", [1, 4])
def test_batch_loss_is_bitwise_the_plain_formula_reference(horizon):
    """Nonzero biases, so a reordered bias add would show, at every head
    depth from 0 to 3 and batches of 1 and 5; with no head layer the state
    gradient is ``dz @ out_proj``'s state columns."""
    d_s, vocab = 8, 11
    emb = make_embeddings(16, vocab, d_s)
    for n_mlp in range(4):
        for bsz in (1, 5):
            rng = np.random.default_rng(17 + 8 * n_mlp + bsz)
            p = DrafterParams(
                u=rng.normal(0.0, 0.3, (d_s, d_s)), w=rng.normal(0.0, 0.3, (d_s, d_s)),
                b=rng.normal(size=d_s),
                mlp=[(rng.normal(0.0, 0.3, (2 * d_s, 2 * d_s)), rng.normal(size=2 * d_s))
                     for _ in range(n_mlp)],
                out_proj=rng.normal(0.0, 0.3, (vocab, 2 * d_s)))
            h = rng.normal(size=(bsz, d_s))
            s0 = emb[rng.integers(0, vocab, size=bsz)]
            teacher = rng.integers(0, vocab, size=(bsz, horizon))
            loss, grads = drafter.batch_loss(p, emb, h, s0, teacher)
            want_loss, want_grads = reference_batch_loss(p, emb, h, s0, teacher)
            case = f"n_mlp {n_mlp}, batch {bsz}"
            assert bits64(loss) == bits64(want_loss), case
            for (name, got), (_, want) in zip(grads.flat_arrays(), want_grads, strict=True):
                assert np.array_equal(bits64(got), bits64(want)), f"{name}, {case}"
            # the recurrence gets a gradient whenever a later position reads its state
            assert (horizon > 1) == bool(grads.u.any()) == bool(grads.b.any()), case


def test_an_overflowing_silu_warns_nowhere_and_keeps_its_bits():
    """A first head-layer bias of -200 puts every pre-activation of that
    layer below about -88.7, where float32's ``exp(-a)`` overflows to inf
    and silu's ``a / inf`` is the right -0.0.  Beam search and the loss
    ignore that overflow themselves, so they run under the suite's
    warnings-as-errors, with the bits of the same calls made inside a
    caller's ``np.errstate(over="ignore")``."""
    params = make_params(3)
    params.mlp[0][1][:] = -200.0
    emb = make_embeddings(4, params.vocab_size, params.d_s).astype(np.float32)
    rng = np.random.default_rng(5)
    h = rng.normal(size=params.d_s).astype(np.float32)
    teacher = rng.integers(0, params.vocab_size, size=(4, 3))
    a = np.concatenate([emb[teacher[:, 0]], np.tile(h, (4, 1))], axis=1) @ params.mlp[0][0].T
    a += params.mlp[0][1]
    with np.errstate(over="ignore"):
        assert np.isinf(drafter._silu_den(a)).all()

    def run():
        lattice = beam_search(params, emb, h, int(teacher[0, 0]), 3, 4,
                              emb @ params.w.T + params.b)
        loss, grads = drafter.batch_loss(params, emb, h, emb[teacher[:, 0]], teacher)
        return [lattice.tokens, lattice.parents, lattice.logp, np.float64(loss), grads.flat]

    got = run()
    with np.errstate(over="ignore"):
        want = run()
    assert np.isfinite(got[3])
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
