"""Recurrent draft head: embedding-driven RNN state, MLP head with residual
connections over the concatenated state, and analytic gradients for training.

The head is shared across prediction positions, so the parameter count does
not depend on how many future tokens it is trained or asked to predict.
The drafter runs in float32, the precision its weight file stores: it only
proposes tokens (the base model verifies them), so its rounding never
reaches an emitted stream.  Every operation runs in the parameters' dtype,
so gradient checks run the same code on float64 parameters.

The drafter's one forward is the batched pair ``head_logp_batch`` and
``step_batch``, each row one recurrent state: beam search drafts with it.
Drafting is bound by its numpy call count, not its arithmetic, so its
products are ``np.dot(x, W.T)``: the same BLAS call as ``x @ W.T`` through
the same transposed view, with less dispatch per call.  They must stay
bitwise the ``@`` products, which holds with every operand in one dtype.
``batch_loss`` keeps its own forward, since its backward pass reads every
intermediate.  Training runs in place: each elementwise step writes into an
array it already owns with the plain formula's operands in their order, so
the loss and gradients equal the plain formulas bit for bit, and the
products nothing reads are skipped.

silu's ``exp(-a)`` overflows to inf in float32 for a pre-activation below
about -88.7, where ``a / inf`` is still the right -0.0.  So the callers that
run many silus, ``beam.beam_search`` once per search and ``batch_loss`` once
per batch, ignore that overflow in one ``np.errstate`` each, rather than one
per silu.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError, check_tokens


def _silu_den(a):
    """silu's denominator ``1 + exp(-a)``, as a new array."""
    den = np.negative(a)
    np.exp(den, out=den)
    den += 1.0
    return den


_ONE = np.float32(1.0)  # a NumPy scalar operand skips the Python float's conversion


def _silu_in_place(a):
    """silu, ``a / (1 + exp(-a))``, written into ``a``: ``_silu_den``'s ufuncs
    run here directly, one call fewer per silu on the drafting path."""
    den = np.negative(a)
    np.exp(den, out=den)
    den += _ONE
    a /= den
    return a


def _dsilu(x, den):
    """silu's derivative at ``x`` from silu's denominator ``1 + exp(-x)``,
    whose reciprocal is the sigmoid, without taking the exp again.  The
    sigmoid is written into ``den``, so the caller gives up ``den``."""
    sig = np.divide(1.0, den, out=den)
    d = np.subtract(1.0, sig)
    d *= x     # x * (1 - sig)
    d += 1.0
    d *= sig   # sig * (1 + x * (1 - sig))
    return d


@dataclass
class DrafterParams:
    """Trainable parameters, or their gradients (``zeros_like``).

    u, w, b drive the recurrence ``s' = silu(u @ s + w @ e + b)``; the head
    applies ``x <- x + silu(Wm @ x + bm)`` residual layers to the concatenated
    ``[s, h]`` vector followed by a projection to vocab logits.  s starts as a
    token embedding, so s, the embeddings and h are all ``d_s`` wide.
    ``flat`` is the 1-D buffer that every tensor views, in ``flat_arrays``
    order, for a set that ``flat_copy`` or ``zeros_like`` made; else None.
    Every tensor has one dtype, float32 or float64, and the arithmetic runs
    in it.
    """

    u: np.ndarray                 # (d_s, d_s)
    w: np.ndarray                 # (d_s, d_s)
    b: np.ndarray                 # (d_s,)
    mlp: list = field(default_factory=list)   # [(Wm (2 d_s, 2 d_s), bm (2 d_s,)), ...]
    out_proj: np.ndarray = None   # (vocab, 2 d_s)
    flat: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        d_s = self.u.shape[0]
        if self.u.shape != (d_s, d_s) or self.w.shape != (d_s, d_s) or self.b.shape != (d_s,):
            raise ShapeError(f"recurrence shapes must be ({d_s},{d_s}), ({d_s},{d_s}) and "
                             f"({d_s},): u {self.u.shape}, w {self.w.shape}, b {self.b.shape}")
        d_g = 2 * d_s
        if self.out_proj is None:
            raise ShapeError(f"out_proj is missing: it must be a (vocab, 2 * d_s = {d_g}) array")
        if self.out_proj.shape[1:] != (d_g,):
            raise ShapeError(f"out_proj {self.out_proj.shape} must have 2 * d_s = {d_g} columns")
        for i, (wm, bm) in enumerate(self.mlp):
            if wm.shape != (d_g, d_g) or bm.shape != (d_g,):
                raise ShapeError(f"mlp layer {i}: expected ({d_g},{d_g})/({d_g},), "
                                 f"got {wm.shape}/{bm.shape}")
        dtypes = {arr.dtype for _, arr in self.flat_arrays()}
        if len(dtypes) != 1 or self.dtype not in (np.float32, np.float64):
            found = ", ".join(f"{name} {arr.dtype}" for name, arr in self.flat_arrays())
            raise ShapeError(f"drafter tensors must share one dtype, float32 or float64: {found}")

    @property
    def d_s(self):
        return self.u.shape[0]

    @property
    def vocab_size(self):
        return self.out_proj.shape[0]

    @property
    def dtype(self):
        return self.u.dtype

    @classmethod
    def random(cls, rng, d_s, vocab_size):
        """Seeded random initialization of width ``d_s`` with 2 head layers,
        float64 normal draws rounded to float32."""
        def normal(shape):
            return rng.normal(0.0, 0.1, shape).astype(np.float32)

        d_g = 2 * d_s
        return cls(
            u=normal((d_s, d_s)),
            w=normal((d_s, d_s)),
            b=np.zeros(d_s, np.float32),
            mlp=[(normal((d_g, d_g)), np.zeros(d_g, np.float32)) for _ in range(2)],
            out_proj=normal((vocab_size, d_g)),
        )

    def embedding_table(self, embeddings):
        """A base's (vocab, d_model) embedding table in the drafter's dtype,
        or a ``ShapeError`` unless it is this drafter's (vocab, d_s)."""
        table = np.asarray(embeddings, dtype=self.dtype)
        if table.shape != (self.vocab_size, self.d_s):
            raise ShapeError(f"a drafter of vocab {self.vocab_size} and width {self.d_s} does "
                             f"not fit a base embedding table of shape {table.shape}")
        return table

    def flat_arrays(self):
        """(name, tensor) pairs in a fixed order (for optimizers and serialization)."""
        out = [("u", self.u), ("w", self.w), ("b", self.b)]
        for i, (wm, bm) in enumerate(self.mlp):
            out += [(f"mlp{i}_w", wm), (f"mlp{i}_b", bm)]
        return out + [("out_proj", self.out_proj)]

    def flat_copy(self):
        """A copy whose tensors view one new ``flat`` buffer."""
        return self._over(np.concatenate([arr.ravel() for _, arr in self.flat_arrays()]))

    def zeros_like(self):
        """Zeros of these shapes, viewing one new ``flat`` buffer (gradients)."""
        return self._over(np.zeros(sum(arr.size for _, arr in self.flat_arrays()), self.dtype))

    def _over(self, flat):
        """Tensors shaped like these, as views of ``flat`` in ``flat_arrays`` order."""
        views, at = [], 0
        for _, arr in self.flat_arrays():
            views.append(flat[at:at + arr.size].reshape(arr.shape))
            at += arr.size
        u, w, b, *mlp, out_proj = views
        return DrafterParams(u=u, w=w, b=b, mlp=list(zip(mlp[0::2], mlp[1::2])),
                             out_proj=out_proj, flat=flat)


# ---------------------------------------------------------------------------
# the forward (beam search runs these)
# ---------------------------------------------------------------------------

def step_batch(s, token_term, params):
    """Advance a batch of recurrent states by one token each.

    ``token_term`` holds each token's input term ``w @ e + b``, one row per
    state; beam search gathers these rows from a per-vocabulary table.
    """
    pre = np.dot(s, params.u.T)
    pre += token_term
    return _silu_in_place(pre)


def head_logp_batch(x, params):
    """Log-probabilities over the vocab for a batch of head inputs, each row
    the concatenated ``[s | h]``.  ``x`` itself is left unchanged."""
    for wm, bm in params.mlp:
        a = np.dot(x, wm.T)
        a += bm
        a = _silu_in_place(a)
        a += x  # silu(a) + x is bitwise x + silu(a)
        x = a
    z = np.dot(x, params.out_proj.T)
    # the ufunc reductions that ndarray.max and .sum call, minus their wrappers
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    z -= np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))
    return z


# ---------------------------------------------------------------------------
# teacher-forced loss and analytic gradients (reverse accumulation)
# ---------------------------------------------------------------------------

def batch_loss(params, embeddings, h, s0, teacher):
    """Summed teacher-forced loss over a batch, and its gradients.

    ``s0`` is the batch of initial recurrent states (embeddings of the last
    committed tokens).  Position k's head (evaluated at the state after k-1
    teacher-forced steps) is scored against teacher token k; that token then
    drives the next recurrence step.  Loss is the plain sum over batch and
    positions; callers divide for mean reductions.  The embedding table is
    frozen, so no gradient flows into ``s0``.  The gradients are a
    ``DrafterParams`` whose ``flat`` buffer holds them all.

    Each elementwise step writes into an array this function already owns,
    keeping the plain formula's operands and their order (``a / den + x``
    for ``x + a / den``, ``dsilu * dx`` for ``dx * dsilu``), so the loss and
    every gradient equal the plain formulas bit for bit.  Products nothing
    reads are skipped: at position 0 the state gradient and the first head
    layer's ``da @ wm`` (with no head layer, ``dz @ out_proj``), and at
    position 1 ``dp @ u``.
    """
    dtype = params.dtype
    emb = np.asarray(embeddings, dtype=dtype)
    teacher = check_tokens(teacher, params.vocab_size)
    if teacher.ndim != 2 or teacher.shape[1] < 1:
        raise ContractError("teacher batch must be (batch, T) with T >= 1")
    bsz, horizon = teacher.shape
    d_s = params.d_s
    h = np.broadcast_to(np.asarray(h, dtype=dtype), (bsz, d_s))
    n_mlp = len(params.mlp)
    rows = np.arange(bsz)

    # each silu keeps its denominator 1 + exp(-a) for the backward pass
    states = [np.asarray(s0, dtype=dtype)]          # s_0 .. s_{T-1}
    pre_acts = []                                   # recurrence pre-activations
    head_x = []                                     # per position: mlp layer inputs/pre-acts
    head_soft = []                                  # per position: softmax over logits
    loss = 0.0
    with np.errstate(over="ignore"):  # silu's exp(-a); see the module docstring
        for k in range(horizon):
            x = np.concatenate([states[-1], h], axis=1)
            xs, acts = [x], []
            for wm, bm in params.mlp:
                a = x @ wm.T
                a += bm
                den = _silu_den(a)
                x = a / den
                x += xs[-1]  # a / den + x is bitwise x + a / den
                acts.append((a, den))
                xs.append(x)
            z = x @ params.out_proj.T
            z -= np.maximum.reduce(z, axis=1, keepdims=True)
            z -= np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))  # z is log-softmax
            loss -= float(np.add.reduce(z[rows, teacher[:, k]]))  # positions sum in float64
            head_x.append((xs, acts))
            head_soft.append(np.exp(z, out=z))
            if k + 1 < horizon:
                e = emb[teacher[:, k]]
                pre = states[-1] @ params.u.T
                pre += e @ params.w.T
                pre += params.b
                den = _silu_den(pre)
                pre_acts.append((pre, den, e))
                states.append(pre / den)

    grads = params.zeros_like()
    ds = np.zeros((bsz, d_s), dtype)
    for k in range(horizon - 1, -1, -1):
        xs, acts = head_x[k]
        dz = head_soft[k]  # nothing reads the softmax again: it becomes dz in place
        dz[rows, teacher[:, k]] -= 1.0
        grads.out_proj += dz.T @ xs[-1]
        # below the head only ds reads dx, and at position 0 nothing reads ds
        if n_mlp or k:
            dx = dz @ params.out_proj
        for layer in range(n_mlp - 1, -1, -1):
            wm, _ = params.mlp[layer]
            da = _dsilu(*acts[layer])
            da *= dx
            gw, gb = grads.mlp[layer]
            gw += da.T @ xs[layer]
            gb += np.add.reduce(da, axis=0)
            if layer or k:
                dx += da @ wm
        if k:
            ds += dx[:, :d_s]
            pre, den, e = pre_acts[k - 1]
            dp = _dsilu(pre, den)
            dp *= ds
            grads.u += dp.T @ states[k - 1]
            grads.w += dp.T @ e
            grads.b += np.add.reduce(dp, axis=0)
            if k > 1:
                ds = dp @ params.u
    return float(loss), grads
