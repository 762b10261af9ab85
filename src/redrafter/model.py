"""Base models being accelerated: a tiny causal transformer that supports
tree-masked verification forwards against a KV cache, and a synthetic Markov
table model for fast, learnable acceptance experiments.

Both expose the same surface: per-position next-token logits plus the
last-layer hidden state that feeds the draft head.  Verification forwards
write K/V only to the cache's scratch rows past the committed context;
accepted tokens are committed explicitly, so rejected drafts leave no trace.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (CapacityError, ConfigError, ContractError, ShapeError, check_integers,
                     check_tokens, int64_array)
from .beam import ROOT_PARENT


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    max_seq_len: int

    def __post_init__(self):
        check_integers(ConfigError, **vars(self))
        # sinusoidal positions pair a sine and a cosine column, so d_model is
        # even, and at least one pair
        if (self.n_heads < 1 or self.d_model < 2 or self.d_model % self.n_heads
                or self.d_model % 2):
            raise ConfigError(f"need an even d_model split by n_heads >= 1, got d_model "
                              f"{self.d_model} and n_heads {self.n_heads}")
        if self.vocab_size < 2 or self.max_seq_len < 1:
            raise ConfigError("need vocab_size >= 2 and max_seq_len >= 1")
        # a model without attention, as the Markov table, has zero layers
        if self.n_layers < 0 or self.d_ff < 0:
            raise ConfigError(f"need n_layers >= 0 and d_ff >= 0, got {self.n_layers} "
                              f"and {self.d_ff}")


@dataclass
class BaseModelOutput:
    logits: np.ndarray  # (positions, vocab)
    hidden: np.ndarray  # (positions, d_model)


@dataclass
class KvCache:
    """Committed context: the token ids plus one K/V array, whose rows past
    ``committed_len`` are scratch.  ``kv[layer, 0]`` is a layer's K and
    ``kv[layer, 1]`` its V; it has as many layers as the model's config says,
    so a model without attention has zero."""

    kv: np.ndarray  # (n_layers, 2, >= max_seq_len, d_model) float32
    tokens: list = field(default_factory=list)

    @property
    def committed_len(self):
        return len(self.tokens)


class BaseModel(ABC):
    """Next-token logits + last-layer hidden state, with explicit cache commits.

    The three forwards and the cache are defined here, once, with every check
    on tokens, starts, paths and capacity; a tree's mask is the one its
    ``DraftTree`` constructor derived.  A model supplies only its
    ``config``, its ``token_embeddings`` and its rows, through
    ``_context_rows`` and ``_tree_rows``, which write each new row's K/V in
    place, row i of a forward at ``committed_len + i``.
    """

    config: ModelConfig
    token_embeddings: np.ndarray  # (vocab, d_model) table the draft head conditions on (frozen)

    def new_cache(self):
        c = self.config
        return KvCache(np.zeros((c.n_layers, 2, c.max_seq_len, c.d_model), np.float32))

    @abstractmethod
    def _context_rows(self, tokens, cache):
        """Rows of checked ``tokens`` following the committed context."""

    @abstractmethod
    def _tree_rows(self, tree, start, cache):
        """Rows of the tree's nodes ``start`` on; the K/V of the nodes before
        them already sit in the cache's tail."""

    def forward_context(self, tokens, cache):
        """Append tokens to the committed context; logits/hidden per new position."""
        tokens = check_tokens(tokens, self.config.vocab_size, ndim=1)
        if not tokens.size:
            raise ContractError("a context forward needs at least one token")
        self._check_capacity(cache, tokens.shape[0])
        out = self._context_rows(tokens, cache)  # its K/V rows are already in place
        cache.tokens.extend(tokens.tolist())
        return out

    def forward_packed(self, tree, cache, start=0):
        """Tree-masked forward over a draft tree whose root takes the next
        position after the committed context; node i's K/V go to the scratch
        row ``committed_len + i``.

        Returns (BaseModelOutput, spec_state): the K/V of the tree's n nodes
        for ``commit_accepted``, as the one view of the cache's tail
        ``kv[:, :, committed_len:committed_len + n]``, valid until the next
        forward on the cache.  The first ``start`` nodes' K/V are the ones
        the last forward on this cache left in its tail (a forward of those
        nodes, or of a tree they lead); only nodes ``start`` on are computed
        and output, bit for bit as in the full forward, since a node depends
        only on the nodes of its root path, which precede it.  Some node is
        computed: ``start`` must be an integer in ``[0, n)``.  The mask needs
        no check: a frozen tree's is the boolean ``(n, n)`` array its
        constructor derived.
        """
        check_tokens(tree.tokens, self.config.vocab_size)
        check_integers(ContractError, start=start)
        n = tree.n
        if not 0 <= start < n:
            raise ContractError(f"start of {start} nodes outside a tree of {n}")
        self._check_capacity(cache, int(tree.depths.max()) + 1)
        self._reserve_tail(cache, n)
        n_ctx = cache.committed_len
        out = self._tree_rows(tree, start, cache)
        return out, cache.kv[:, :, n_ctx:n_ctx + n]

    def commit_accepted(self, cache, tree, spec_state, flat_path):
        """Append an accepted path of tree nodes, root first, to the context:
        ``spec_state``'s rows on the path move, in every layer's K and V at
        once, to the rows just past the committed context."""
        flat_path = self._check_path(tree, flat_path)
        self._check_capacity(cache, flat_path.shape[0])
        n_ctx, n = cache.committed_len, flat_path.shape[0]
        # a fancy-index gather copies before it writes: overlapping moves are safe
        cache.kv[:, :, n_ctx:n_ctx + n] = spec_state[:, :, flat_path]
        cache.tokens.extend(tree.tokens[flat_path].tolist())
        return cache

    def _check_path(self, tree, flat_path):
        flat_path = int64_array(flat_path, ContractError, "accepted path nodes")
        path, parents = flat_path.tolist(), tree.parents.tolist()
        if flat_path.ndim != 1 or (path and not 0 <= min(path) <= max(path) < len(parents)):
            raise ContractError(f"accepted path nodes must be 1-D, each in [0, {tree.n})")
        # node k's parent must be node k - 1, and the first node's ROOT_PARENT
        if path and [parents[k] for k in path] != [ROOT_PARENT] + path[:-1]:
            raise ContractError("accepted positions do not form a root-to-node path")
        return flat_path

    def _check_capacity(self, cache, extra):
        if cache.committed_len + extra > self.config.max_seq_len:
            raise CapacityError(f"sequence of {cache.committed_len}+{extra} exceeds "
                                f"max_seq_len {self.config.max_seq_len}")

    def _reserve_tail(self, cache, n):
        """Fit an n-node tail, though capacity asks only the deepest node to fit."""
        rows = cache.kv.shape[2]
        if rows < cache.committed_len + n:  # later trees of <= n nodes fit too
            extra = self.config.max_seq_len + n - rows
            cache.kv = np.pad(cache.kv, ((0, 0), (0, 0), (0, extra), (0, 0)))


def _seeded_rng(seed):
    """A seeded base's generator; a seed that is not an integer >= 0 is a ``ConfigError``."""
    check_integers(ConfigError, seed=seed)
    if seed < 0:
        raise ConfigError(f"need seed >= 0, got {seed}")
    return np.random.default_rng(seed)


def sinusoidal_positions(max_len, d_model):
    pos = np.arange(max_len)[:, None].astype(np.float64)
    i = np.arange(d_model // 2)[None, :].astype(np.float64)
    angles = pos / np.power(10000.0, 2.0 * i / d_model)
    pe = np.zeros((max_len, d_model), dtype=np.float32)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


_LN_EPS = np.float32(1e-5)
_GELU_C = np.float32(np.sqrt(2.0 / np.pi))
_GELU_A = np.float32(0.044715)
_HALF = np.float32(0.5)
_ONE = np.float32(1.0)


def _layer_norm(x, gain, bias):
    # np.add.reduce sums each row as ndarray.mean does, without mean's
    # Python-level overhead; every row has d_model terms on every path.  One
    # row, every greedy forward's, takes its statistics as float32 scalars,
    # which cost less than (1, 1) arrays: a 1-D reduce runs the same
    # contiguous loop as axis=1, and the scalar division, addition and square
    # root round as the array ones do, so the bits are the same
    d = x.shape[1]
    if x.shape[0] == 1:
        row = x[0]
        xc = row - np.add.reduce(row) / np.float32(d)
        var = np.add.reduce(xc * xc) / np.float32(d)
        return ((xc / np.sqrt(var + _LN_EPS)) * gain + bias)[None]
    xc = x - np.add.reduce(x, axis=1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=1, keepdims=True) / d
    return (xc / np.sqrt(var + _LN_EPS)) * gain + bias


def _gelu(x):
    return _HALF * x * (_ONE + np.tanh(_GELU_C * (x + _GELU_A * x * x * x)))


class TinyTransformer(BaseModel):
    """Pre-layernorm causal transformer with sinusoidal absolute positions.

    Weights are seeded-random or loaded; there is no in-repo training of the
    base model.  All products go through the float32 kernels, whose matmul
    rows do not depend on the batch and whose attention sums run in a fixed
    order on every lane, so a packed token whose ancestor path equals a
    causal prefix produces bitwise-identical logits to the causal forward.

    Each layer projects queries, keys and values with one matmul against
    its ``(d_model, 3 * d_model)`` weight ``wqkv``, ``[wq | wk | wv]``, the
    form it is stored and saved in.  On the numpy lane that product is
    bitwise the three separate products (each output column is its own
    left-to-right sum); on the blas lane it was so for widths that are
    multiples of 16 up to 256, not for every width (100 differs), and
    exactness needs only that every forward uses the same weight.  Every
    product takes its weight from ``weights`` itself, the same array object,
    which is how a tracer can tell the products apart.
    """

    def __init__(self, config, weights):
        self.config = config
        self.weights = weights
        self._validate_weights()
        self.token_embeddings = weights["tok_emb"]
        self._pos = sinusoidal_positions(config.max_seq_len, config.d_model)
        self._scale = np.float32(1.0 / np.sqrt(config.d_model // config.n_heads))
        # each layer's weights, in the order _forward unpacks them
        self._layers = [tuple(weights[f"l{i}_{name}"] for name in (
            "ln1_g", "ln1_b", "wqkv", "wo", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2"))
            for i in range(config.n_layers)]

    @staticmethod
    def weight_shapes(config):
        c = config
        shapes = {"tok_emb": (c.vocab_size, c.d_model),
                  "ln_f_g": (c.d_model,), "ln_f_b": (c.d_model,),
                  "w_out": (c.d_model, c.vocab_size)}
        for i in range(c.n_layers):
            shapes.update({
                f"l{i}_ln1_g": (c.d_model,), f"l{i}_ln1_b": (c.d_model,),
                f"l{i}_wqkv": (c.d_model, 3 * c.d_model), f"l{i}_wo": (c.d_model, c.d_model),
                f"l{i}_ln2_g": (c.d_model,), f"l{i}_ln2_b": (c.d_model,),
                f"l{i}_w1": (c.d_model, c.d_ff), f"l{i}_b1": (c.d_ff,),
                f"l{i}_w2": (c.d_ff, c.d_model), f"l{i}_b2": (c.d_model,),
            })
        return shapes

    def _validate_weights(self):
        for name, shape in self.weight_shapes(self.config).items():
            if name not in self.weights:
                raise ShapeError(f"missing tensor {name}")
            got = self.weights[name]
            if got.shape != shape:
                raise ShapeError(f"tensor {name}: expected shape {shape}, got {got.shape}")
            if got.dtype != np.float32:
                raise ShapeError(f"tensor {name}: expected float32, got {got.dtype}")

    @classmethod
    def random(cls, config, seed):
        rng = _seeded_rng(seed)
        weights = {}
        for name, shape in cls.weight_shapes(config).items():
            if name.endswith("_g"):
                weights[name] = np.ones(shape, dtype=np.float32)
            elif name.endswith(("_b", "b1", "b2")):
                weights[name] = np.zeros(shape, dtype=np.float32)
            elif name == "tok_emb":
                weights[name] = rng.normal(0.0, 1.0, shape).astype(np.float32)
            elif name.endswith("wqkv"):  # wq, wk and wv drawn in turn, side by side
                d = shape[0]
                blocks = rng.normal(0.0, 1.0 / np.sqrt(d), (3, d, d)).astype(np.float32)
                weights[name] = np.concatenate(blocks, axis=1)
            else:
                std = 1.0 / np.sqrt(shape[0])
                weights[name] = rng.normal(0.0, std, shape).astype(np.float32)
        return cls(config, weights)

    def _forward(self, tokens, positions, cache, allowed):
        """Shared body of the causal and tree-masked forwards.

        The n new rows sit just past the committed context, or for a tree
        forward from ``start`` just past the tree's first ``start`` nodes, and
        every row sees every committed key.  So ``allowed`` covers only the
        keys after the committed ones: it is None when a row sees every key
        (one context row), else the (n, keys past the context) boolean mask
        of the keys each row sees.  Each layer takes its K and V as views of
        the cache's array, writes the new rows' K/V to rows ``end - n ..
        end`` and attends the first ``end`` rows in place.
        """
        w = self.weights
        d = self.config.d_model
        n = tokens.shape[0]
        end = cache.committed_len + (n if allowed is None else allowed.shape[1])
        x = w["tok_emb"][tokens] + self._pos[positions]
        for (ln1_g, ln1_b, wqkv, wo, ln2_g, ln2_b, w1, b1, w2, b2), k, v in zip(
                self._layers, cache.kv[:, 0], cache.kv[:, 1]):
            qkv = kernels.matmul(_layer_norm(x, ln1_g, ln1_b), wqkv)
            k[end - n:end] = qkv[:, d:2 * d]
            v[end - n:end] = qkv[:, 2 * d:]
            att = kernels.attend(qkv[:, :d], k[:end], v[:end], allowed, self.config.n_heads,
                                 self._scale)
            x = x + kernels.matmul(att, wo)
            ff = _gelu(kernels.matmul(_layer_norm(x, ln2_g, ln2_b), w1) + b1)
            x = x + kernels.matmul(ff, w2) + b2
        hidden = _layer_norm(x, w["ln_f_g"], w["ln_f_b"])
        logits = kernels.matmul(hidden, w["w_out"])
        return BaseModelOutput(logits=logits, hidden=hidden)

    def _context_rows(self, tokens, cache):
        n_ctx, n = cache.committed_len, tokens.shape[0]
        # new row i sees new rows 0 .. i, so a single row sees every key
        allowed = None if n == 1 else np.tri(n, dtype=bool)
        return self._forward(tokens, slice(n_ctx, n_ctx + n), cache, allowed)

    def _tree_rows(self, tree, start, cache):
        # each node sits at the absolute position its path would occupy; the
        # root (depth 0) takes the next free position
        positions = cache.committed_len + tree.depths[start:]
        return self._forward(tree.tokens[start:], positions, cache, tree.mask[start:])


class SyntheticMarkovModel(BaseModel):
    """Seeded order-2 lookup-table model; ``order`` must be 2.

    A row's state is its token and the one before (0-padded), at index
    ``prev * vocab_size + token``.  Its logits are that row of ``table``, a
    fixed random table whose top-1 margin is boosted above 0.5, so greedy
    argmax is far from any float tie.  Its "hidden state" is that row of
    ``hidden_table``: the 16-wide ``state_emb`` of prev and of token, side by side.
    """

    def __init__(self, order, vocab_size, seed, max_seq_len=4096):
        if order != 2:
            raise ConfigError(f"unsupported markov order {order}: the model is order 2")
        self.config = ModelConfig(vocab_size=vocab_size, d_model=32, n_layers=0,
                                  n_heads=1, d_ff=0, max_seq_len=max_seq_len)
        if vocab_size > 256:
            raise ConfigError("synthetic model supports vocab_size <= 256")
        rng = _seeded_rng(seed)
        n_states = vocab_size * vocab_size
        table = rng.normal(0.0, 2.0, (n_states, vocab_size)).astype(np.float32)
        best = np.argmax(table, axis=1)
        table[np.arange(n_states), best] = table.max(axis=1) + np.float32(0.75)
        # sharpen: a positive scale preserves every argmax (and thus all greedy
        # chains) while concentrating the softmax, keeping next-token
        # distributions learnable by a low-entropy draft head
        self.table = table * np.float32(5.0)
        self.state_emb = rng.normal(0.0, 1.0, (vocab_size, 16)).astype(np.float32)
        self.token_embeddings = rng.normal(0.0, 1.0, (vocab_size, 32)).astype(np.float32)
        self.hidden_table = np.concatenate([np.repeat(self.state_emb, vocab_size, axis=0),
                                            np.tile(self.state_emb, (vocab_size, 1))], axis=1)

    def _context_rows(self, tokens, cache):
        # a per-token loop is the fastest form for the common 1-row forward
        v = self.config.vocab_size
        prev = cache.tokens[-1] if cache.tokens else 0
        logits, hidden = [], []
        for t in tokens.tolist():
            state = prev * v + t
            logits.append(self.table[state])
            hidden.append(self.hidden_table[state])
            prev = t
        return BaseModelOutput(logits=np.asarray(logits, np.float32),
                               hidden=np.asarray(hidden, np.float32))

    def _tree_rows(self, tree, start, cache):
        # as in _context_rows: the token before a node is its parent's, or
        # for the root the last committed one
        parents = tree.parents[start:]
        last = cache.tokens[-1] if cache.tokens else 0
        prev = np.where(parents == ROOT_PARENT, last, tree.tokens[parents])
        state = prev * self.config.vocab_size + tree.tokens[start:]
        return BaseModelOutput(logits=self.table[state], hidden=self.hidden_table[state])
