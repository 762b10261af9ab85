"""Base models being accelerated: a tiny causal transformer that supports
tree-masked verification forwards against a KV cache, and a synthetic Markov
table model for fast, learnable acceptance experiments.

Both expose the same surface: per-position next-token logits plus the
last-layer hidden state that feeds the draft head.  Verification forwards are
read-only on the cache; accepted speculative tokens are committed explicitly,
so rejected draft tokens leave no trace.
"""

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import CapacityError, ConfigError, ContractError, ShapeError
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
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.vocab_size < 2 or self.max_seq_len < 1:
            raise ConfigError("need vocab_size >= 2 and max_seq_len >= 1")


@dataclass
class BaseModelOutput:
    logits: np.ndarray  # (positions, vocab)
    hidden: np.ndarray  # (positions, d_model)


@dataclass
class KvCache:
    """Committed context: per-layer keys/values plus the token ids themselves."""

    k: list = field(default_factory=list)  # per layer (max_seq_len, d_model) float32
    v: list = field(default_factory=list)
    tokens: list = field(default_factory=list)
    committed_len: int = 0

    def clone(self):
        return KvCache(k=[a.copy() for a in self.k], v=[a.copy() for a in self.v],
                       tokens=list(self.tokens), committed_len=self.committed_len)


class BaseModel(ABC):
    """Next-token logits + last-layer hidden state, with explicit cache commits."""

    config: ModelConfig

    @property
    @abstractmethod
    def token_embeddings(self):
        """(vocab, d_model) table the draft head conditions on (frozen)."""

    @abstractmethod
    def new_cache(self):
        ...

    @abstractmethod
    def forward_context(self, tokens, cache):
        """Append tokens to the committed context; logits/hidden per new position."""

    @abstractmethod
    def forward_packed(self, tree, cache):
        """Tree-masked forward over a draft tree whose root takes the next
        position after the committed context.  Read-only on the cache.

        Returns (BaseModelOutput, spec_state); spec_state carries whatever the
        model needs to later commit an accepted path without recomputing.
        """

    @abstractmethod
    def commit_accepted(self, cache, tree, spec_state, flat_path):
        """Append an accepted path of tree nodes, root first, to the context."""

    def _check_tokens(self, tokens):
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.config.vocab_size):
            raise ShapeError(f"token id outside vocab of size {self.config.vocab_size}")
        return tokens

    def _check_path(self, tree, flat_path):
        flat_path = np.asarray(flat_path, dtype=np.int64)
        # node k's parent must be node k - 1, and the first node's ROOT_PARENT
        expected = np.concatenate(([ROOT_PARENT], flat_path))[:-1]
        if not np.array_equal(tree.parents[flat_path], expected):
            raise ContractError("accepted positions do not form a root-to-node path")
        return flat_path

    def _check_capacity(self, cache, extra):
        if cache.committed_len + extra > self.config.max_seq_len:
            raise CapacityError(f"sequence of {cache.committed_len}+{extra} exceeds "
                                f"max_seq_len {self.config.max_seq_len}")


def sinusoidal_positions(max_len, d_model):
    pos = np.arange(max_len)[:, None].astype(np.float64)
    i = np.arange(d_model // 2)[None, :].astype(np.float64)
    angles = pos / np.power(10000.0, 2.0 * i / d_model)
    pe = np.zeros((max_len, d_model), dtype=np.float32)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def _layer_norm(x, gain, bias):
    # np.add.reduce sums each row as ndarray.mean does, without mean's
    # Python-level overhead; every row has d_model terms on every path
    x = x.astype(np.float32, copy=False)
    d = x.shape[1]
    xc = x - np.add.reduce(x, axis=1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=1, keepdims=True) / d
    return (xc / np.sqrt(var + np.float32(1e-5))) * gain + bias


def _gelu(x):
    c = np.float32(np.sqrt(2.0 / np.pi))
    x = x.astype(np.float32, copy=False)
    return np.float32(0.5) * x * (np.float32(1.0) + np.tanh(c * (x + np.float32(0.044715) * x * x * x)))


class TinyTransformer(BaseModel):
    """Pre-layernorm causal transformer with sinusoidal absolute positions.

    Weights are seeded-random or loaded; there is no in-repo training of the
    base model.  All arithmetic goes through the fixed-order float32 kernels,
    so a packed token whose ancestor path equals a causal prefix produces
    bitwise-identical logits to the causal forward.

    ``weights`` is read at construction: each layer's ``wq``, ``wk`` and ``wv``
    are copied side by side into one ``(d_model, 3 * d_model)`` projection,
    whose product is bitwise the three separate products (each output column
    is its own fixed-order sum).  Only ``weights`` is saved, so the weight
    file keeps the separate tensors.
    """

    def __init__(self, config, weights):
        self.config = config
        self.weights = weights
        self._validate_weights()
        self._pos = sinusoidal_positions(config.max_seq_len, config.d_model)
        self._wqkv = [np.concatenate([weights[f"l{i}_{w}"] for w in ("wq", "wk", "wv")], axis=1)
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
                f"l{i}_wq": (c.d_model, c.d_model), f"l{i}_wk": (c.d_model, c.d_model),
                f"l{i}_wv": (c.d_model, c.d_model), f"l{i}_wo": (c.d_model, c.d_model),
                f"l{i}_ln2_g": (c.d_model,), f"l{i}_ln2_b": (c.d_model,),
                f"l{i}_w1": (c.d_model, c.d_ff), f"l{i}_b1": (c.d_ff,),
                f"l{i}_w2": (c.d_ff, c.d_model), f"l{i}_b2": (c.d_model,),
            })
        return shapes

    def _validate_weights(self):
        for name, shape in self.weight_shapes(self.config).items():
            if name not in self.weights:
                raise ShapeError(f"missing tensor {name}")
            got = self.weights[name].shape
            if got != shape:
                raise ShapeError(f"tensor {name}: expected shape {shape}, got {got}")

    @classmethod
    def random(cls, config, seed):
        rng = np.random.default_rng(seed)
        weights = {}
        for name, shape in cls.weight_shapes(config).items():
            if name.endswith("_g"):
                weights[name] = np.ones(shape, dtype=np.float32)
            elif name.endswith(("_b", "b1", "b2")):
                weights[name] = np.zeros(shape, dtype=np.float32)
            elif name == "tok_emb":
                weights[name] = rng.normal(0.0, 1.0, shape).astype(np.float32)
            else:
                std = 1.0 / np.sqrt(shape[0])
                weights[name] = rng.normal(0.0, std, shape).astype(np.float32)
        return cls(config, weights)

    @property
    def token_embeddings(self):
        return self.weights["tok_emb"]

    def new_cache(self):
        c = self.config
        return KvCache(k=[np.zeros((c.max_seq_len, c.d_model), np.float32) for _ in range(c.n_layers)],
                       v=[np.zeros((c.max_seq_len, c.d_model), np.float32) for _ in range(c.n_layers)])

    def _forward(self, tokens, positions, cache, key_bias):
        """Shared body of the causal and tree-masked forwards.

        The new rows attend to the committed cache plus their own keys.
        key_bias is (n_new, committed + n_new) additive float32; disallowed
        keys carry a large negative bias whose softmax weight is exactly 0.
        """
        c = self.config
        w = self.weights
        d = c.d_model
        n_ctx = cache.committed_len
        scale = 1.0 / np.sqrt(d // c.n_heads)
        x = w["tok_emb"][tokens] + self._pos[positions]
        per_layer_kv = []
        for layer in range(c.n_layers):
            x_norm = _layer_norm(x, w[f"l{layer}_ln1_g"], w[f"l{layer}_ln1_b"])
            qkv = kernels.matmul(x_norm, self._wqkv[layer])
            q, new_k, new_v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
            per_layer_kv.append((new_k, new_v))
            keys = np.concatenate([cache.k[layer][:n_ctx], new_k], axis=0)
            vals = np.concatenate([cache.v[layer][:n_ctx], new_v], axis=0)
            att = kernels.attend(q, keys, vals, key_bias, c.n_heads, scale)
            x = x + kernels.matmul(att, w[f"l{layer}_wo"])
            x_norm = _layer_norm(x, w[f"l{layer}_ln2_g"], w[f"l{layer}_ln2_b"])
            ff = _gelu(kernels.matmul(x_norm, w[f"l{layer}_w1"]) + w[f"l{layer}_b1"])
            x = x + kernels.matmul(ff, w[f"l{layer}_w2"]) + w[f"l{layer}_b2"]
        hidden = _layer_norm(x, w["ln_f_g"], w["ln_f_b"])
        logits = kernels.matmul(hidden, w["w_out"])
        return BaseModelOutput(logits=logits, hidden=hidden), per_layer_kv

    def forward_context(self, tokens, cache):
        tokens = self._check_tokens(tokens)
        n = tokens.shape[0]
        self._check_capacity(cache, n)
        n_ctx = cache.committed_len
        positions = n_ctx + np.arange(n)
        # row i attends keys 0 .. n_ctx+i
        allowed = np.arange(n_ctx + n)[None, :] <= positions[:, None]
        out, per_layer_kv = self._forward(tokens, positions, cache, kernels.masked_bias(allowed))
        for layer, (new_k, new_v) in enumerate(per_layer_kv):
            cache.k[layer][n_ctx:n_ctx + n] = new_k
            cache.v[layer][n_ctx:n_ctx + n] = new_v
        cache.tokens.extend(int(t) for t in tokens)
        cache.committed_len += n
        return out

    def forward_packed(self, tree, cache):
        tokens = self._check_tokens(tree.tokens)
        n = tokens.shape[0]
        if tree.mask.shape != (n, n):
            raise ShapeError(f"mask shape {tree.mask.shape} does not match {n} tree tokens")
        if n == 0:
            d = self.config.d_model
            return (BaseModelOutput(logits=np.zeros((0, self.config.vocab_size), np.float32),
                                    hidden=np.zeros((0, d), np.float32)), [])
        self._check_capacity(cache, int(tree.depths.max()) + 1)
        n_ctx = cache.committed_len
        # each node sits at the absolute position its path would occupy; the
        # root (depth 0) takes the next free position
        positions = n_ctx + tree.depths
        allowed = np.concatenate([np.ones((n, n_ctx), dtype=bool), tree.mask], axis=1)
        return self._forward(tokens, positions, cache, kernels.masked_bias(allowed))

    def commit_accepted(self, cache, tree, spec_state, flat_path):
        flat_path = self._check_path(tree, flat_path)
        n = flat_path.shape[0]
        if n == 0:
            return cache
        self._check_capacity(cache, n)
        n_ctx = cache.committed_len
        for layer, (new_k, new_v) in enumerate(spec_state):
            cache.k[layer][n_ctx:n_ctx + n] = new_k[flat_path]
            cache.v[layer][n_ctx:n_ctx + n] = new_v[flat_path]
        cache.tokens.extend(int(tree.tokens[i]) for i in flat_path)
        cache.committed_len += n
        return cache


@dataclass
class MarkovCache:
    tokens: list = field(default_factory=list)
    committed_len: int = 0

    def clone(self):
        return MarkovCache(tokens=list(self.tokens), committed_len=self.committed_len)


class SyntheticMarkovModel(BaseModel):
    """Seeded lookup-table model over the last ``order`` tokens.

    Next-token logits come from a fixed random table whose top-1 margin is
    boosted above 0.5, so greedy argmax is far from any float tie.  The
    "hidden state" is the concatenation of fixed embeddings of the last
    ``order`` tokens.  Early positions pad history with token 0.
    """

    def __init__(self, order, vocab_size, seed, d_model=32, max_seq_len=4096):
        if order not in (1, 2):
            raise ConfigError(f"unsupported markov order {order}")
        if vocab_size > 256:
            raise ConfigError("synthetic model supports vocab_size <= 256")
        if d_model % order != 0:
            raise ConfigError("d_model must be divisible by order")
        self.order = order
        self.config = ModelConfig(vocab_size=vocab_size, d_model=d_model, n_layers=1,
                                  n_heads=1, d_ff=1, max_seq_len=max_seq_len)
        rng = np.random.default_rng(seed)
        n_states = vocab_size ** order
        table = rng.normal(0.0, 2.0, (n_states, vocab_size)).astype(np.float32)
        best = np.argmax(table, axis=1)
        table[np.arange(n_states), best] = table.max(axis=1) + np.float32(0.75)
        # sharpen: a positive scale preserves every argmax (and thus all greedy
        # chains) while concentrating the softmax, keeping next-token
        # distributions learnable by a low-entropy draft head
        self.table = table * np.float32(5.0)
        self.state_emb = rng.normal(0.0, 1.0, (vocab_size, d_model // order)).astype(np.float32)
        self._tok_emb = rng.normal(0.0, 1.0, (vocab_size, d_model)).astype(np.float32)

    @property
    def token_embeddings(self):
        return self._tok_emb

    def new_cache(self):
        return MarkovCache()

    def _state_index(self, history):
        """Table row for the last ``order`` tokens of a history (0-padded)."""
        padded = [0] * max(0, self.order - len(history)) + list(history[-self.order:])
        idx = 0
        for t in padded:
            idx = idx * self.config.vocab_size + t
        return idx

    def _row(self, history):
        padded = [0] * max(0, self.order - len(history)) + list(history[-self.order:])
        h = np.concatenate([self.state_emb[t] for t in padded])
        return self.table[self._state_index(history)], h

    def forward_context(self, tokens, cache):
        tokens = self._check_tokens(tokens)
        self._check_capacity(cache, tokens.shape[0])
        logits, hidden = [], []
        for t in tokens:
            cache.tokens.append(int(t))
            row, h = self._row(cache.tokens)
            logits.append(row)
            hidden.append(h)
        cache.committed_len = len(cache.tokens)
        return BaseModelOutput(logits=np.asarray(logits, np.float32),
                               hidden=np.asarray(hidden, np.float32))

    def forward_packed(self, tree, cache):
        tokens = self._check_tokens(tree.tokens)
        n = tokens.shape[0]
        if tree.mask.shape != (n, n):
            raise ShapeError(f"mask shape {tree.mask.shape} does not match {n} tree tokens")
        if n == 0:
            return (BaseModelOutput(logits=np.zeros((0, self.config.vocab_size), np.float32),
                                    hidden=np.zeros((0, self.config.d_model), np.float32)), None)
        self._check_capacity(cache, int(tree.depths.max()) + 1)
        # a node's row reads its own token and, at order 2, the token before
        # it: its parent's, or for the root the last committed one (0-padded)
        parents = np.asarray(tree.parents)
        last = cache.tokens[-1] if cache.tokens else 0
        prev = np.where(parents == ROOT_PARENT, last, tokens[parents])
        history = np.stack([prev, tokens], axis=1)[:, 2 - self.order:]
        idx = np.ravel_multi_index(history.T, (self.config.vocab_size,) * self.order)
        return BaseModelOutput(logits=self.table[idx],
                               hidden=self.state_emb[history].reshape(n, -1)), None

    def commit_accepted(self, cache, tree, spec_state, flat_path):
        flat_path = self._check_path(tree, flat_path)
        self._check_capacity(cache, flat_path.shape[0])
        cache.tokens.extend(int(tree.tokens[i]) for i in flat_path)
        cache.committed_len = len(cache.tokens)
        return cache


def synthetic_markov_model(order, vocab_size, seed, **kwargs):
    return SyntheticMarkovModel(order, vocab_size, seed, **kwargs)
