"""Base models: cache consistency, tree-masked verification, synthetic table."""

import numpy as np
import pytest

from redrafter import beam as beam_mod
from redrafter import kernels
from redrafter.beam import Beam
from redrafter.drafter import DrafterParams
from redrafter.errors import CapacityError, ConfigError, ContractError, ShapeError
from redrafter.model import (ModelConfig, SyntheticMarkovModel, TinyTransformer, _layer_norm,
                             sinusoidal_positions, synthetic_markov_model)

SMALL = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, d_ff=32,
                    max_seq_len=64)


@pytest.fixture(scope="module")
def tiny():
    return TinyTransformer.random(SMALL, seed=0)


ROOT = 7  # the guaranteed token every packed tree here is rooted at


def packed_from_tokens(tokens):
    beam = Beam(tokens=np.asarray(tokens), logp=np.zeros(len(tokens)))
    return beam, beam_mod.pack_beam(beam, ROOT)


def test_incremental_and_block_context_agree(tiny):
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, SMALL.vocab_size, size=10).tolist()
    cache_a = tiny.new_cache()
    block = tiny.forward_context(tokens, cache_a)
    cache_b = tiny.new_cache()
    rows = [tiny.forward_context([t], cache_b).logits[0] for t in tokens]
    assert np.max(np.abs(block.logits - np.stack(rows))) <= 1e-5
    assert cache_a.committed_len == cache_b.committed_len == len(tokens)


def test_packed_forward_matches_causal_replay_per_path(tiny):
    rng = np.random.default_rng(2)
    prompt = rng.integers(0, SMALL.vocab_size, size=6).tolist()
    for _ in range(25):
        width = int(rng.integers(1, 5))
        length = int(rng.integers(1, 5))
        tokens = rng.integers(0, 3, size=(width, length))
        beam, packed = packed_from_tokens(tokens)

        cache = tiny.new_cache()
        tiny.forward_context(prompt, cache)
        out, _ = tiny.forward_packed(packed, cache)

        for i in range(width):
            replay_cache = tiny.new_cache()
            replay = tiny.forward_context(prompt + [ROOT] + [int(t) for t in tokens[i]],
                                          replay_cache)
            path = np.concatenate([[0], packed.candidate_node[i]])
            got = out.logits[path]
            expect = replay.logits[len(prompt):]
            assert np.max(np.abs(got - expect)) <= 1e-5


def test_packed_forward_is_read_only(tiny):
    rng = np.random.default_rng(3)
    prompt = rng.integers(0, SMALL.vocab_size, size=5).tolist()
    cache = tiny.new_cache()
    tiny.forward_context(prompt, cache)
    before = (cache.committed_len, list(cache.tokens))
    _, packed = packed_from_tokens(rng.integers(0, 4, size=(3, 3)))
    tiny.forward_packed(packed, cache)
    assert (cache.committed_len, list(cache.tokens)) == before


def test_commit_then_forward_matches_fresh_recompute(tiny):
    rng = np.random.default_rng(4)
    prompt = rng.integers(0, SMALL.vocab_size, size=5).tolist()
    tokens = rng.integers(0, 3, size=(4, 5))
    beam, packed = packed_from_tokens(tokens)

    cache = tiny.new_cache()
    tiny.forward_context(prompt, cache)
    out, spec_state = tiny.forward_packed(packed, cache)
    accepted = 2
    path = np.concatenate([[0], packed.candidate_node[1, :accepted]])
    tiny.commit_accepted(cache, packed, spec_state, path)
    assert cache.committed_len == len(prompt) + 1 + accepted

    probe = int(rng.integers(SMALL.vocab_size))
    committed = tiny.forward_context([probe], cache)
    fresh_cache = tiny.new_cache()
    full = prompt + [ROOT] + [int(t) for t in tokens[1, :accepted]] + [probe]
    fresh = tiny.forward_context(full, fresh_cache)
    assert np.max(np.abs(committed.logits[-1] - fresh.logits[-1])) <= 1e-5


def test_empty_packed_beam_yields_empty_output(tiny):
    beam, packed = packed_from_tokens(np.zeros((1, 1), dtype=np.int64))
    # shrink to zero nodes by hand
    packed.tokens = packed.tokens[:0]
    packed.mask = packed.mask[:0, :0]
    cache = tiny.new_cache()
    tiny.forward_context([1, 2], cache)
    out, _ = tiny.forward_packed(packed, cache)
    assert out.logits.shape[0] == 0


def bits(x):
    return x.view(np.uint32)  # distinguishes -0.0 from +0.0, unlike ==


def reference_forward(model, tokens, positions, ctx_k, ctx_v, allowed):
    """The transformer forward composed from the separate ``wq``, ``wk`` and
    ``wv`` products, with layer norm and GELU written out as plain formulas.

    ``ctx_k``/``ctx_v`` hold each layer's committed K/V rows and ``allowed``
    is (rows, committed + rows).  Returns logits, hidden and each layer's new
    (K, V) rows.
    """
    c = model.config
    w = model.weights
    d = c.d_model

    def layer_norm(x, gain, bias):
        mu = np.add.reduce(x, axis=1, keepdims=True) / d
        var = np.add.reduce((x - mu) ** 2, axis=1, keepdims=True) / d
        return ((x - mu) / np.sqrt(var + np.float32(1e-5))) * gain + bias

    def gelu(x):
        k = np.float32(np.sqrt(2.0 / np.pi))
        return np.float32(0.5) * x * (np.float32(1.0) + np.tanh(
            k * (x + np.float32(0.044715) * x * x * x)))

    bias = kernels.masked_bias(allowed)
    x = w["tok_emb"][tokens] + sinusoidal_positions(c.max_seq_len, d)[positions]
    new_kv = []
    for i in range(c.n_layers):
        x_norm = layer_norm(x, w[f"l{i}_ln1_g"], w[f"l{i}_ln1_b"])
        q, k, v = (kernels.matmul(x_norm, w[f"l{i}_{name}"]) for name in ("wq", "wk", "wv"))
        new_kv.append((k, v))
        att = kernels.attend(q, np.concatenate([ctx_k[i], k]), np.concatenate([ctx_v[i], v]),
                             bias, c.n_heads, 1.0 / np.sqrt(d // c.n_heads))
        x = x + kernels.matmul(att, w[f"l{i}_wo"])
        x_norm = layer_norm(x, w[f"l{i}_ln2_g"], w[f"l{i}_ln2_b"])
        ff = gelu(kernels.matmul(x_norm, w[f"l{i}_w1"]) + w[f"l{i}_b1"])
        x = x + kernels.matmul(ff, w[f"l{i}_w2"]) + w[f"l{i}_b2"]
    hidden = layer_norm(x, w["ln_f_g"], w["ln_f_b"])
    return kernels.matmul(hidden, w["w_out"]), hidden, new_kv


@pytest.mark.parametrize("n_heads", [1, 4])
def test_forwards_equal_the_separate_projection_reference(n_heads):
    """Prefill, a 1-row step and a packed tree with shared prefixes give, bit
    for bit, the reference's logits, hidden states and K/V rows."""
    config = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=n_heads, d_ff=32,
                         max_seq_len=64)
    rng = np.random.default_rng(n_heads)
    model = TinyTransformer(config, {name: rng.normal(0.0, 0.5, shape).astype(np.float32)
                                     for name, shape in TinyTransformer.weight_shapes(config).items()})
    cache = model.new_cache()

    def check(out, kv, tokens, positions, allowed):
        """Compare a forward's outputs and new K/V rows with the reference
        over the cache's first ``allowed.shape[1] - len(tokens)`` rows."""
        n_ctx = allowed.shape[1] - len(tokens)
        logits, hidden, ref_kv = reference_forward(
            model, tokens, positions, [k[:n_ctx] for k in cache.k],
            [v[:n_ctx] for v in cache.v], allowed)
        assert np.array_equal(bits(out.logits), bits(logits))
        assert np.array_equal(bits(out.hidden), bits(hidden))
        for (k, v), (ref_k, ref_v) in zip(kv, ref_kv, strict=True):
            assert np.array_equal(bits(k), bits(ref_k))
            assert np.array_equal(bits(v), bits(ref_v))
        return ref_kv

    for tokens in ([3, 1, 4, 1, 5, 9, 2, 6, 5], [12]):  # multi-row prefill, then a 1-row step
        n_ctx, n = cache.committed_len, len(tokens)
        positions = n_ctx + np.arange(n)
        allowed = np.arange(n_ctx + n)[None, :] <= positions[:, None]
        out = model.forward_context(tokens, cache)
        written = [(k[n_ctx:n_ctx + n], v[n_ctx:n_ctx + n]) for k, v in zip(cache.k, cache.v)]
        check(out, written, np.array(tokens), positions, allowed)

    _, packed = packed_from_tokens([[4, 5, 1], [4, 5, 2], [4, 6, 6], [3, 3, 3]])
    n_ctx = cache.committed_len
    out, spec_state = model.forward_packed(packed, cache)
    allowed = np.concatenate([np.ones((packed.n, n_ctx), bool), packed.mask], axis=1)
    ref_kv = check(out, spec_state, packed.tokens, n_ctx + packed.depths, allowed)
    path = np.concatenate([[0], packed.candidate_node[1]])
    model.commit_accepted(cache, packed, spec_state, path)
    for layer, (ref_k, ref_v) in enumerate(ref_kv):
        assert np.array_equal(bits(cache.k[layer][n_ctx:n_ctx + 4]), bits(ref_k[path]))
        assert np.array_equal(bits(cache.v[layer][n_ctx:n_ctx + 4]), bits(ref_v[path]))


def test_layer_norm_mean_is_bitwise_the_float32_mean():
    rng = np.random.default_rng(12)
    for rows in range(1, 21):
        for d in (16, 32, 64):
            x = (rng.normal(size=(rows, d)) * rng.choice([1e-3, 1.0, 1e3])).astype(np.float32)
            gain = rng.normal(size=d).astype(np.float32)
            bias = rng.normal(size=d).astype(np.float32)
            mu = x.mean(axis=1, keepdims=True, dtype=np.float32)
            var = ((x - mu) ** 2).mean(axis=1, keepdims=True, dtype=np.float32)
            expect = ((x - mu) / np.sqrt(var + np.float32(1e-5))) * gain + bias
            got = _layer_norm(x, gain, bias)
            assert got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), expect.view(np.uint32))


def test_capacity_overflow_raises(tiny):
    cache = tiny.new_cache()
    with pytest.raises(CapacityError):
        tiny.forward_context(list(range(SMALL.vocab_size)) * 5, cache)


def test_packed_capacity_is_set_by_the_deepest_node(tiny):
    """A tree needs room for its depth, not for its node count."""
    markov = synthetic_markov_model(order=2, vocab_size=16, seed=1,
                                    max_seq_len=SMALL.max_seq_len)
    _, wide = packed_from_tokens(np.arange(8)[:, None] + np.zeros((1, 3), np.int64))
    for base in (tiny, markov):
        cache = base.new_cache()
        base.forward_context([1] * (SMALL.max_seq_len - 4), cache)
        out, _ = base.forward_packed(wide, cache)  # 25 nodes, root + 3 deep: fits
        assert out.logits.shape[0] == wide.n == 25
        base.forward_context([1], cache)
        with pytest.raises(CapacityError):
            base.forward_packed(wide, cache)


def test_token_range_validation(tiny):
    cache = tiny.new_cache()
    with pytest.raises(ShapeError):
        tiny.forward_context([SMALL.vocab_size], cache)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=0, d_model=8, n_layers=1, n_heads=1, d_ff=8, max_seq_len=8)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=8, d_model=9, n_layers=1, n_heads=2, d_ff=8, max_seq_len=8)


# ---------------------------------------------------------------------------
# synthetic Markov model
# ---------------------------------------------------------------------------

def test_markov_same_seed_identical_logits():
    a = synthetic_markov_model(order=2, vocab_size=16, seed=5)
    b = synthetic_markov_model(order=2, vocab_size=16, seed=5)
    assert np.array_equal(a.table, b.table)
    ctx = [3, 1, 4, 1, 5]
    ca, cb = a.new_cache(), b.new_cache()
    assert np.array_equal(a.forward_context(ctx, ca).logits,
                          b.forward_context(ctx, cb).logits)


def test_markov_top1_margin_exceeds_half():
    model = synthetic_markov_model(order=2, vocab_size=16, seed=6)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        ctx = rng.integers(0, 16, size=int(rng.integers(1, 6))).tolist()
        cache = model.new_cache()
        row = model.forward_context(ctx, cache).logits[-1]
        top2 = np.sort(row)[-2:]
        assert top2[1] - top2[0] > 0.5


def test_markov_greedy_chain_is_eventually_periodic():
    model = synthetic_markov_model(order=2, vocab_size=8, seed=8)
    cache = model.new_cache()
    out = model.forward_context([2, 5], cache)
    seen = {}
    history = [2, 5]
    for step in range(200):
        state = tuple(history[-2:])
        if state in seen:
            assert step - seen[state] >= 1  # cycle found
            return
        seen[state] = step
        token = int(np.argmax(out.logits[-1]))
        history.append(token)
        out = model.forward_context([token], cache)
    pytest.fail("no cycle within the state-space bound")


def test_markov_hidden_is_concatenated_embeddings():
    model = synthetic_markov_model(order=2, vocab_size=8, seed=9)
    cache = model.new_cache()
    out = model.forward_context([3, 6], cache)
    expect = np.concatenate([model.state_emb[3], model.state_emb[6]])
    assert np.array_equal(out.hidden[-1], expect)
    # first position pads history with token 0
    cache2 = model.new_cache()
    first = model.forward_context([3], cache2)
    pad = np.concatenate([model.state_emb[0], model.state_emb[3]])
    assert np.array_equal(first.hidden[-1], pad)


def test_markov_packed_forward_follows_paths():
    """Every node's logits and hidden state equal, bit for bit, those of a
    causal replay of its path, for both orders and committed contexts from
    empty to longer than the order."""
    shared = np.array([[4, 5, 1, 2, 3], [4, 5, 1, 2, 6], [4, 5, 7, 7, 0], [4, 6, 6, 1, 2],
                       [2, 2, 2, 2, 2], [2, 2, 2, 2, 3], [4, 5, 1, 3, 3], [0, 1, 2, 3, 4]])
    for order in (1, 2):
        model = synthetic_markov_model(order=order, vocab_size=8, seed=10)
        for context in ([], [3], [1, 2, 3]):
            for tokens in (np.array([[4, 5], [4, 6]]), shared):
                cache = model.new_cache()
                model.forward_context(context, cache)
                beam, packed = packed_from_tokens(tokens)
                out, _ = model.forward_packed(packed, cache)
                for i in range(beam.width):
                    full = model.forward_context(context + [ROOT] + beam.tokens[i].tolist(),
                                                 model.new_cache())
                    path = np.concatenate([[0], packed.candidate_node[i]])
                    where = (order, context, i)
                    assert np.array_equal(out.logits[path].view(np.uint32),
                                          full.logits[len(context):].view(np.uint32)), where
                    assert np.array_equal(out.hidden[path].view(np.uint32),
                                          full.hidden[len(context):].view(np.uint32)), where


def test_beam_search_trees_match_causal_replay_bitwise(tiny):
    """Every node of a beam-search draft tree, under either base model, gets
    bit for bit the logits and hidden state of a causal replay of its root
    path, and committing the accepted path leaves the cache a replay's."""
    markov = synthetic_markov_model(order=2, vocab_size=16, seed=1)
    rng = np.random.default_rng(13)
    for base in (tiny, markov):
        params = DrafterParams.random(np.random.default_rng(5), base.config.d_model,
                                      base.config.vocab_size)
        for width, length in ((1, 4), (3, 2), (4, 4), (8, 3)):
            prompt = rng.integers(0, 16, size=5).tolist()
            cache = base.new_cache()
            ctx = base.forward_context(prompt, cache)
            root = int(rng.integers(16))
            tree = beam_mod.beam_search(params, base.token_embeddings, ctx.hidden[-1], root,
                                        width, length).tree(root)
            out, spec_state = base.forward_packed(tree, cache)
            for i in range(tree.n):
                path = tree.ancestors[i, :tree.depths[i] + 1]
                replay = base.forward_context(prompt + tree.tokens[path].tolist(),
                                              base.new_cache())
                where = (type(base).__name__, width, length, i)
                assert np.array_equal(bits(out.logits[i]), bits(replay.logits[-1])), where
                assert np.array_equal(bits(out.hidden[i]), bits(replay.hidden[-1])), where
            deepest = tree.n - 1
            path = tree.ancestors[deepest, :tree.depths[deepest] + 1]
            base.commit_accepted(cache, tree, spec_state, path)
            probe = base.forward_context([3], cache)
            replay = base.forward_context(prompt + tree.tokens[path].tolist() + [3],
                                          base.new_cache())
            assert np.array_equal(bits(probe.logits[-1]), bits(replay.logits[-1]))


def test_commit_rejects_a_non_path(tiny):
    """commit_accepted takes only a root-to-node path of the packed tree."""
    # nodes: 0 root, 1 = 4, 2 = 4 -> 5, 3 = 4 -> 6
    _, packed = packed_from_tokens(np.array([[4, 5], [4, 6]]))
    markov = synthetic_markov_model(order=2, vocab_size=16, seed=1)
    for base in (tiny, markov):
        cache = base.new_cache()
        base.forward_context([1, 2, 3], cache)
        _, spec_state = base.forward_packed(packed, cache)
        for bad in ([0, 2], [1, 3], [0, 3, 1]):  # skips a level, not from the root, out of order
            with pytest.raises(ContractError):
                base.commit_accepted(cache, packed, spec_state, bad)
            assert cache.committed_len == 3
        base.commit_accepted(cache, packed, spec_state, [0, 1, 3])
        assert cache.tokens == [1, 2, 3, ROOT, 4, 6]


def test_markov_rejects_unsupported_order():
    with pytest.raises(ConfigError):
        synthetic_markov_model(order=3, vocab_size=8, seed=0)
