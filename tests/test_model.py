"""Base models: cache consistency, tree-masked verification, synthetic table."""

import copy

import numpy as np
import pytest

from redrafter import beam as beam_mod
from redrafter import kernels
from redrafter.decode import RnnProposer
from redrafter.drafter import DrafterParams
from redrafter.errors import CapacityError, ConfigError, ContractError, ShapeError, VocabError
from redrafter.model import (KvCache, ModelConfig, SyntheticMarkovModel, TinyTransformer,
                             _layer_norm, sinusoidal_positions)

SMALL = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, d_ff=32,
                    max_seq_len=64)


@pytest.fixture(scope="module")
def tiny():
    return TinyTransformer.random(SMALL, seed=0)


@pytest.fixture(scope="module")
def markov():
    return SyntheticMarkovModel(order=2, vocab_size=SMALL.vocab_size, seed=1,
                                max_seq_len=SMALL.max_seq_len)


ROOT = 7  # the guaranteed token every packed tree here is rooted at


def packed_from_tokens(tokens):
    """The packed tree of candidate rows under ROOT, and each row's root path."""
    tree, nodes = beam_mod.pack_beam(np.asarray(tokens), ROOT)
    return tree, np.concatenate([np.zeros((len(nodes), 1), np.int64), nodes], axis=1)


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
        packed, paths = packed_from_tokens(tokens)

        cache = tiny.new_cache()
        tiny.forward_context(prompt, cache)
        out, _ = tiny.forward_packed(packed, cache)

        for i in range(width):
            replay_cache = tiny.new_cache()
            replay = tiny.forward_context(prompt + [ROOT] + [int(t) for t in tokens[i]],
                                          replay_cache)
            got = out.logits[paths[i]]
            expect = replay.logits[len(prompt):]
            assert np.max(np.abs(got - expect)) <= 1e-5


def test_packed_forward_is_read_only(tiny, markov):
    """A tree forward changes no committed token or K/V row, also when its
    nodes outgrow the K/V array; only the scratch rows past them may change.
    The array grows by rows only, the Markov base's zero-layer one too."""
    rng = np.random.default_rng(3)
    wide, _ = packed_from_tokens(np.arange(8)[:, None] + np.zeros((1, 3), np.int64))
    for base, layers in ((tiny, SMALL.n_layers), (markov, 0)):
        for prompt_len in (5, SMALL.max_seq_len - 4):
            prompt = rng.integers(0, SMALL.vocab_size, size=prompt_len).tolist()
            cache = base.new_cache()
            base.forward_context(prompt, cache)
            before = cache_bits(cache)
            packed, _ = packed_from_tokens(rng.integers(0, 4, size=(3, 3)))
            base.forward_packed(packed, cache)
            assert cache_bits(cache) == before
            base.forward_packed(wide, cache)  # 25 nodes: the array grows near max_seq_len
            assert cache_bits(cache) == before
        assert cache.kv.shape[:2] == (layers, 2)
        assert cache.kv.shape[2] >= SMALL.max_seq_len - 4 + wide.n


def test_commit_then_forward_matches_fresh_recompute(tiny):
    rng = np.random.default_rng(4)
    prompt = rng.integers(0, SMALL.vocab_size, size=5).tolist()
    tokens = rng.integers(0, 3, size=(4, 5))
    packed, paths = packed_from_tokens(tokens)

    cache = tiny.new_cache()
    tiny.forward_context(prompt, cache)
    out, spec_state = tiny.forward_packed(packed, cache)
    accepted = 2
    path = paths[1, :accepted + 1]
    tiny.commit_accepted(cache, packed, spec_state, path)
    assert cache.committed_len == len(prompt) + 1 + accepted

    probe = int(rng.integers(SMALL.vocab_size))
    committed = tiny.forward_context([probe], cache)
    fresh_cache = tiny.new_cache()
    full = prompt + [ROOT] + [int(t) for t in tokens[1, :accepted]] + [probe]
    fresh = tiny.forward_context(full, fresh_cache)
    assert np.max(np.abs(committed.logits[-1] - fresh.logits[-1])) <= 1e-5


def test_empty_context_forward_yields_empty_output(tiny, markov):
    """A context forward of no tokens has no output to yield: it raises
    ContractError and leaves the committed context untouched, on both bases."""
    for base in (tiny, markov):
        cache = base.new_cache()
        base.forward_context([3, 1], cache)
        before = cache_bits(cache)
        with pytest.raises(ContractError, match="at least one token"):
            base.forward_context([], cache)
        assert cache_bits(cache) == before


@pytest.mark.parametrize("tokens, error", [([1.7, 2.2], VocabError), (np.array([3.0]), VocabError),
                                           (5, ShapeError), ([[1, 2]], ShapeError),
                                           ([[1], [2, 3]], ShapeError)],
                         ids=["float-list", "float-array", "scalar", "nested", "ragged"])
def test_malformed_context_tokens_are_typed_errors(tokens, error, tiny, markov):
    """A non-integer id is a VocabError, not truncated to an integer, and a
    token input that is not 1-D a ShapeError; neither changes the cache."""
    for base in (tiny, markov):
        cache = base.new_cache()
        base.forward_context([3, 1], cache)
        before = cache_bits(cache)
        with pytest.raises(error):
            base.forward_context(tokens, cache)
        assert cache_bits(cache) == before


def bits(x):
    return x.view(np.uint32)  # distinguishes -0.0 from +0.0, unlike ==


def reference_forward(model, tokens, positions, ctx_k, ctx_v, allowed):
    """The transformer forward composed from separate ``wq``, ``wk`` and
    ``wv`` products, each against a contiguous copy of its third of
    ``wqkv``, with layer norm and GELU written out as plain formulas.

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

    x = w["tok_emb"][tokens] + sinusoidal_positions(c.max_seq_len, d)[positions]
    new_kv = []
    for i in range(c.n_layers):
        x_norm = layer_norm(x, w[f"l{i}_ln1_g"], w[f"l{i}_ln1_b"])
        q, k, v = (kernels.matmul(x_norm, np.ascontiguousarray(part))
                   for part in np.split(w[f"l{i}_wqkv"], 3, axis=1))
        new_kv.append((k, v))
        att = kernels.attend(q, np.concatenate([ctx_k[i], k]), np.concatenate([ctx_v[i], v]),
                             allowed, c.n_heads, 1.0 / np.sqrt(d // c.n_heads))
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
            model, tokens, positions, cache.kv[:, 0, :n_ctx], cache.kv[:, 1, :n_ctx], allowed)
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
        check(out, cache.kv[:, :, n_ctx:n_ctx + n], np.array(tokens), positions, allowed)

    packed, paths = packed_from_tokens([[4, 5, 1], [4, 5, 2], [4, 6, 6], [3, 3, 3]])
    n_ctx = cache.committed_len
    out, spec_state = model.forward_packed(packed, cache)
    allowed = np.concatenate([np.ones((packed.n, n_ctx), bool), packed.mask], axis=1)
    ref_kv = check(out, spec_state, packed.tokens, n_ctx + packed.depths, allowed)
    path = paths[1]
    model.commit_accepted(cache, packed, spec_state, path)
    for layer, (ref_k, ref_v) in enumerate(ref_kv):
        assert np.array_equal(bits(cache.kv[layer, 0, n_ctx:n_ctx + 4]), bits(ref_k[path]))
        assert np.array_equal(bits(cache.kv[layer, 1, n_ctx:n_ctx + 4]), bits(ref_v[path]))


def test_layer_norm_mean_is_bitwise_the_float32_mean():
    """On every path, one row's float32 scalar statistics and several rows'
    (rows, 1) arrays, at widths on both sides of numpy's pairwise blocks of
    8 and 128 terms, and for a constant row, whose variance is zero; a row
    alone gives the bits it has in a batch."""
    rng = np.random.default_rng(12)
    for rows in range(1, 21):
        for d in (2, 16, 32, 64, 100, 256):
            x = (rng.normal(size=(rows, d)) * rng.choice([1e-3, 1.0, 1e3])).astype(np.float32)
            if rows % 5 == 1:  # d copies of 0.75 sum and divide exactly
                x[0] = np.float32(0.75)
            gain = rng.normal(size=d).astype(np.float32)
            bias = rng.normal(size=d).astype(np.float32)
            mu = x.mean(axis=1, keepdims=True, dtype=np.float32)
            var = ((x - mu) ** 2).mean(axis=1, keepdims=True, dtype=np.float32)
            expect = ((x - mu) / np.sqrt(var + np.float32(1e-5))) * gain + bias
            got = _layer_norm(x, gain, bias)
            assert got.dtype == np.float32 and got.shape == (rows, d)
            assert np.array_equal(got.view(np.uint32), expect.view(np.uint32))
            for i in range(rows):  # the one-row path gives each row its batch bits
                alone = _layer_norm(x[i:i + 1], gain, bias)
                assert np.array_equal(alone.view(np.uint32), got[i:i + 1].view(np.uint32))


def test_capacity_overflow_raises(tiny, markov):
    for base in (tiny, markov):
        cache = base.new_cache()
        with pytest.raises(CapacityError):
            base.forward_context(list(range(SMALL.vocab_size)) * 5, cache)
        assert cache.tokens == []


def test_packed_capacity_is_set_by_the_deepest_node(tiny, markov):
    """A tree needs room for its depth, not for its node count.  With 4 or 5
    rows left, 25 nodes outgrow the cache's K/V array, yet every node
    equals a causal replay of its path bit for bit, and so do the committed
    deepest path and a forward after it.  A tree deeper than the room raises."""
    wide, _ = packed_from_tokens(np.arange(8)[:, None] + np.zeros((1, 3), np.int64))
    deepest = int(np.argmax(wide.depths))
    for base in (tiny, markov):
        for room in (4, 5):
            prompt = [1] * (SMALL.max_seq_len - room)
            cache = base.new_cache()
            base.forward_context(prompt, cache)
            out, spec_state = base.forward_packed(wide, cache)  # 25 nodes, root + 3 deep: fits
            assert out.logits.shape[0] == wide.n == 25
            for i in range(wide.n):
                path = np.flatnonzero(wide.mask[i])
                replay = base.forward_context(prompt + wide.tokens[path].tolist(),
                                              base.new_cache())
                assert np.array_equal(bits(out.logits[i]), bits(replay.logits[-1])), (room, i)
            path = np.flatnonzero(wide.mask[deepest])
            base.commit_accepted(cache, wide, spec_state, path)
            replay_cache = base.new_cache()
            base.forward_context(prompt + wide.tokens[path].tolist(), replay_cache)
            assert cache_bits(cache) == cache_bits(replay_cache)
            if room > len(path):
                probe = base.forward_context([3], cache)
                replay = base.forward_context([3], replay_cache)
                assert np.array_equal(bits(probe.logits), bits(replay.logits))
                assert np.array_equal(bits(probe.hidden), bits(replay.hidden))
            with pytest.raises(CapacityError):
                base.forward_packed(wide, cache)


def test_token_range_validation(tiny, markov):
    tree, _ = packed_from_tokens([[4, 5], [4, 6]])
    for base in (tiny, markov):
        cache = base.new_cache()
        for bad in (SMALL.vocab_size, -1):
            with pytest.raises(VocabError, match="token id outside vocab"):
                base.forward_context([1, bad], cache)
            # a tree's arrays are read-only, so the bad token comes in a new tree
            tokens = tree.tokens.copy()
            tokens[2] = bad
            with pytest.raises(VocabError, match="token id outside vocab"):
                base.forward_packed(beam_mod.DraftTree(tokens, tree.parents), cache)
        assert cache.tokens == []


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=0, d_model=8, n_layers=1, n_heads=1, d_ff=8, max_seq_len=8)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=8, d_model=9, n_layers=1, n_heads=2, d_ff=8, max_seq_len=8)
    # no heads to split d_model into, an odd width sinusoidal positions cannot
    # pair, and no width at all
    for d_model, n_heads in ((8, 0), (5, 1), (0, 1)):
        with pytest.raises(ConfigError, match="need an even d_model split by n_heads >= 1"):
            ModelConfig(vocab_size=8, d_model=d_model, n_layers=1, n_heads=n_heads, d_ff=8,
                        max_seq_len=8)
    # negative counts; zero ones are the Markov table's, a model without attention
    for n_layers, d_ff in ((-1, 8), (1, -1)):
        with pytest.raises(ConfigError, match="need n_layers >= 0 and d_ff >= 0"):
            ModelConfig(vocab_size=8, d_model=8, n_layers=n_layers, n_heads=1, d_ff=d_ff,
                        max_seq_len=8)
    # a float would pass as a whole width or reach numpy shapes as a TypeError,
    # and a string would fail the range checks with a bare TypeError; numpy
    # integers are integers
    fields = dict(vocab_size=8, d_model=8, n_layers=1, n_heads=2, d_ff=8, max_seq_len=16)
    for field, value in (("vocab_size", 8.0), ("d_model", 8.0), ("n_layers", 1.5),
                         ("n_heads", "2"), ("d_ff", None), ("max_seq_len", "16")):
        with pytest.raises(ConfigError, match="must be an integer"):
            ModelConfig(**{**fields, field: value})
        assert ModelConfig(**{**fields, field: np.int64(fields[field])}) == ModelConfig(**fields)


# ---------------------------------------------------------------------------
# synthetic Markov model
# ---------------------------------------------------------------------------

def test_markov_same_seed_identical_logits():
    a = SyntheticMarkovModel(order=2, vocab_size=16, seed=5)
    b = SyntheticMarkovModel(order=2, vocab_size=16, seed=5)
    assert np.array_equal(a.table, b.table)
    ctx = [3, 1, 4, 1, 5]
    ca, cb = a.new_cache(), b.new_cache()
    assert np.array_equal(a.forward_context(ctx, ca).logits,
                          b.forward_context(ctx, cb).logits)


def test_markov_top1_margin_exceeds_half():
    model = SyntheticMarkovModel(order=2, vocab_size=16, seed=6)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        ctx = rng.integers(0, 16, size=int(rng.integers(1, 6))).tolist()
        cache = model.new_cache()
        row = model.forward_context(ctx, cache).logits[-1]
        top2 = np.sort(row)[-2:]
        assert top2[1] - top2[0] > 0.5


def test_markov_greedy_chain_is_eventually_periodic():
    model = SyntheticMarkovModel(order=2, vocab_size=8, seed=8)
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
    """Every (prev, token) state reads row ``prev * vocab + token`` of the
    logit table, and its hidden state is prev's embedding, then token's; a
    first position pads prev with token 0."""
    model = SyntheticMarkovModel(order=2, vocab_size=8, seed=9)
    cases = ([([prev, token], prev, token) for prev in range(8) for token in range(8)]
             + [([token], 0, token) for token in range(8)])
    for tokens, prev, token in cases:
        out = model.forward_context(tokens, model.new_cache())
        expect = np.concatenate([model.state_emb[prev], model.state_emb[token]])
        assert np.array_equal(out.hidden[-1], expect), tokens
        assert np.array_equal(out.logits[-1], model.table[prev * 8 + token]), tokens


def test_markov_packed_forward_follows_paths():
    """Every node's logits and hidden state equal, bit for bit, those of a
    causal replay of its path, for committed contexts from empty to longer
    than the order."""
    shared = np.array([[4, 5, 1, 2, 3], [4, 5, 1, 2, 6], [4, 5, 7, 7, 0], [4, 6, 6, 1, 2],
                       [2, 2, 2, 2, 2], [2, 2, 2, 2, 3], [4, 5, 1, 3, 3], [0, 1, 2, 3, 4]])
    model = SyntheticMarkovModel(order=2, vocab_size=8, seed=10)
    for context in ([], [3], [1, 2, 3]):
        for tokens in (np.array([[4, 5], [4, 6]]), shared):
            cache = model.new_cache()
            if context:  # a context forward takes at least one token
                model.forward_context(context, cache)
            packed, paths = packed_from_tokens(tokens)
            out, _ = model.forward_packed(packed, cache)
            for i, path in enumerate(paths):
                full = model.forward_context(context + [ROOT] + tokens[i].tolist(),
                                             model.new_cache())
                where = (context, i)
                assert np.array_equal(out.logits[path].view(np.uint32),
                                      full.logits[len(context):].view(np.uint32)), where
                assert np.array_equal(out.hidden[path].view(np.uint32),
                                      full.hidden[len(context):].view(np.uint32)), where


def check_trees_match_causal_replay(base, rng, prompt_len):
    """Every node of a beam-search draft tree gets bit for bit the logits and
    hidden state of a causal replay of its root path, and committing the
    accepted path leaves the cache a replay's."""
    params = DrafterParams.random(np.random.default_rng(5), base.config.d_model,
                                  base.config.vocab_size)
    for width, length in ((1, 4), (3, 2), (4, 4), (8, 3)):
        prompt = rng.integers(0, 16, size=prompt_len).tolist()
        cache = base.new_cache()
        ctx = base.forward_context(prompt, cache)
        root = int(rng.integers(16))
        tree = RnnProposer(params, base.token_embeddings).propose(ctx.hidden[-1], root,
                                                                  width, length)
        out, spec_state = base.forward_packed(tree, cache)
        for i in range(tree.n):
            path = np.flatnonzero(tree.mask[i])
            replay = base.forward_context(prompt + tree.tokens[path].tolist(),
                                          base.new_cache())
            where = (type(base).__name__, prompt_len, width, length, i)
            assert np.array_equal(bits(out.logits[i]), bits(replay.logits[-1])), where
            assert np.array_equal(bits(out.hidden[i]), bits(replay.hidden[-1])), where
        deepest = tree.n - 1
        path = np.flatnonzero(tree.mask[deepest])
        base.commit_accepted(cache, tree, spec_state, path)
        probe = base.forward_context([3], cache)
        replay = base.forward_context(prompt + tree.tokens[path].tolist() + [3],
                                      base.new_cache())
        assert np.array_equal(bits(probe.logits[-1]), bits(replay.logits[-1]))


def test_beam_search_trees_match_causal_replay_bitwise(tiny, markov):
    """The tree-against-replay check, under either base model."""
    rng = np.random.default_rng(13)
    for base in (tiny, markov):
        check_trees_match_causal_replay(base, rng, 5)


def cache_bits(cache):
    """The committed context by bit pattern: the tokens and every layer's K/V
    rows ``[:committed_len]``.  Scratch rows past them are not part of it."""
    n = cache.committed_len
    return bits(cache.kv[:, :, :n]).tobytes(), list(cache.tokens), n


@pytest.mark.parametrize("name", ["transformer", "markov2"])
def test_packed_forward_from_a_prior_equals_the_full_forward(tiny, name):
    """A forward of a tree from ``start`` takes the first ``start`` nodes'
    K/V from the tail rows the last forward left, and computes the later
    nodes' rows and the whole tree's spec_state bit for bit as the full-tree
    forward does, leaving the committed context untouched.  The last forward
    is of the whole tree, or of its first nodes as a tree of their own, as
    the dataset build chains its rounds."""
    base = tiny if name == "transformer" else SyntheticMarkovModel(
        order=2, vocab_size=16, seed=2)
    tree, _ = packed_from_tokens([[4, 5, 1, 2], [4, 5, 2, 2], [4, 6, 6, 1], [3, 3, 3, 3]])
    cache = base.new_cache()
    base.forward_context([1, 9, 4, 4, 2], cache)
    before = cache_bits(cache)
    full, full_state = base.forward_packed(tree, cache)
    # spec_state views the tail, which the forwards below rewrite
    full_state = full_state.copy()
    other, _ = packed_from_tokens(np.arange(4)[:, None] + np.full((1, 4), 8))  # 17 nodes
    n = tree.n
    for start in (0, n // 2, n - 1):
        heads = [tree]
        if start:
            heads.append(beam_mod.DraftTree(tree.tokens[:start], tree.parents[:start]))
        for head in heads:
            base.forward_packed(other, cache)  # another tree's K/V in the tail rows
            base.forward_packed(head, cache)
            out, spec_state = base.forward_packed(tree, cache, start)
            where = (start, head.n)
            assert out.logits.shape[0] == out.hidden.shape[0] == n - start
            assert np.array_equal(bits(out.logits), bits(full.logits[start:])), where
            assert np.array_equal(bits(out.hidden), bits(full.hidden[start:])), where
            assert np.array_equal(bits(spec_state), bits(full_state)), where
            assert cache_bits(cache) == before


@pytest.mark.usefixtures("lane")
def test_packed_forwards_are_exact_on_every_lane(tiny, markov):
    """The packed-against-causal, prior and commit checks above, run on each
    kernel lane instead of only the default one."""
    test_packed_forward_matches_causal_replay_per_path(tiny)
    test_beam_search_trees_match_causal_replay_bitwise(tiny, markov)
    test_packed_forward_from_a_prior_equals_the_full_forward(tiny, "transformer")
    test_packed_capacity_is_set_by_the_deepest_node(tiny, markov)
    test_commit_then_forward_matches_fresh_recompute(tiny)


@pytest.mark.parametrize("lane", ["blas"], indirect=True)
def test_beam_search_trees_match_causal_replay_bitwise_at_d128(lane):
    """The tree-against-replay check on a d 128 x 4-layer base, whose w2
    product sums K = 512 terms, with replays of 6-29 rows: where a BLAS gemm
    changes its path with the row count, so a gemm-based lane's rows would
    stop matching, and where a strided row takes another BLAS path."""
    config = ModelConfig(vocab_size=16, d_model=128, n_layers=4, n_heads=4, d_ff=512,
                         max_seq_len=64)
    base = TinyTransformer.random(config, seed=3)
    rng = np.random.default_rng(14)
    for prompt_len in (5, 14, 23):
        check_trees_match_causal_replay(base, rng, prompt_len)


def test_packed_forward_rejects_a_mismatched_prior(tiny, markov):
    """A start outside [0, n) names no prior nodes of the tree, or none to
    compute, and one that is not an integer, such as 1.5, is a ContractError
    too, not a bare TypeError from slicing; the cache does not change."""
    tree, _ = packed_from_tokens([[4, 5], [4, 6]])
    for base in (tiny, markov):
        cache = base.new_cache()
        base.forward_context([1, 2, 3], cache)
        base.forward_packed(tree, cache)
        before = cache_bits(cache)
        for start in (-1, tree.n, tree.n + 1, 1.5):
            with pytest.raises(ContractError, match="start"):
                base.forward_packed(tree, cache, start)
        assert cache_bits(cache) == before


def test_commit_rejects_a_non_path(tiny, markov):
    """commit_accepted takes only a root-to-node path of the packed tree, of
    integer nodes: [0, 1.5] is not truncated to the path [0, 1].  A path is
    1-D with every node in [0, n): a node past the tree, a scalar or a 2-D
    path is a ContractError rather than a bare IndexError or TypeError, and
    [0, -3] does not wrap round to node 1.  The cache does not change."""
    # nodes: 0 root, 1 = 4, 2 = 4 -> 5, 3 = 4 -> 6
    packed, _ = packed_from_tokens(np.array([[4, 5], [4, 6]]))
    for base in (tiny, markov):
        cache = base.new_cache()
        base.forward_context([1, 2, 3], cache)
        _, spec_state = base.forward_packed(packed, cache)
        before = cache_bits(cache)
        # skips a level, not from the root, out of order, not integers, past
        # the tree, a scalar, 2-D, and a negative node
        for bad in ([0, 2], [1, 3], [0, 3, 1], [0, 1.5], np.array([0.0, 1.0]),
                    [0, 7], 0, [[0, 1]], [0, -3]):
            with pytest.raises(ContractError):
                base.commit_accepted(cache, packed, spec_state, bad)
            assert cache_bits(cache) == before
        base.commit_accepted(cache, packed, spec_state, [0, 1, 3])
        assert cache.tokens == [1, 2, 3, ROOT, 4, 6]


def test_commit_path_check_is_the_parent_chain_rule(markov):
    """A path is accepted iff its first node is the root (ROOT_PARENT) and
    each later node's parent is the node before it, on random trees and on
    valid, truncated, shuffled and random paths."""
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        parents = [beam_mod.ROOT_PARENT] + [int(rng.integers(0, i)) for i in range(1, n)]
        tree = beam_mod.DraftTree(rng.integers(0, 16, n), parents)
        node = int(rng.integers(n))
        valid = np.flatnonzero(tree.mask[node])
        for path in (valid, valid[1:], valid[::-1], valid[:-1], np.repeat(valid, 2), [],
                     rng.integers(0, n, int(rng.integers(1, 5)))):
            path = np.asarray(path, dtype=np.int64)
            expect = np.array_equal(tree.parents[path],
                                    np.concatenate(([beam_mod.ROOT_PARENT], path))[:-1])
            try:
                markov._check_path(tree, path)
                accepted = True
            except ContractError:
                accepted = False
            assert accepted == expect, (tree.parents.tolist(), path.tolist())



def test_models_inherit_the_one_forward_and_commit_contract(tiny, markov):
    """The forwards, the commit and the cache, with their checks and cache
    writes, live on BaseModel only; a model supplies its config, its token
    embeddings and its rows, the cache has the layers its config states, and
    the committed length is the committed tokens' count, not a second field
    to keep in step."""
    for cls in (TinyTransformer, SyntheticMarkovModel):
        own = {"forward_context", "forward_packed", "commit_accepted", "new_cache",
               "token_embeddings"} & set(vars(cls))
        assert not own, (cls.__name__, own)
    for base in (tiny, markov):
        cache = base.new_cache()
        assert type(cache) is KvCache
        assert cache.kv.shape[0] == base.config.n_layers  # the config states the cache
        base.forward_context([1, 2], cache)
        with pytest.raises(AttributeError):
            cache.committed_len = 5
        assert cache.committed_len == copy.deepcopy(cache).committed_len == 2

def test_forwards_route_every_product_through_the_traced_kernels(tiny, monkeypatch, lane):
    """A tracer times the layers by wrapping ``kernels.matmul`` and
    ``kernels.attend`` and tells the products apart by the identity of their
    weight operand.  So each forward (a prompt, one row, a tree, a tree from
    a start) makes 4 * n_layers + 1 matmul and n_layers attend calls through
    those module attributes, and every product takes its weight from
    ``weights`` itself: wqkv, wo, w1 and w2 per layer, then w_out.  The
    kernels check nothing, so every call's operands keep their contract:
    float32 2-D matmul operands whose inner dims agree; float32 2-D ``q``,
    ``keys`` and ``vals``, the keys shaped as the values and the heads
    splitting the width; and a mask that is None on the one-row context
    forward, else a boolean (q rows, <= keys) array."""
    calls = []
    for name in ("matmul", "attend"):
        real = getattr(kernels, name)
        monkeypatch.setattr(kernels, name,
                            lambda *args, _name=name, _real=real:
                            calls.append((_name, args)) or _real(*args))
    n_layers, w = SMALL.n_layers, tiny.weights
    named = [w[f"l{i}_{name}"] for i in range(n_layers) for name in ("wqkv", "wo", "w1", "w2")]

    def check_calls(one_row=False):
        weights = [args[1] for name, args in calls if name == "matmul"]
        assert len(weights) == 4 * n_layers + 1
        assert [name for name, _ in calls].count("attend") == n_layers
        assert all(got is want for got, want in zip(weights, named + [w["w_out"]], strict=True))
        for name, args in calls:
            if name == "matmul":
                a, b = args
                assert a.dtype == b.dtype == np.float32 and a.ndim == b.ndim == 2, name
                assert a.shape[1] == b.shape[0], (a.shape, b.shape)
                continue
            q, keys, vals, allowed, n_heads, _ = args
            assert all(x.dtype == np.float32 and x.ndim == 2 for x in (q, keys, vals)), name
            assert keys.shape == vals.shape and q.shape[1] == keys.shape[1], (q.shape, keys.shape)
            assert n_heads >= 1 and q.shape[1] % n_heads == 0, (q.shape, n_heads)
            if one_row:
                assert allowed is None
            else:
                assert allowed.dtype == bool and allowed.ndim == 2, allowed.dtype
                assert allowed.shape[0] == q.shape[0] and allowed.shape[1] <= keys.shape[0]
        calls.clear()

    tree, _ = packed_from_tokens([[4, 5, 1, 2], [4, 6, 6, 1]])
    cache = tiny.new_cache()
    tiny.forward_context([1, 9, 4, 4, 2], cache)
    check_calls()
    tiny.forward_context([3], cache)
    check_calls(one_row=True)
    tiny.forward_packed(tree, cache)
    check_calls()
    tiny.forward_packed(tree, cache, 2)
    check_calls()


def test_forwards_attend_the_cache_buffers_in_place(tiny, monkeypatch):
    """Each layer's attention reads its keys and values straight from the
    cache's K/V array, with no copy of the committed rows: for a prompt, one
    row, a tree and a tree from a start."""
    seen = []
    real = kernels.attend
    monkeypatch.setattr(kernels, "attend", lambda q, keys, vals, *rest:
                        seen.append((keys, vals)) or real(q, keys, vals, *rest))
    tree, _ = packed_from_tokens([[4, 5, 1, 2], [4, 6, 6, 1]])
    cache = tiny.new_cache()

    def check():
        assert len(seen) == SMALL.n_layers
        for layer, (keys, vals) in enumerate(seen):
            assert np.shares_memory(keys, cache.kv[layer, 0]), layer
            assert np.shares_memory(vals, cache.kv[layer, 1]), layer
        seen.clear()

    tiny.forward_context([1, 9, 4, 4, 2], cache)
    check()
    tiny.forward_context([3], cache)
    check()
    tiny.forward_packed(tree, cache)
    check()
    tiny.forward_packed(tree, cache, 2)
    check()


def test_context_forward_never_reads_stale_scratch_rows(tiny, markov):
    """A causal forward right after an uncommitted tree forward equals, bit
    for bit, the same forward on a fresh cache holding the same committed
    tokens: the tree's scratch rows are overwritten or masked, never read."""
    rng = np.random.default_rng(14)
    prompt = rng.integers(0, SMALL.vocab_size, size=6).tolist()
    packed, _ = packed_from_tokens(rng.integers(0, 4, size=(4, 3)))
    for base in (tiny, markov):
        for tokens in ([5], [5, 2, 11]):
            cache, fresh = base.new_cache(), base.new_cache()
            base.forward_context(prompt, cache)
            base.forward_packed(packed, cache)
            base.forward_context(prompt, fresh)
            got, want = base.forward_context(tokens, cache), base.forward_context(tokens, fresh)
            where = (type(base).__name__, tokens)
            assert np.array_equal(bits(got.logits), bits(want.logits)), where
            assert np.array_equal(bits(got.hidden), bits(want.hidden)), where
            assert cache_bits(cache) == cache_bits(fresh), where


def test_random_draws_each_fused_projection_as_three_square_blocks():
    """``TinyTransformer.random`` draws each layer's ``wqkv`` as ``wq``,
    ``wk`` and ``wv`` in turn, (d, d) normals of std 1/sqrt(d) side by side,
    between ``w_out`` or the layer before and the layer's ``wo``: the draws of
    the three when they were stored apart, so every seeded base keeps its
    bits."""
    rng = np.random.default_rng(7)
    d, d_ff, vocab = SMALL.d_model, SMALL.d_ff, SMALL.vocab_size

    def draw(rows, cols, std=None):  # a projection's std is 1/sqrt(its input width)
        std = 1.0 / np.sqrt(rows) if std is None else std
        return rng.normal(0.0, std, (rows, cols)).astype(np.float32)

    want = {"tok_emb": draw(vocab, d, std=1.0), "w_out": draw(d, vocab)}
    for i in range(SMALL.n_layers):
        want[f"l{i}_wqkv"] = np.concatenate([draw(d, d), draw(d, d), draw(d, d)], axis=1)
        want.update({f"l{i}_wo": draw(d, d), f"l{i}_w1": draw(d, d_ff),
                     f"l{i}_w2": draw(d_ff, d)})
    got = TinyTransformer.random(SMALL, seed=7).weights
    for name, arr in want.items():
        assert got[name].shape == arr.shape and np.array_equal(bits(got[name]), bits(arr)), name


def test_transformer_rejects_weights_that_are_not_float32():
    weights = dict(TinyTransformer.random(SMALL, seed=0).weights)
    weights["l1_w2"] = weights["l1_w2"].astype(np.float64)
    with pytest.raises(ShapeError, match="l1_w2: expected float32, got float64"):
        TinyTransformer(SMALL, weights)


def test_markov_rejects_unsupported_order():
    for order in (1, 3):  # the model is order 2 only, and keeps no order knob
        with pytest.raises(ConfigError):
            SyntheticMarkovModel(order=order, vocab_size=8, seed=0)
    assert not hasattr(SyntheticMarkovModel(order=2, vocab_size=8, seed=0), "order")
    with pytest.raises(ConfigError):  # nor does it support a vocab past 256
        SyntheticMarkovModel(order=2, vocab_size=257, seed=0)
    # the config checks the field before the cap compares it
    with pytest.raises(ConfigError, match="vocab_size must be an integer"):
        SyntheticMarkovModel(order=2, vocab_size="32", seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None], ids=["negative", "float", "str", "none"])
@pytest.mark.parametrize("make", [
    lambda seed: SyntheticMarkovModel(order=2, vocab_size=8, seed=seed),
    lambda seed: TinyTransformer.random(SMALL, seed=seed)], ids=["markov", "transformer"])
def test_seeded_bases_refuse_a_seed_that_is_not_a_non_negative_integer(make, seed):
    """The rule ``sample_markov_corpus`` and ``TrainConfig`` apply: an
    integer (numpy's too, with the same draws) and >= 0; anything else is a
    ``ConfigError``, not numpy's ``TypeError`` or ``ValueError``."""
    with pytest.raises(ConfigError, match="seed"):
        make(seed)
    a, b = make(np.int64(3)), make(3)
    assert np.array_equal(bits(a.token_embeddings), bits(b.token_embeddings))
