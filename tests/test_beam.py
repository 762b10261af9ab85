"""Beam search, prefix deduplication, and the packed tree structure."""

import numpy as np
import pytest

from redrafter import beam as beam_mod
from redrafter import drafter
from redrafter.beam import ROOT_PARENT, Beam, beam_search, compression_ratio, dedup_prefix, pack_beam
from redrafter.drafter import DrafterParams
from redrafter.errors import ConfigError


def trie_dedup(tokens):
    """Reference: first candidate owning each prefix, found with a dict trie."""
    tokens = np.asarray(tokens)
    width, length = tokens.shape
    owners = {}
    out = np.zeros((width, length), dtype=np.int64)
    for i in range(width):
        for j in range(length):
            prefix = tuple(tokens[i, :j + 1])
            if prefix not in owners:
                owners[prefix] = i
            out[i, j] = owners[prefix]
    return out


def random_beam(rng, width=None, length=None, vocab=4):
    width = width or int(rng.integers(1, 9))
    length = length or int(rng.integers(1, 7))
    tokens = rng.integers(0, vocab, size=(width, length))
    return Beam(tokens=tokens, logp=-np.sort(rng.random(width)))


def test_dedup_shared_prefix_worked_example():
    tokens = np.array([[91, 92, 93, 95],
                       [91, 92, 94, 96],
                       [91, 92, 93, 97]])
    expect = np.array([[0, 0, 0, 0],
                       [0, 0, 1, 1],
                       [0, 0, 0, 2]])
    assert np.array_equal(dedup_prefix(tokens), expect)


def test_dedup_matches_trie_oracle_on_random_beams():
    rng = np.random.default_rng(0)
    for _ in range(300):
        tokens = random_beam(rng).tokens
        assert np.array_equal(dedup_prefix(tokens), trie_dedup(tokens))


def test_dedup_all_identical_and_all_distinct():
    same = np.zeros((5, 3), dtype=np.int64)
    assert np.array_equal(dedup_prefix(same), np.zeros((5, 3), dtype=np.int64))
    distinct = np.arange(12).reshape(4, 3)
    expect = np.tile(np.arange(4)[:, None], (1, 3))
    assert np.array_equal(dedup_prefix(distinct), expect)


def loop_pack(beam, root):
    """Reference: the rooted tree built one token at a time, with the mask
    filled row by row from each node's parent."""
    tree = trie_dedup(beam.tokens)
    width, length = beam.tokens.shape
    candidate_node = np.zeros((width, length), dtype=np.int64)
    tokens, parents, depths = [root], [ROOT_PARENT], [0]
    for i in range(width):
        for j in range(length):
            if tree[i, j] == i:
                candidate_node[i, j] = len(tokens)
                tokens.append(beam.tokens[i, j])
                parents.append(0 if j == 0 else candidate_node[i, j - 1])
                depths.append(j + 1)
            else:
                candidate_node[i, j] = candidate_node[tree[i, j], j]
    n = len(tokens)
    allowed = np.zeros((n, n), dtype=bool)
    for i in range(n):
        if parents[i] != ROOT_PARENT:
            allowed[i] = allowed[parents[i]]
        allowed[i, i] = True
    return tokens, parents, depths, candidate_node, allowed


def test_pack_matches_loop_reference():
    rng = np.random.default_rng(4)
    beams = [random_beam(rng) for _ in range(300)]
    beams.append(Beam(tokens=np.zeros((1, 0), dtype=np.int64), logp=np.zeros(1)))
    for beam in beams:
        root = int(rng.integers(4))
        packed = pack_beam(beam, root)
        tokens, parents, depths, candidate_node, allowed = loop_pack(beam, root)
        assert packed.tokens.tolist() == tokens
        assert packed.parents.tolist() == parents
        assert packed.depths.tolist() == depths
        assert np.array_equal(packed.candidate_node, candidate_node)
        assert np.array_equal(packed.mask.allowed, allowed)


def test_pack_round_trip_reproduces_every_candidate():
    rng = np.random.default_rng(1)
    for _ in range(300):
        beam = random_beam(rng)
        packed = pack_beam(beam, 5)
        assert packed.tokens[0] == 5
        for i in range(beam.width):
            path = packed.candidate_path(i)
            assert np.array_equal(packed.tokens[path], beam.tokens[i])


def test_pack_structure_invariants():
    rng = np.random.default_rng(2)
    for _ in range(100):
        beam = random_beam(rng)
        packed = pack_beam(beam, 0)
        n = packed.n
        # node 0 is the root; parents precede children, depths follow parents
        assert packed.parents[0] == ROOT_PARENT and packed.depths[0] == 0
        for i in range(1, n):
            parent = packed.parents[i]
            assert 0 <= parent < i
            assert packed.depths[i] == packed.depths[parent] + 1
        # ancestor closure: allowed row i is exactly i's root path
        for i in range(n):
            path = set()
            j = i
            while j != ROOT_PARENT:
                path.add(j)
                j = packed.parents[j]
            assert set(np.flatnonzero(packed.mask.allowed[i])) == path
        # each draft node belongs to the first (candidate, position) holding
        # it, and nodes are numbered in candidate-major order of those owners
        tree = dedup_prefix(beam.tokens)
        owners = {}
        for cand in range(beam.width):
            for pos in range(beam.length):
                owners.setdefault(int(packed.candidate_node[cand, pos]), (cand, pos))
        assert list(owners) == list(range(1, n))
        for idx, (cand, pos) in owners.items():
            assert tree[cand, pos] == cand
            assert packed.depths[idx] == pos + 1


def test_compression_ratio_bounds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        beam = random_beam(rng)
        packed = pack_beam(beam, 0)
        assert compression_ratio(beam, packed) >= 1.0
    same = Beam(tokens=np.tile(np.array([3, 1, 2]), (6, 1)), logp=np.zeros(6))
    packed = pack_beam(same, 0)
    assert compression_ratio(same, packed) == 6.0


def make_drafter(seed=0, d_model=6, vocab=8):
    params = DrafterParams.random(np.random.default_rng(seed), d_model, vocab)
    emb = np.random.default_rng(seed + 1).normal(size=(vocab, d_model))
    return params, emb


def test_beam_search_scores_sorted_and_consistent():
    params, emb = make_drafter()
    h = np.random.default_rng(2).normal(size=params.d_model)
    beam = beam_search(params, emb, h, 1, beam_width=4, beam_length=3)
    assert beam.tokens.shape == (4, 3)
    assert np.all(np.diff(beam.logp) <= 1e-12)
    # each candidate's score is the sum of its per-step log-probabilities
    for row, score in zip(beam.tokens, beam.logp):
        state = drafter.init_state(h, 1, emb)
        total = 0.0
        for t in row:
            total += drafter.head_logp(state, params)[int(t)]
            state = drafter.step(state, int(t), params, emb)
        assert np.isclose(total, score, atol=1e-10)


def test_beam_search_width_one_is_greedy_chain():
    params, emb = make_drafter(4)
    h = np.random.default_rng(5).normal(size=params.d_model)
    beam = beam_search(params, emb, h, 2, beam_width=1, beam_length=4)
    state = drafter.init_state(h, 2, emb)
    for t in beam.tokens[0]:
        assert int(t) == int(np.argmax(drafter.head_logp(state, params)))
        state = drafter.step(state, int(t), params, emb)


def reference_beam_search(params, emb, h, last_token, width, length):
    """Reference: every live candidate expanded over the vocabulary with the
    single-state ``head_logp``/``step``, ranked by score, ties to the lower
    flat (candidate, token) index."""
    live = [([], 0.0, drafter.init_state(h, last_token, emb))]
    for _ in range(length):
        expanded = []
        for r, (toks, score, state) in enumerate(live):
            logp = drafter.head_logp(state, params)
            for t in range(params.vocab_size):
                expanded.append((-(score + logp[t]), r * params.vocab_size + t, toks + [t], state))
        expanded.sort(key=lambda c: c[:2])
        live = [(toks, -neg, drafter.step(state, toks[-1], params, emb))
                for neg, _, toks, state in expanded[:width]]
    return np.array([toks for toks, _, _ in live]), np.array([score for _, score, _ in live])


def test_beam_search_matches_single_state_reference():
    for seed in range(3):
        params, emb = make_drafter(10 + seed)
        rng = np.random.default_rng(20 + seed)
        params.b = rng.normal(0.0, 0.1, params.d_s)  # random init leaves it zero
        h = rng.normal(size=params.d_model)
        for width in range(1, 9):
            for length in range(1, 6):
                beam = beam_search(params, emb, h, seed, width, length)
                tokens, logp = reference_beam_search(params, emb, h, seed, width, length)
                assert np.array_equal(beam.tokens, tokens), (seed, width, length)
                assert np.allclose(beam.logp, logp, rtol=0, atol=1e-10)


def test_beam_search_is_deterministic():
    params, emb = make_drafter(6)
    h = np.random.default_rng(7).normal(size=params.d_model)
    a = beam_search(params, emb, h, 0, 4, 5)
    b = beam_search(params, emb, h, 0, 4, 5)
    assert np.array_equal(a.tokens, b.tokens)
    assert np.array_equal(a.logp, b.logp)


def test_beam_search_config_validation():
    params, emb = make_drafter()
    h = np.zeros(params.d_model)
    with pytest.raises(ConfigError):
        beam_search(params, emb, h, 0, beam_width=params.vocab_size + 1, beam_length=2)
    with pytest.raises(ConfigError):
        beam_search(params, emb, h, 0, beam_width=0, beam_length=2)
