"""Decode loop: exact equivalence with greedy decoding, verification rules,
step accounting, stop tokens, and the mirror proposer bound."""

import dataclasses

import numpy as np
import pytest

from redrafter import beam as beam_mod
from redrafter import decode
from redrafter.decode import (DecodeConfig, MirrorProposer, RnnProposer,
                              autoregressive_generate, speculative_generate, verify_greedy)
from redrafter.drafter import DrafterParams
from redrafter.errors import CapacityError, ConfigError, ContractError, ShapeError, VocabError
from redrafter.model import BaseModelOutput, ModelConfig, SyntheticMarkovModel, TinyTransformer

SMALL = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, d_ff=32,
                    max_seq_len=128)


@pytest.fixture(scope="module")
def tiny():
    return TinyTransformer.random(SMALL, seed=0)


@pytest.fixture(scope="module")
def markov():
    return SyntheticMarkovModel(order=2, vocab_size=16, seed=1)


def make_proposer(base, seed=2):
    params = DrafterParams.random(np.random.default_rng(seed),
                                  base.config.d_model, base.config.vocab_size)
    return RnnProposer(params, base.token_embeddings)


def mirror_generate(base, prompt, cfg):
    """speculative_generate with a MirrorProposer over the request's greedy
    stream, decoded with no stop token."""
    stream = autoregressive_generate(base, prompt, dataclasses.replace(cfg, stop_token=None))
    return speculative_generate(base, MirrorProposer(stream), prompt, cfg)


@pytest.mark.parametrize("width,length", [(1, 1), (2, 3), (4, 5)])
def test_output_identical_to_greedy_baseline(tiny, markov, width, length):
    rng = np.random.default_rng(3)
    for base in (tiny, markov):
        proposer = make_proposer(base)
        for _ in range(4):
            prompt = rng.integers(0, base.config.vocab_size, size=6).tolist()
            cfg = DecodeConfig(beam_width=width, beam_length=length, max_new_tokens=20)
            spec, reports = speculative_generate(base, proposer, prompt, cfg)
            assert spec == autoregressive_generate(base, prompt, cfg)
            assert len(spec) == 20
            assert sum(r.accepted_draft_tokens + 1 for r in reports) >= len(spec)


@pytest.mark.usefixtures("lane")
def test_output_identical_to_greedy_baseline_on_every_lane(tiny, markov):
    """The greedy-equivalence check above, run on each kernel lane instead of
    only the default one."""
    for width, length in ((1, 1), (2, 3), (4, 5)):
        test_output_identical_to_greedy_baseline(tiny, markov, width, length)


@pytest.mark.usefixtures("lane")
def test_seeded_fuzz_speculative_equals_greedy_and_steps_account_for_the_stream():
    """Seeded random requests on both bases, on each kernel lane: prompts up
    to the window, ``max_new_tokens`` up to the room left, a stop token from
    the greedy stream half the time, widths up to the vocab and lengths 1-6.
    Every step emits its accepted drafts plus one token, so the steps account
    for the stream exactly, except that a stream cut at its stop token drops
    at most the last step's accepted drafts."""
    window = 40
    bases = (TinyTransformer.random(dataclasses.replace(SMALL, max_seq_len=window), seed=0),
             SyntheticMarkovModel(order=2, vocab_size=16, seed=1, max_seq_len=window))
    rng = np.random.default_rng(26)
    for base in bases:
        proposer = make_proposer(base)
        vocab = base.config.vocab_size
        for _ in range(100):
            prompt = rng.integers(0, vocab, size=rng.integers(1, window)).tolist()
            cfg = DecodeConfig(beam_width=int(rng.integers(1, vocab + 1)),
                               beam_length=int(rng.integers(1, 7)),
                               max_new_tokens=int(rng.integers(1, window - len(prompt) + 1)))
            if rng.random() < 0.5:
                cfg.stop_token = int(rng.choice(autoregressive_generate(base, prompt, cfg)))
            greedy = autoregressive_generate(base, prompt, cfg)
            spec, reports = speculative_generate(base, proposer, prompt, cfg)
            assert spec == greedy, cfg
            surplus = sum(r.accepted_draft_tokens + 1 for r in reports) - len(spec)
            if cfg.stop_token is not None and spec[-1] == cfg.stop_token:
                assert 0 <= surplus <= reports[-1].accepted_draft_tokens, cfg
            else:
                assert surplus == 0, cfg


def test_drafter_sees_last_committed_hidden_state_and_guaranteed_token(tiny, markov):
    """Each proposal conditions on the base hidden state at the last committed
    token and starts from the guaranteed token that follows it."""
    for base in (markov, tiny):
        inner = make_proposer(base)
        calls = []

        class Recording:
            def propose(self, h, last_token, width, length):
                calls.append((h.copy(), last_token))
                return inner.propose(h, last_token, width, length)

        prompt = [5, 9, 2]
        cfg = DecodeConfig(beam_width=2, beam_length=3, max_new_tokens=16)
        spec, reports = speculative_generate(base, Recording(), prompt, cfg)
        assert spec == autoregressive_generate(base, prompt, cfg)
        committed = 0
        for (h, last_token), report in zip(calls, reports):
            replay = base.forward_context(prompt + spec[:committed], base.new_cache())
            assert last_token == spec[committed]
            assert np.max(np.abs(h - replay.hidden[-1])) <= 1e-5
            committed += report.accepted_draft_tokens + 1


def test_degenerate_width_and_length_one(markov):
    cfg = DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=12)
    prompt = [5, 9]
    spec, reports = speculative_generate(markov, make_proposer(markov), prompt, cfg)
    assert spec == autoregressive_generate(markov, prompt, cfg)
    tps = len(spec) / len(reports)
    assert 1.0 <= tps <= 2.0


class CountingBase:
    """Delegates to a base model and counts its forwards."""

    def __init__(self, base):
        self.base = base
        self.forwards = 0

    def __getattr__(self, name):
        return getattr(self.base, name)

    def forward_context(self, tokens, cache):
        self.forwards += 1
        return self.base.forward_context(tokens, cache)

    def forward_packed(self, packed, cache):
        self.forwards += 1
        return self.base.forward_packed(packed, cache)


def test_step_reports_account_for_emitted_tokens(markov):
    cfg = DecodeConfig(beam_width=4, beam_length=5, max_new_tokens=24)
    counted = CountingBase(markov)
    spec, reports = speculative_generate(counted, make_proposer(markov), [1, 2], cfg)
    # the prompt's prefill, then one base forward per step, except a final
    # step that emits its guaranteed token alone
    assert all(r.llm_calls == 1 for r in reports[:-1])
    last = reports[-1]
    assert last.llm_calls == 1 or (last.llm_calls, last.accepted_draft_tokens,
                                   last.packed_size) == (0, 0, 1)
    assert counted.forwards == sum(r.llm_calls for r in reports) + 1
    assert all(r.compression_ratio >= 1.0 for r in reports)
    assert all(0 <= r.accepted_draft_tokens <= 5 for r in reports)
    # every step emits its guaranteed token plus the accepted prefix; drafts
    # are clamped to the tokens still wanted, so nothing is cut off
    assert sum(r.accepted_draft_tokens + 1 for r in reports) == len(spec) == 24


def test_final_guaranteed_token_needs_no_forward(tiny, markov):
    """With one token still wanted, the step emits its guaranteed token
    without a base forward (a root-only verify would yield only the token
    after it) and reports llm_calls 0; the stream still equals greedy, also
    when that last token is the stop token."""
    length = 3
    new_tokens = 2 * (length + 1) + 1  # two full steps, then the one token still wanted
    for base in (markov, tiny):
        rng = np.random.default_rng(11)
        while True:  # a prompt whose last greedy token appears nowhere before it
            prompt = rng.integers(0, base.config.vocab_size, size=4).tolist()
            stream = autoregressive_generate(base, prompt, DecodeConfig(1, 1, new_tokens))
            if stream[-1] not in stream[:-1]:
                break
        for stop in (None, stream[-1]):
            cfg = DecodeConfig(beam_width=1, beam_length=length, max_new_tokens=new_tokens,
                               stop_token=stop)
            counted = CountingBase(base)
            spec, reports = speculative_generate(counted, MirrorProposer(stream), prompt, cfg)
            assert spec == stream == autoregressive_generate(base, prompt, cfg)
            assert reports[-1] == decode.StepReport(accepted_draft_tokens=0, packed_size=1,
                                                    compression_ratio=1.0, llm_calls=0)
            assert [r.llm_calls for r in reports] == [1, 1, 0]
            # the prefill and the two verifying steps, no root-only verify
            assert counted.forwards == 3 == 1 + sum(r.llm_calls for r in reports)


def test_rnn_steps_call_neither_dedup_nor_pack(tiny, markov, monkeypatch):
    """The beam's backpointers give the tree: no step deduplicates or packs."""
    calls = []
    monkeypatch.setattr(beam_mod, "dedup_prefix", lambda *a: calls.append("dedup_prefix"))
    monkeypatch.setattr(beam_mod, "pack_beam", lambda *a: calls.append("pack_beam"))
    for base in (markov, tiny):
        cfg = DecodeConfig(beam_width=4, beam_length=4, max_new_tokens=20)
        spec, reports = speculative_generate(base, make_proposer(base), [1, 2], cfg)
        assert spec == autoregressive_generate(base, [1, 2], cfg)
        assert len(reports) > 1 and not calls
        # at most width + length draft nodes below the root
        assert max(r.packed_size for r in reports) == 1 + 4 + 4


def test_proposal_must_be_rooted_at_the_guaranteed_token(markov):
    class Misrooted:
        def propose(self, h, last_token, width, length):
            return beam_mod.chain_tree((last_token + 1) % 16, [0] * length)

    cfg = DecodeConfig(beam_width=1, beam_length=2, max_new_tokens=8)
    with pytest.raises(ContractError):
        speculative_generate(markov, Misrooted(), [1, 2], cfg)


def test_proposal_deeper_than_asked_is_a_contract_error(markov):
    """A tree deeper than the length the loop asked for would emit more than
    max_new_tokens; it is refused before its forward, naming both depths."""
    prompt = [1, 2]
    stream = autoregressive_generate(markov, prompt, DecodeConfig(1, 1, 20))

    class Overdrafting(MirrorProposer):
        def propose(self, h, last_token, width, length):
            return super().propose(h, last_token, width, 6)

    counted = CountingBase(markov)
    cfg = DecodeConfig(beam_width=1, beam_length=2, max_new_tokens=5)
    with pytest.raises(ContractError, match="tree is 6 deep, deeper than the 2 asked for"):
        speculative_generate(counted, Overdrafting(stream), prompt, cfg)
    assert counted.forwards == 1  # the prefill only


def test_proposer_rejects_a_drafter_that_does_not_fit_the_base(markov):
    """The embedding table must be the drafter's (vocab, d_s); a head wider
    than 2 * d_s, which would expect a wider hidden state, cannot be built."""
    rng = np.random.default_rng(4)
    for d_model, vocab in ((32, 8), (16, 16)):  # wrong vocab, wrong width
        with pytest.raises(ShapeError):
            RnnProposer(DrafterParams.random(rng, d_model, vocab), markov.token_embeddings)
    fits = DrafterParams.random(rng, 32, 16)
    with pytest.raises(ShapeError):  # d_s 32 fits the table, a hidden width of 48 does not
        DrafterParams(u=fits.u, w=fits.w, b=fits.b, out_proj=np.zeros((16, 80)))
    RnnProposer(fits, markov.token_embeddings)


def test_stop_token_truncates_inclusively(markov):
    long_cfg = DecodeConfig(beam_width=2, beam_length=3, max_new_tokens=40)
    prompt = [3, 7]
    reference = autoregressive_generate(markov, prompt, long_cfg)
    stop = reference[10]
    cfg = DecodeConfig(beam_width=2, beam_length=3, max_new_tokens=40, stop_token=stop)
    spec, _ = speculative_generate(markov, make_proposer(markov), prompt, cfg)
    assert spec == autoregressive_generate(markov, prompt, cfg)
    assert spec[-1] == stop
    assert stop not in spec[:-1]


def test_stop_token_inside_an_accepted_path(markov):
    """The stream ends at the stop token even when the step accepted past it."""
    prompt = [3, 7]
    full_cfg = DecodeConfig(beam_width=1, beam_length=5, max_new_tokens=18)
    reference = autoregressive_generate(markov, prompt, full_cfg)
    # the mirror accepts all 5 drafts, so stream positions 7..10 are draft
    # tokens inside the second step's accepted path
    stop_at = next(i for i in range(7, 11) if reference[i] not in reference[:i])
    cfg = DecodeConfig(beam_width=1, beam_length=5, max_new_tokens=18,
                       stop_token=reference[stop_at])
    spec, reports = mirror_generate(markov, prompt, cfg)
    assert spec == reference[:stop_at + 1] == autoregressive_generate(markov, prompt, cfg)
    assert [r.accepted_draft_tokens for r in reports] == [5, 5]


def test_duplicate_candidates_share_one_path(markov, monkeypatch):
    """A candidate list wider than its distinct candidates, packed by the
    proposer, keeps each prefix once, and the accepted path runs down it."""
    inner = make_proposer(markov)

    class Duplicating:
        def propose(self, h, last_token, width, length):
            chain = beam_mod.beam_search(inner.params, inner.embeddings, h, last_token,
                                         1, length, inner.token_term).tokens
            return beam_mod.pack_beam(np.repeat(chain.T, width, axis=0), last_token)[0]

    results = []
    verify = decode.verify_greedy
    monkeypatch.setattr(decode, "verify_greedy",
                        lambda out, tree: results.append(verify(out, tree)) or results[-1])
    prompt = [4, 9]
    cfg = DecodeConfig(beam_width=4, beam_length=3, max_new_tokens=20)
    spec, reports = speculative_generate(markov, Duplicating(), prompt, cfg)
    assert spec == autoregressive_generate(markov, prompt, cfg)
    # the shared chain's nodes are numbered down from the root
    assert [path.tolist() for _, path in results] == [list(range(path.size)) for _, path in results]
    # the root plus one node per draft position, each shared by all 4 rows
    assert reports[0].packed_size == 4
    assert all(r.packed_size <= 4 for r in reports)
    assert all(r.compression_ratio == 4.0 for r in reports if r.packed_size > 1)


def test_empty_prompt_rejected(markov):
    cfg = DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=4)
    with pytest.raises(ContractError):
        speculative_generate(markov, make_proposer(markov), [], cfg)
    with pytest.raises(ContractError):
        autoregressive_generate(markov, [], cfg)


@pytest.mark.parametrize("prompt, error", [([3.9, 1.2], VocabError), (5, ShapeError),
                                           ([[1, 2]], ShapeError), ([[1], [2, 3]], ShapeError)],
                         ids=["float-list", "scalar", "nested", "ragged"])
def test_malformed_prompt_is_a_typed_error(prompt, error, tiny, markov):
    cfg = DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=3)
    for base in (tiny, markov):
        with pytest.raises(error):
            speculative_generate(base, make_proposer(base), prompt, cfg)
        with pytest.raises(error):
            autoregressive_generate(base, prompt, cfg)


@pytest.mark.parametrize("stop", [-1, SMALL.vocab_size, 999])
def test_stop_token_outside_the_vocab_is_a_vocab_error(stop, tiny, markov):
    """A stop token that can never be emitted is refused, not ignored."""
    cfg = DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=3, stop_token=stop)
    for base in (tiny, markov):
        with pytest.raises(VocabError, match=f"stop token {stop} outside vocab"):
            speculative_generate(base, make_proposer(base), [1, 2], cfg)
        with pytest.raises(VocabError, match=f"stop token {stop} outside vocab"):
            autoregressive_generate(base, [1, 2], cfg)


def test_capacity_overflow_rejected(tiny):
    cfg = DecodeConfig(beam_width=1, beam_length=1,
                       max_new_tokens=SMALL.max_seq_len)
    with pytest.raises(CapacityError):
        speculative_generate(tiny, make_proposer(tiny), [0, 1], cfg)
    with pytest.raises(CapacityError):
        autoregressive_generate(tiny, [0, 1], cfg)


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_request_filling_the_context_window_decodes(width):
    """prompt + max_new_tokens == max_seq_len fits, so it must decode exactly.

    Drafts are clamped to the tokens still wanted, so no step's tree reaches
    past the window, whatever the beam length.
    """
    window = 40
    tiny = TinyTransformer.random(ModelConfig(vocab_size=16, d_model=16, n_layers=2,
                                              n_heads=2, d_ff=32, max_seq_len=window), seed=0)
    markov = SyntheticMarkovModel(order=2, vocab_size=16, seed=1, max_seq_len=window)
    rng = np.random.default_rng(5)
    for base in (tiny, markov):
        proposer = make_proposer(base)
        for length in (2, 4, 5):
            for _ in range(3):
                prompt = rng.integers(0, 16, size=8).tolist()
                cfg = DecodeConfig(beam_width=width, beam_length=length,
                                   max_new_tokens=window - len(prompt))
                spec, reports = speculative_generate(base, proposer, prompt, cfg)
                assert spec == autoregressive_generate(base, prompt, cfg)
                assert len(spec) == sum(r.accepted_draft_tokens + 1 for r in reports)


def test_mirror_request_filling_the_context_window_accepts_to_the_end():
    """Full acceptance right up to the window: the last step's draft is cut
    to the one token still wanted after its root."""
    window = 40
    markov = SyntheticMarkovModel(order=2, vocab_size=16, seed=1, max_seq_len=window)
    prompt = list(range(8))
    cfg = DecodeConfig(beam_width=1, beam_length=5, max_new_tokens=window - len(prompt))
    spec, reports = mirror_generate(markov, prompt, cfg)
    assert spec == autoregressive_generate(markov, prompt, cfg)
    # 32 tokens = five steps of 6, then a root plus one draft token
    assert [r.accepted_draft_tokens for r in reports] == [5, 5, 5, 5, 5, 1]
    assert reports[-1].packed_size == 2


def test_decode_config_validation():
    with pytest.raises(ConfigError):
        DecodeConfig(beam_width=0, beam_length=1, max_new_tokens=1)
    with pytest.raises(ConfigError):
        DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=0)


# ---------------------------------------------------------------------------
# verification rule in isolation
# ---------------------------------------------------------------------------

def one_hot_logits(tokens, vocab):
    out = np.full((len(tokens), vocab), -5.0, dtype=np.float32)
    for i, t in enumerate(tokens):
        out[i, t] = 5.0
    return out


def build_verify_case(beam_tokens, verifier_next, vocab=8):
    """verifier_next[i] = argmax the base model produces after tree node i;
    node 0 is the root (the guaranteed token), draft nodes follow."""
    tokens = np.asarray(beam_tokens, dtype=np.int64).reshape(len(beam_tokens), -1)
    tree, _ = beam_mod.pack_beam(tokens, root=1)
    logits = one_hot_logits(verifier_next, vocab)
    hidden = np.zeros((tree.n, 4), dtype=np.float32)
    return tree, BaseModelOutput(logits=logits, hidden=hidden)


def test_verify_accepts_matching_prefix_only():
    # single candidate [3, 4]: the base agrees on 3, then wants 6 over 4
    tree, out = build_verify_case([[3, 4]], verifier_next=[3, 6, 0])
    token, path = verify_greedy(out, tree)
    assert path.tolist() == [0, 1]
    assert token == 6


def test_verify_full_accept_returns_node_argmax():
    tree, out = build_verify_case([[3, 4]], verifier_next=[3, 4, 7])
    token, path = verify_greedy(out, tree)
    assert path.tolist() == [0, 1, 2]
    assert token == 7


def test_verify_zero_accept_falls_back_to_guaranteed_argmax():
    tree, out = build_verify_case([[3, 4]], verifier_next=[5, 1, 1])
    token, path = verify_greedy(out, tree)
    assert path.tolist() == [0]
    assert token == 5
    # a tree that is the root alone accepts nothing and reads the root's argmax
    tree, out = build_verify_case([[]], verifier_next=[6])
    token, path = verify_greedy(out, tree)
    assert (tree.n, path.tolist(), token) == (1, [0], 6)


def test_verify_accepts_the_deepest_matching_node():
    # nodes: 0 root, 1 = 2, 2 = 2 -> 5, 3 = 2 -> 6; a shared prefix is one node
    tree, out = build_verify_case([[2, 5], [2, 6]], verifier_next=[2, 7, 0, 0])
    _, path = verify_greedy(out, tree)
    assert path.tolist() == [0, 1]
    # the base wants 6 after 2: the second candidate's branch goes deeper
    tree, out = build_verify_case([[2, 5], [2, 6]], verifier_next=[2, 6, 0, 3])
    token, path = verify_greedy(out, tree)
    assert path.tolist() == [0, 1, 3]
    assert token == 3
    # a matching token below a mismatch is not accepted: node 3 (6 under 4)
    # matches its parent's argmax, but node 1 (4) does not match the root's
    tree = beam_mod.DraftTree.from_parents([1, 4, 2, 6], [beam_mod.ROOT_PARENT, 0, 0, 1])
    out = BaseModelOutput(logits=one_hot_logits([2, 6, 0, 0], 8),
                          hidden=np.zeros((4, 4), np.float32))
    token, path = verify_greedy(out, tree)
    assert (path.tolist(), token) == ([0, 2], 0)


def walk_verify(logits, tokens, parents):
    """Reference: each node's root path found by walking its parents; the
    deepest node whose every draft token is the lowest-index maximum of its
    parent's logits, the lowest such node among equals.  Returns that path,
    root first, and the lowest-index maximum of the node's logits."""
    top = [int(np.flatnonzero(row == row.max())[0]) for row in logits]
    best = [0]
    for i in range(len(tokens)):
        path = [i]
        while parents[path[0]] != beam_mod.ROOT_PARENT:
            path.insert(0, parents[path[0]])
        if len(path) > len(best) and all(tokens[j] == top[parents[j]] for j in path[1:]):
            best = path
    return best, top[best[-1]]


def test_verify_matches_a_parents_walk_on_random_trees():
    """Random parents, root-only trees, flat wide trees and chains; logits of
    a few integer values, so rows hold tied maxima, and draft tokens drawn
    mostly from their parent's tied maxima, of which only the lowest-index
    one matches."""
    rng = np.random.default_rng(21)
    vocab = 4
    deepest = 0
    for trial in range(600):
        shape = ("random", "root", "wide", "chain")[trial % 4]
        n = 1 if shape == "root" else int(rng.integers(2, 14))
        parents = [beam_mod.ROOT_PARENT] + [
            {"random": int(rng.integers(0, i)), "wide": 0, "chain": i - 1}[shape]
            for i in range(1, n)]
        logits = rng.integers(0, 3, size=(n, vocab)).astype(np.float32)
        tokens = [int(rng.integers(vocab))]
        for i in range(1, n):
            row = logits[parents[i]]
            tied = np.flatnonzero(row == row.max())
            tokens.append(int(rng.choice(tied) if rng.random() < 0.8 else rng.integers(vocab)))
        tree = beam_mod.DraftTree.from_parents(tokens, parents)
        out = BaseModelOutput(logits=logits, hidden=np.zeros((n, 4), np.float32))
        token, path = verify_greedy(out, tree)
        want_path, want_token = walk_verify(logits, tokens, parents)
        assert path.dtype == np.int64
        assert (path.tolist(), token) == (want_path, want_token), (trial, parents, tokens)
        deepest = max(deepest, len(path) - 1)
    assert deepest >= 4


def test_verify_rejects_misaligned_output():
    tree, out = build_verify_case([[3, 4]], verifier_next=[5, 1, 1])
    bad = BaseModelOutput(logits=out.logits[:2], hidden=out.hidden[:2])
    with pytest.raises(ContractError):
        verify_greedy(bad, tree)


# ---------------------------------------------------------------------------
# mirror proposer
# ---------------------------------------------------------------------------

def test_mirror_proposer_accepts_full_beam_every_step(tiny, markov):
    for base in (markov, tiny):
        length = 5
        cfg = DecodeConfig(beam_width=1, beam_length=length,
                           max_new_tokens=3 * (length + 1))
        prompt = [1, 2, 3]
        spec, reports = mirror_generate(base, prompt, cfg)
        assert spec == autoregressive_generate(base, prompt, cfg)
        assert len(spec) / len(reports) == length + 1
        assert all(r.accepted_draft_tokens == length for r in reports)


def test_mirror_proposer_rolls_out_after_the_guaranteed_token(markov):
    stream = autoregressive_generate(markov, [1, 2], DecodeConfig(beam_width=1, beam_length=1,
                                                                  max_new_tokens=8))
    proposer = MirrorProposer(stream)
    h = np.zeros(markov.config.d_model)
    proposal = proposer.propose(h, stream[0], 1, 3)
    assert proposal.tokens.tolist() == stream[:4]
    assert proposal.parents.tolist() == [beam_mod.ROOT_PARENT, 0, 1, 2]  # one chain
    # the next step starts after the accepted drafts; its drafts end with the stream
    assert proposer.propose(h, stream[4], 1, 5).tokens.tolist() == stream[4:]
    with pytest.raises(ContractError):  # a guaranteed token the stream does not hold
        proposer.propose(h, stream[0], 1, 1)


def test_mirror_proposer_requires_width_one(markov):
    with pytest.raises(ConfigError):
        MirrorProposer([1, 2, 3]).propose(np.zeros(markov.config.d_model), 1, 2, 3)
