"""Decode loop: exact equivalence with greedy decoding, verification rules,
step accounting, stop tokens, and the mirror proposer bound."""

import numpy as np
import pytest

from redrafter import beam as beam_mod
from redrafter import decode
from redrafter.beam import Beam
from redrafter.decode import (DecodeConfig, MirrorProposer, RnnProposer,
                              autoregressive_generate, speculative_generate, verify_greedy)
from redrafter.drafter import DrafterParams
from redrafter.errors import CapacityError, ConfigError, ContractError
from redrafter.model import BaseModelOutput, ModelConfig, TinyTransformer, synthetic_markov_model

SMALL = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, d_ff=32,
                    max_seq_len=128)


@pytest.fixture(scope="module")
def tiny():
    return TinyTransformer.random(SMALL, seed=0)


@pytest.fixture(scope="module")
def markov():
    return synthetic_markov_model(order=2, vocab_size=16, seed=1)


def make_proposer(base, seed=2):
    params = DrafterParams.random(np.random.default_rng(seed),
                                  base.config.d_model, base.config.vocab_size)
    return RnnProposer(params, base.token_embeddings)


def mirror_generate(base, prompt, cfg, **kwargs):
    """speculative_generate with a MirrorProposer on the decode's own cache.

    The proposer needs the live cache, which speculative_generate builds, so
    it is bound when the decode creates it.
    """
    class LazyMirror:
        inner = None

        def propose(self, h, last_token, width, length):
            return self.inner.propose(h, last_token, width, length)

    proposer = LazyMirror()
    new_cache = base.new_cache

    def hooked_new_cache():
        cache = new_cache()
        proposer.inner = MirrorProposer(base, cache)
        return cache

    base.new_cache = hooked_new_cache
    try:
        return speculative_generate(base, proposer, prompt, cfg, **kwargs)
    finally:
        del base.new_cache


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
    # the prompt's prefill, then exactly one base forward per step
    assert all(r.llm_calls == 1 for r in reports)
    assert counted.forwards == len(reports) + 1
    assert all(r.compression_ratio >= 1.0 for r in reports)
    assert all(0 <= r.accepted_draft_tokens <= 5 for r in reports)
    # every step emits its guaranteed token plus the accepted prefix; drafts
    # are clamped to the tokens still wanted, so nothing is cut off
    assert sum(r.accepted_draft_tokens + 1 for r in reports) == len(spec) == 24


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
            beam = beam_mod.beam_search(inner.params, inner.embeddings, h, last_token,
                                        1, length).candidates()
            return beam_mod.pack_beam(Beam(tokens=np.repeat(beam.tokens, width, axis=0),
                                           logp=np.repeat(beam.logp, width)), last_token)

    results = []
    verify = decode.verify_greedy
    monkeypatch.setattr(decode, "verify_greedy",
                        lambda out, tree: results.append(verify(out, tree)) or results[-1])
    prompt = [4, 9]
    cfg = DecodeConfig(beam_width=4, beam_length=3, max_new_tokens=20)
    spec, reports = speculative_generate(markov, Duplicating(), prompt, cfg)
    assert spec == autoregressive_generate(markov, prompt, cfg)
    # the shared chain's nodes are numbered down from the root
    assert [r.path.tolist() for r in results] == [list(range(r.accepted_len + 1))
                                                  for r in results]
    # the root plus one node per draft position, each shared by all 4 rows
    assert reports[0].packed_size == 4
    assert all(r.packed_size <= 4 for r in reports)
    assert all(r.compression_ratio == 4.0 for r in reports if r.packed_size > 1)


def test_corrupted_loop_breaks_equivalence(markov):
    """The self-test hook drops guaranteed tokens; the outputs must diverge.

    The mirror proposer guarantees full acceptance each step, so the corrupted
    loop still terminates; its output is the greedy stream with every sixth
    token missing.
    """
    length = 5
    cfg = DecodeConfig(beam_width=1, beam_length=length, max_new_tokens=18)
    prompt = [2, 11]
    spec, reports = mirror_generate(markov, prompt, cfg, _omit_guaranteed=True)
    reference = autoregressive_generate(markov, prompt, cfg)
    assert spec != reference
    # the corruption removes positions 0, 6, 12 of the greedy stream
    assert spec == [t for i, t in enumerate(reference) if i % (length + 1) != 0]
    assert len(reports) == 3


def test_empty_prompt_rejected(markov):
    cfg = DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=4)
    with pytest.raises(ContractError):
        speculative_generate(markov, make_proposer(markov), [], cfg)
    with pytest.raises(ContractError):
        autoregressive_generate(markov, [], cfg)


def test_capacity_overflow_rejected(tiny):
    cfg = DecodeConfig(beam_width=1, beam_length=1,
                       max_new_tokens=SMALL.max_seq_len)
    with pytest.raises(CapacityError):
        speculative_generate(tiny, make_proposer(tiny), [0, 1], cfg)


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_request_filling_the_context_window_decodes(width):
    """prompt + max_new_tokens == max_seq_len fits, so it must decode exactly.

    Drafts are clamped to the tokens still wanted, so no step's tree reaches
    past the window, whatever the beam length.
    """
    window = 40
    tiny = TinyTransformer.random(ModelConfig(vocab_size=16, d_model=16, n_layers=2,
                                              n_heads=2, d_ff=32, max_seq_len=window), seed=0)
    markov = synthetic_markov_model(order=2, vocab_size=16, seed=1, max_seq_len=window)
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
    markov = synthetic_markov_model(order=2, vocab_size=16, seed=1, max_seq_len=window)
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
    tree = beam_mod.pack_beam(Beam(tokens=tokens, logp=np.zeros(len(beam_tokens))), root=1)
    logits = one_hot_logits(verifier_next, vocab)
    hidden = np.zeros((tree.n, 4), dtype=np.float32)
    return tree, BaseModelOutput(logits=logits, hidden=hidden)


def test_verify_accepts_matching_prefix_only():
    # single candidate [3, 4]: the base agrees on 3, then wants 6 over 4
    tree, out = build_verify_case([[3, 4]], verifier_next=[3, 6, 0])
    result = verify_greedy(out, tree)
    assert result.accepted_len == 1
    assert result.path.tolist() == [0, 1]
    assert result.next_guaranteed_token == 6


def test_verify_full_accept_returns_node_argmax():
    tree, out = build_verify_case([[3, 4]], verifier_next=[3, 4, 7])
    result = verify_greedy(out, tree)
    assert result.accepted_len == 2
    assert result.path.tolist() == [0, 1, 2]
    assert result.next_guaranteed_token == 7


def test_verify_zero_accept_falls_back_to_guaranteed_argmax():
    tree, out = build_verify_case([[3, 4]], verifier_next=[5, 1, 1])
    result = verify_greedy(out, tree)
    assert result.accepted_len == 0
    assert result.path.tolist() == [0]
    assert result.next_guaranteed_token == 5
    # a tree that is the root alone accepts nothing and reads the root's argmax
    tree, out = build_verify_case([[]], verifier_next=[6])
    result = verify_greedy(out, tree)
    assert (tree.n, result.accepted_len, result.next_guaranteed_token) == (1, 0, 6)


def test_verify_accepts_the_deepest_matching_node():
    # nodes: 0 root, 1 = 2, 2 = 2 -> 5, 3 = 2 -> 6; a shared prefix is one node
    tree, out = build_verify_case([[2, 5], [2, 6]], verifier_next=[2, 7, 0, 0])
    result = verify_greedy(out, tree)
    assert (result.accepted_len, result.path.tolist()) == (1, [0, 1])
    # the base wants 6 after 2: the second candidate's branch goes deeper
    tree, out = build_verify_case([[2, 5], [2, 6]], verifier_next=[2, 6, 0, 3])
    result = verify_greedy(out, tree)
    assert (result.accepted_len, result.path.tolist()) == (2, [0, 1, 3])
    assert result.next_guaranteed_token == 3
    # a matching token below a mismatch is not accepted: node 3 (6 under 4)
    # matches its parent's argmax, but node 1 (4) does not match the root's
    tree = beam_mod.DraftTree.from_parents([1, 4, 2, 6], [beam_mod.ROOT_PARENT, 0, 0, 1])
    out = BaseModelOutput(logits=one_hot_logits([2, 6, 0, 0], 8),
                          hidden=np.zeros((4, 4), np.float32))
    result = verify_greedy(out, tree)
    assert (result.accepted_len, result.path.tolist(), result.next_guaranteed_token) == \
        (1, [0, 2], 0)


def test_verify_warns_on_near_ties_along_the_accepted_path(caplog):
    # path: root (node 0) then node 1; node 2 is off the path
    tree, out = build_verify_case([[3, 4]], verifier_next=[3, 6, 0])
    with caplog.at_level("WARNING", logger="redrafter.decode"):
        result = verify_greedy(out, tree)
    assert result.path.tolist() == [0, 1]
    assert not caplog.records  # clear margins
    out.logits[2, 5] = out.logits[2, 0]  # a tie off the path is not checked
    with caplog.at_level("WARNING", logger="redrafter.decode"):
        verify_greedy(out, tree)
    assert not caplog.records
    out.logits[1, 7] = out.logits[1, 6] - np.float32(decode.NEAR_TIE_GAP / 2)
    with caplog.at_level("WARNING", logger="redrafter.decode"):
        result = verify_greedy(out, tree)
    assert result.next_guaranteed_token == 6
    assert len(caplog.records) == 1 and "near-tie" in caplog.records[0].getMessage()


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
    prompt = [1, 2]
    cache = markov.new_cache()
    out = markov.forward_context(prompt, cache)
    guaranteed = int(np.argmax(out.logits[-1]))
    proposer = MirrorProposer(markov, cache)
    proposal = proposer.propose(out.hidden[-1], guaranteed, 1, 3)
    cfg = DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=4)
    assert proposal.tokens.tolist() == autoregressive_generate(markov, prompt, cfg)
    assert proposal.parents.tolist() == [beam_mod.ROOT_PARENT, 0, 1, 2]  # one chain
    assert (cache.committed_len, cache.tokens) == (2, prompt)  # the live cache is untouched


def test_mirror_proposer_requires_width_one(markov):
    cache = markov.new_cache()
    markov.forward_context([1, 2], cache)
    proposer = MirrorProposer(markov, cache)
    with pytest.raises(ConfigError):
        proposer.propose(np.zeros(markov.config.d_model), 1, 2, 3)
