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
    # every forward after the prompt's prefill belongs to a step's report
    assert sum(r.llm_calls for r in reports) == counted.forwards - 1
    assert all(r.compression_ratio >= 1.0 for r in reports)
    assert all(0 <= r.accepted_draft_tokens <= 5 for r in reports)
    # every step contributes its guaranteed token plus the accepted prefix;
    # only the final step may be truncated by the token budget
    full = sum(r.accepted_draft_tokens + 1 for r in reports)
    assert full >= len(spec) > full - (reports[-1].accepted_draft_tokens + 1)


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


def test_corrupted_loop_breaks_equivalence(markov):
    """The self-test hook drops guaranteed tokens; the outputs must diverge.

    The mirror proposer guarantees full acceptance each step, so the corrupted
    loop still terminates; its output is the greedy stream with every sixth
    token missing.
    """
    length = 5
    cfg = DecodeConfig(beam_width=1, beam_length=length, max_new_tokens=18)
    prompt = [2, 11]

    class LazyMirror:
        def __init__(self, base):
            self.base = base
            self.inner = None

        def propose(self, h, last_token, width, length):
            return self.inner.propose(h, last_token, width, length)

    proposer = LazyMirror(markov)
    orig_new_cache = markov.new_cache

    def hooked_new_cache():
        cache = orig_new_cache()
        proposer.inner = MirrorProposer(markov, cache)
        return cache

    markov.new_cache = hooked_new_cache
    try:
        spec, _ = speculative_generate(markov, proposer, prompt, cfg,
                                       _omit_guaranteed=True)
    finally:
        markov.new_cache = orig_new_cache
    reference = autoregressive_generate(markov, prompt, cfg)
    assert spec != reference
    # the corruption removes positions 0, 6, 12, ... of the greedy stream
    expect = [t for i, t in enumerate(reference) if i % (length + 1) != 0]
    assert spec[:len(expect)] == expect


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


def build_verify_case(beam_tokens, verifier_next, guaranteed_next, vocab=8):
    """verifier_next[i] = argmax the base model produces after packed node i."""
    beam = Beam(tokens=np.asarray(beam_tokens), logp=np.zeros(len(beam_tokens)))
    packed = beam_mod.pack_beam(beam, beam_mod.dedup_prefix(beam.tokens))
    logits = one_hot_logits(verifier_next, vocab)
    hidden = np.zeros((packed.n, 4), dtype=np.float32)
    out = BaseModelOutput(logits=logits, hidden=hidden)
    g_logits = one_hot_logits([guaranteed_next], vocab)[0]
    return beam, packed, out, g_logits


def test_verify_accepts_matching_prefix_only():
    # single candidate [3, 4]: the base agrees on 3, then wants 6 over 4
    beam, packed, out, g = build_verify_case([[3, 4]], verifier_next=[6, 0],
                                             guaranteed_next=3)
    result = verify_greedy(out, beam, packed, g)
    assert result.accepted_len == 1
    assert result.chosen_candidate == 0
    assert result.next_guaranteed_token == 6


def test_verify_full_accept_returns_node_argmax():
    beam, packed, out, g = build_verify_case([[3, 4]], verifier_next=[4, 7],
                                             guaranteed_next=3)
    result = verify_greedy(out, beam, packed, g)
    assert result.accepted_len == 2
    assert result.next_guaranteed_token == 7


def test_verify_zero_accept_falls_back_to_guaranteed_argmax():
    beam, packed, out, g = build_verify_case([[3, 4]], verifier_next=[1, 1],
                                             guaranteed_next=5)
    result = verify_greedy(out, beam, packed, g)
    assert result.accepted_len == 0
    assert result.next_guaranteed_token == 5


def test_verify_ties_pick_lower_candidate_index():
    # both candidates accept exactly one token; the first (higher drafter
    # score, lower index) wins the tie
    beam, packed, out, g = build_verify_case(
        [[2, 5], [2, 6]], verifier_next=[7, 0, 0], guaranteed_next=2)
    result = verify_greedy(out, beam, packed, g)
    assert result.accepted_len == 1
    assert result.chosen_candidate == 0


def test_verify_rejects_misaligned_output():
    beam, packed, out, g = build_verify_case([[3, 4]], verifier_next=[1, 1],
                                             guaranteed_next=5)
    bad = BaseModelOutput(logits=out.logits[:1], hidden=out.hidden[:1])
    with pytest.raises(ContractError):
        verify_greedy(bad, beam, packed, g)


# ---------------------------------------------------------------------------
# mirror proposer
# ---------------------------------------------------------------------------

def test_mirror_proposer_accepts_full_beam_every_step(tiny, markov):
    for base in (markov, tiny):
        length = 5
        cfg = DecodeConfig(beam_width=1, beam_length=length,
                           max_new_tokens=3 * (length + 1))

        # the proposer needs the live cache; speculative_generate builds it,
        # so thread it through lazily
        class LazyMirror:
            def __init__(self, base):
                self.base = base
                self.inner = None

            def attach(self, cache):
                self.inner = MirrorProposer(self.base, cache)

            def propose(self, h, last_token, width, length):
                return self.inner.propose(h, last_token, width, length)

        proposer = LazyMirror(base)
        orig_new_cache = base.new_cache

        def hooked_new_cache():
            cache = orig_new_cache()
            proposer.attach(cache)
            return cache

        base.new_cache = hooked_new_cache
        try:
            prompt = [1, 2, 3]
            spec, reports = speculative_generate(base, proposer, prompt, cfg)
            assert spec == autoregressive_generate(base, prompt, cfg)
            assert len(spec) / len(reports) == length + 1
            assert all(r.accepted_draft_tokens == length for r in reports)
        finally:
            base.new_cache = orig_new_cache


def test_mirror_proposer_requires_width_one(markov):
    cache = markov.new_cache()
    markov.forward_context([1, 2], cache)
    proposer = MirrorProposer(markov, cache)
    with pytest.raises(ConfigError):
        proposer.propose(np.zeros(markov.config.d_model), 1, 2, 3)
