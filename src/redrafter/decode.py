"""Speculative decoding loop: one tree-masked verification forward of the
base model per step, greedily accepting the longest draft prefix that matches
the base model's own argmax choices.

Each step's tree is rooted at the step's guaranteed token (the base model's
argmax after the committed context), which sits at the next absolute
position; the draft candidates hang below it.  The root's logits verify the
depth-1 drafts, each draft node's logits verify its children, and the node
that ends the accepted path yields the next step's guaranteed token.  The
step commits the root plus the accepted path, and the next step's drafter
conditions on the hidden state of the last committed node together with the
embedding of the next guaranteed token.  The prompt's prefill seeds the
first step the same way.

Acceptance is strictly token-match (temperature 0), so the emitted stream is
exactly the autoregressive greedy stream: every accepted token is, by
construction, the argmax the base model would have produced at that position,
and the step always ends with the base model's own next token.
"""

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import beam as beam_mod
from .errors import CapacityError, ConfigError, ContractError
from .kernels import argmax_tie_low

log = logging.getLogger(__name__)

NEAR_TIE_GAP = 1e-6


@dataclass
class DecodeConfig:
    beam_width: int
    beam_length: int
    max_new_tokens: int
    stop_token: Optional[int] = None

    def __post_init__(self):
        if self.beam_width < 1 or self.beam_length < 1 or self.max_new_tokens < 1:
            raise ConfigError("beam_width, beam_length and max_new_tokens must be >= 1")


@dataclass
class StepReport:
    """What one decode step did.  ``llm_calls`` counts the base-model
    forwards the step made."""

    accepted_draft_tokens: int
    chosen_candidate: int
    packed_size: int
    compression_ratio: float
    llm_calls: int


@dataclass
class VerifyResult:
    chosen_candidate: int
    accepted_len: int
    next_guaranteed_token: int
    path: np.ndarray  # packed nodes to commit: the root, then the accepted drafts


class RnnProposer:
    """Default proposer: beam search over the trained recurrent draft head."""

    def __init__(self, params, embeddings):
        self.params = params
        self.embeddings = embeddings

    def propose(self, h, last_token, beam_width, beam_length):
        return beam_mod.beam_search(self.params, self.embeddings, h, last_token,
                                    beam_width, beam_length)


class MirrorProposer:
    """Diagnostic proposer that replays the base model's own greedy rollout.

    Upper bound for acceptance: every proposed token matches the verifier, so
    each step accepts the full beam length.  Width-1 only.
    """

    def __init__(self, base, cache):
        self.base = base
        self.cache = cache  # the live decode cache; cloned per proposal

    def propose(self, h, last_token, beam_width, beam_length):
        if beam_width != 1:
            raise ConfigError("MirrorProposer supports beam_width=1 only")
        # the live cache ends just before the guaranteed token
        scratch = self.cache.clone()
        out = self.base.forward_context([last_token], scratch)
        tokens = []
        for _ in range(beam_length):
            tokens.append(argmax_tie_low(out.logits[-1]))
            if len(tokens) < beam_length:
                out = self.base.forward_context([tokens[-1]], scratch)
        return beam_mod.Beam(tokens=np.asarray([tokens], dtype=np.int64),
                             logp=np.zeros(1))


def verify_greedy(base_output, beam, packed):
    """Accept the longest draft prefix that matches the verifier's argmaxes.

    A draft token at position j of candidate i is accepted iff it equals the
    argmax of the logits at its parent node (the root for j=0, else packed
    node (i, j-1)).  Ties across candidates go to the lower beam index; the
    beam is already sorted by drafter log-probability.
    """
    if base_output.logits.shape[0] != packed.n:
        raise ContractError(f"base output rows ({base_output.logits.shape[0]}) do not "
                            f"align with packed tokens ({packed.n})")
    node_argmax = np.argmax(base_output.logits, axis=1)
    matches = beam.tokens == node_argmax[packed.parents[packed.candidate_node]]
    # accepted length = number of leading matches
    accepted = np.cumprod(matches, axis=1).sum(axis=1)
    chosen = int(np.argmax(accepted))
    acc = int(accepted[chosen])
    path = np.concatenate([[0], packed.candidate_node[chosen, :acc]])
    _warn_near_ties(base_output.logits[path])
    return VerifyResult(chosen_candidate=chosen, accepted_len=acc,
                        next_guaranteed_token=int(node_argmax[path[-1]]), path=path)


def _warn_near_ties(rows):
    if rows.shape[1] < 2:
        return
    top2 = np.partition(rows, -2, axis=1)[:, -2:].astype(np.float64)
    gaps = top2[:, 1] - top2[:, 0]
    for gap in gaps[gaps < NEAR_TIE_GAP]:
        log.warning("near-tie in verification logits (top-1/top-2 gap %.3e); "
                    "argmax agreement between code paths may be fragile", gap)


def autoregressive_generate(base, prompt, cfg):
    """Greedy baseline: repeatedly append the argmax next token."""
    prompt = list(prompt)
    if not prompt:
        raise ContractError("prompt must be non-empty")
    if len(prompt) + cfg.max_new_tokens > base.config.max_seq_len:
        raise CapacityError("prompt + max_new_tokens exceeds max_seq_len")
    cache = base.new_cache()
    out = base.forward_context(prompt, cache)
    emitted = []
    while len(emitted) < cfg.max_new_tokens:
        token = argmax_tie_low(out.logits[-1])
        emitted.append(token)
        if cfg.stop_token is not None and token == cfg.stop_token:
            break
        if len(emitted) == cfg.max_new_tokens:
            break
        out = base.forward_context([token], cache)
    return emitted


def speculative_generate(base, proposer, prompt, cfg, _omit_guaranteed=False):
    """Speculative decoding; output is token-identical to the greedy baseline.

    ``proposer`` is anything with ``propose(h, last_token, width, length)``
    returning a Beam; pass a DrafterParams via :class:`RnnProposer`.
    ``_omit_guaranteed`` is a self-test hook that corrupts the loop by
    dropping the per-step guaranteed token from the output stream.
    """
    prompt = list(prompt)
    if not prompt:
        raise ContractError("prompt must be non-empty")
    if len(prompt) + cfg.max_new_tokens > base.config.max_seq_len:
        raise CapacityError("prompt + max_new_tokens exceeds max_seq_len")

    cache = base.new_cache()
    out = base.forward_context(prompt, cache)
    h = out.hidden[-1]
    guaranteed = argmax_tie_low(out.logits[-1])

    emitted = []
    reports = []
    generated = 0  # tokens committed after the prompt
    while generated < cfg.max_new_tokens:
        # draft no deeper than the tokens still wanted after the root; with
        # prompt + max_new_tokens <= max_seq_len the deepest node then also
        # fits the context window
        length = min(cfg.beam_length, cfg.max_new_tokens - generated - 1)
        if length > 0:
            proposal = proposer.propose(h, guaranteed, cfg.beam_width, length)
        else:
            proposal = beam_mod.Beam(tokens=np.zeros((1, 0), np.int64), logp=np.zeros(1))
        packed = beam_mod.pack_beam(proposal, guaranteed)
        base_out, spec_state = base.forward_packed(packed, cache)
        result = verify_greedy(base_out, proposal, packed)
        acc = result.accepted_len
        path = result.path
        base.commit_accepted(cache, packed, spec_state, path)
        generated += acc + 1
        h = base_out.hidden[path[-1]]
        guaranteed = result.next_guaranteed_token

        reports.append(StepReport(accepted_draft_tokens=acc,
                                  chosen_candidate=result.chosen_candidate,
                                  packed_size=packed.n,
                                  compression_ratio=beam_mod.compression_ratio(proposal, packed),
                                  llm_calls=1))
        step_tokens = [int(t) for t in packed.tokens[path]]
        if _omit_guaranteed:
            step_tokens = step_tokens[1:]
        if cfg.stop_token in step_tokens:
            emitted.extend(step_tokens[:step_tokens.index(cfg.stop_token) + 1])
            break
        emitted.extend(step_tokens)

    return emitted, reports
