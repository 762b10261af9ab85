"""Speculative decoding loop: alternate draft-side beam search with a single
tree-masked verification forward per step, greedily accepting the longest
draft prefix that matches the base model's own argmax choices.

Acceptance is strictly token-match (temperature 0), so the emitted stream is
exactly the autoregressive greedy stream: every accepted token is, by
construction, the argmax the base model would have produced at that position,
and the step always ends with the base model's own next token.
"""

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import beam as beam_mod
from . import drafter
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
    seed: int = 0

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
        # The live cache already ends at the guaranteed token; rewind one slot
        # and re-forward it on a scratch copy to recover its logits.
        scratch = self.cache.clone()
        scratch.committed_len -= 1
        scratch.tokens.pop()
        out = self.base.forward_context([last_token], scratch)
        tokens = []
        for _ in range(beam_length):
            token = argmax_tie_low(out.logits[-1])
            tokens.append(token)
            out = self.base.forward_context([token], scratch)
        return beam_mod.Beam(tokens=np.asarray([tokens], dtype=np.int64),
                             logp=np.zeros(1))


def verify_greedy(base_output, beam, packed, guaranteed_logits):
    """Accept the longest draft prefix that matches the verifier's argmaxes.

    A draft token at position j of candidate i is accepted iff it equals the
    argmax of the logits at its predecessor node (the guaranteed token for
    j=0, else packed node (i, j-1)).  Ties across candidates go to the lower
    beam index; the beam is already sorted by drafter log-probability.
    """
    if base_output.logits.shape[0] != packed.n:
        raise ContractError(f"base output rows ({base_output.logits.shape[0]}) do not "
                            f"align with packed tokens ({packed.n})")
    node_argmax = np.argmax(base_output.logits, axis=1) if packed.n else np.zeros(0, np.int64)
    g_argmax = argmax_tie_low(guaranteed_logits)
    _warn_near_ties(guaranteed_logits[None, :])

    width, length = beam.tokens.shape
    pred = np.empty((width, length), dtype=np.int64)
    pred[:, 0] = g_argmax
    if length > 1:
        pred[:, 1:] = node_argmax[packed.candidate_node[:, :-1]]
    matches = beam.tokens == pred
    # accepted length = index of first mismatch
    accepted = np.where(matches.all(axis=1), length, np.argmin(matches, axis=1))
    chosen = int(np.argmax(accepted))
    acc = int(accepted[chosen])
    if acc == 0:
        nxt = g_argmax
    else:
        node = packed.candidate_node[chosen, acc - 1]
        nxt = int(node_argmax[node])
        _warn_near_ties(base_output.logits[packed.candidate_node[chosen, :acc]])
    return VerifyResult(chosen_candidate=chosen, accepted_len=acc,
                        next_guaranteed_token=nxt)


def _warn_near_ties(rows):
    for row in rows:
        if row.shape[0] < 2:
            continue
        top2 = np.partition(row, -2)[-2:]
        gap = float(top2[1]) - float(top2[0])
        if gap < NEAR_TIE_GAP:
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
    guaranteed = argmax_tie_low(out.logits[-1])

    emitted = []
    reports = []
    stopped = False
    while len(emitted) < cfg.max_new_tokens and not stopped:
        out_g = base.forward_context([guaranteed], cache)
        # the drafter conditions on the hidden state at the last committed
        # token, the same alignment its training examples use
        proposal = proposer.propose(out_g.hidden[0], guaranteed,
                                    cfg.beam_width, cfg.beam_length)
        prefix_tree = beam_mod.dedup_prefix(proposal.tokens)
        packed = beam_mod.pack_beam(proposal, prefix_tree)
        base_out, spec_state = base.forward_packed(packed, cache)
        result = verify_greedy(base_out, proposal, packed, out_g.logits[0])
        acc = result.accepted_len
        path = packed.candidate_node[result.chosen_candidate, :acc]
        base.commit_accepted(cache, packed, spec_state, path)

        step_tokens = [guaranteed] + [int(t) for t in proposal.tokens[result.chosen_candidate, :acc]]
        if _omit_guaranteed:
            step_tokens = step_tokens[1:]
        reports.append(StepReport(accepted_draft_tokens=acc,
                                  chosen_candidate=result.chosen_candidate,
                                  packed_size=packed.n,
                                  compression_ratio=beam_mod.compression_ratio(proposal, packed),
                                  # forward_context of the guaranteed token, forward_packed of the tree
                                  llm_calls=2))
        for token in step_tokens:
            emitted.append(token)
            if cfg.stop_token is not None and token == cfg.stop_token:
                stopped = True
                break
            if len(emitted) == cfg.max_new_tokens:
                stopped = True
                break
        guaranteed = result.next_guaranteed_token

    return emitted[:cfg.max_new_tokens], reports
