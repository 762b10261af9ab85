"""Speculative decoding loop: one tree-masked verification forward of the
base model per step, greedily accepting the deepest draft node whose path
matches the base model's own argmax choices.

Each step's proposer hands over a draft tree rooted at the step's guaranteed
token (the base model's argmax after the committed context), which sits at
the next absolute position.  ``RnnProposer`` beam-searches the draft head and
keeps the ``beam_width + beam_length`` most probable prefixes the search
held, read straight from its backpointers, so no step deduplicates or packs
candidates.  The root's logits verify the depth-1 drafts, each draft node's
logits verify its children, and the node that ends the accepted path yields
the next step's guaranteed token.  The step commits the root plus the
accepted path, and the next step's drafter conditions on the hidden state of
the last committed node together with the embedding of the next guaranteed
token.  The prompt's prefill seeds the first step the same way.  A step whose
one wanted token is the guaranteed token emits it without a forward.

Acceptance is strictly token-match (temperature 0), so the emitted stream is
exactly the autoregressive greedy stream: every accepted token is, by
construction, the argmax the base model would have produced at that position,
and the step always ends with the base model's own next token.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import beam as beam_mod
from .errors import CapacityError, ConfigError, ContractError, VocabError, check_integers


@dataclass(slots=True)
class DecodeConfig:
    """One speculative decode's shape.

    Each step drafts ``beam_width`` beams ``beam_length`` tokens deep; the
    draft tree verified per step holds at most ``beam_width + beam_length``
    draft nodes (the most probable prefixes the search kept), so the two
    fields also set the verification forward's size.
    """

    beam_width: int
    beam_length: int
    max_new_tokens: int
    stop_token: Optional[int] = None

    def __post_init__(self):
        check_integers(ConfigError, beam_width=self.beam_width, beam_length=self.beam_length,
                       max_new_tokens=self.max_new_tokens,
                       stop_token=0 if self.stop_token is None else self.stop_token)
        if self.beam_width < 1 or self.beam_length < 1 or self.max_new_tokens < 1:
            raise ConfigError("beam_width, beam_length and max_new_tokens must be >= 1")


@dataclass(slots=True)
class StepReport:
    """What one decode step did.  ``llm_calls`` counts the base-model
    forwards the step made: 1, or 0 on a final step whose one wanted token is
    the guaranteed one, which needs no verification.  ``compression_ratio``
    is the width x (drafted length + 1) candidate tokens a full beam would
    verify, over the ``packed_size`` nodes the step's tree verified (the
    root alone on that final step)."""

    accepted_draft_tokens: int
    packed_size: int
    compression_ratio: float
    llm_calls: int


class RnnProposer:
    """Default proposer: beam search over the trained recurrent draft head,
    returning the draft tree of its most probable prefixes.

    The embeddings and the recurrence's per-token input term ``w @ e + b``
    are built once, here, in the drafter's dtype from the parameters as they
    are now.  ``embeddings`` is the base's (vocab, d_model) table, which
    ``DrafterParams.embedding_table`` checks fits the drafter.
    """

    def __init__(self, params, embeddings):
        self.params = params
        self.embeddings = params.embedding_table(embeddings)
        self.token_term = self.embeddings @ params.w.T + params.b

    def propose(self, h, last_token, beam_width, beam_length):
        lattice = beam_mod.beam_search(self.params, self.embeddings, h, last_token,
                                       beam_width, beam_length, self.token_term)
        return lattice.tree(last_token)


def verify_greedy(base_output, tree):
    """Accept the deepest draft node whose whole path matches the verifier:
    returns ``(next_guaranteed_token, path)``, where ``path`` holds the tree
    nodes to commit: the root, then the accepted drafts.

    A draft node matches iff its token is the argmax of the logits at its
    parent, and stands iff it matches and its parent stands (the root, the
    step's guaranteed token, always does): parents precede children, so one
    pass in node order finds the deepest standing node, ties to the lowest
    index.  The path is the node's mask row in index order, its root-to-node
    path; the root alone accepts nothing.
    """
    if base_output.logits.shape[0] != tree.n:
        raise ContractError(f"base output rows ({base_output.logits.shape[0]}) do not "
                            f"align with tree tokens ({tree.n})")
    top = base_output.logits.argmax(axis=1).tolist()
    tokens, parents, depths = tree.tokens.tolist(), tree.parents.tolist(), tree.depths.tolist()
    stands, node = [True], 0
    for i in range(1, len(tokens)):
        stands.append(stands[parents[i]] and tokens[i] == top[parents[i]])
        if stands[i] and depths[i] > depths[node]:
            node = i
    return top[node], np.flatnonzero(tree.mask[node])


def _prefill(base, prompt, cfg):
    """Forward a request's prompt on a new cache: returns the cache and the
    prompt's output.  ``forward_context`` checks the prompt; this checks only
    the stop token, first, and the room left for ``max_new_tokens``, after."""
    vocab_size = base.config.vocab_size
    if cfg.stop_token is not None and not 0 <= cfg.stop_token < vocab_size:
        raise VocabError(f"stop token {cfg.stop_token} outside vocab of size {vocab_size}")
    cache = base.new_cache()
    out = base.forward_context(prompt, cache)
    if cache.committed_len + cfg.max_new_tokens > base.config.max_seq_len:
        raise CapacityError("prompt + max_new_tokens exceeds max_seq_len")
    return cache, out


def autoregressive_generate(base, prompt, cfg):
    """Greedy baseline: repeatedly append the argmax next token (ties to the lowest index)."""
    cache, out = _prefill(base, prompt, cfg)
    emitted = [int(out.logits[-1].argmax())]
    while len(emitted) < cfg.max_new_tokens and emitted[-1] != cfg.stop_token:
        out = base.forward_context(emitted[-1:], cache)
        emitted.append(int(out.logits[-1].argmax()))
    return emitted


def speculative_generate(base, proposer, prompt, cfg):
    """Speculative decoding; output is token-identical to the greedy baseline.

    ``proposer`` is anything with ``propose(h, last_token, width, length)``
    returning a ``DraftTree`` rooted at ``last_token`` whose drafts are at
    most ``length`` deep; pass a DrafterParams via :class:`RnnProposer`.  A
    proposer with a plain candidate list can return the tree
    ``beam.pack_beam`` builds from it.
    """
    cache, out = _prefill(base, prompt, cfg)
    h = out.hidden[-1]
    guaranteed = int(out.logits[-1].argmax())

    emitted = []
    reports = []
    while len(emitted) < cfg.max_new_tokens:
        # draft no deeper than the tokens still wanted after the root; with
        # prompt + max_new_tokens <= max_seq_len the deepest node then also
        # fits the context window
        length = min(cfg.beam_length, cfg.max_new_tokens - len(emitted) - 1)
        if length == 0:
            # the one token still wanted is the guaranteed one: a forward of
            # the root alone would only yield the token after it
            reports.append(StepReport(accepted_draft_tokens=0, packed_size=1,
                                      compression_ratio=1.0, llm_calls=0))
            step_tokens = [guaranteed]
        else:
            tree = proposer.propose(h, guaranteed, cfg.beam_width, length)
            if tree.tokens[0] != guaranteed:
                raise ContractError("a proposal's tree must be rooted at the guaranteed token")
            if tree.depths.max() > length:
                raise ContractError(f"a proposal's tree is {tree.depths.max()} deep, "
                                    f"deeper than the {length} asked for")
            base_out, spec_state = base.forward_packed(tree, cache)
            guaranteed, path = verify_greedy(base_out, tree)
            base.commit_accepted(cache, tree, spec_state, path)
            h = base_out.hidden[path[-1]]
            reports.append(StepReport(accepted_draft_tokens=path.size - 1, packed_size=tree.n,
                                      compression_ratio=cfg.beam_width * (length + 1) / tree.n,
                                      llm_calls=1))
            step_tokens = tree.tokens[path].tolist()
        if cfg.stop_token in step_tokens:
            emitted.extend(step_tokens[:step_tokens.index(cfg.stop_token) + 1])
            break
        emitted.extend(step_tokens)

    return emitted, reports
