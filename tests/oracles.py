"""Test oracles: a proposer and a metric that only the tests run.

``MirrorProposer`` replays the base's own greedy stream, the acceptance
upper bound; ``empirical_kl`` measures how far the draft head's next-token
distribution is from the base's.  Test modules import them as
``from oracles import ...``, the way they import each other.
"""

import numpy as np

from redrafter import decode, distill, drafter
from redrafter.beam import ROOT_PARENT, DraftTree
from redrafter.errors import ConfigError, ContractError, check_tokens


class MirrorProposer:
    """Diagnostic proposer that replays the base model's own greedy stream.

    ``stream`` is ``autoregressive_generate``'s output for the request, with
    no stop token.  Every draft then matches the verifier, so each step
    accepts all it drafts, and the next step's guaranteed token is the
    stream's token after them: the upper bound for acceptance.  One proposer
    serves one decode.  Width-1 only.
    """

    def __init__(self, stream):
        self.stream = list(stream)
        self.at = 0  # stream index of the next step's guaranteed token

    def propose(self, h, last_token, beam_width, beam_length):
        if beam_width != 1:
            raise ConfigError("MirrorProposer supports beam_width=1 only")
        if self.stream[self.at:self.at + 1] != [last_token]:
            raise ContractError(f"guaranteed token {last_token} is not token {self.at} "
                                f"of the mirrored stream")
        drafts = self.stream[self.at + 1:self.at + 1 + beam_length]
        self.at += len(drafts) + 1
        # one chain: each draft below the token before it
        return DraftTree([last_token] + drafts, [ROOT_PARENT] + list(range(len(drafts))))


def empirical_kl(base, params, probe_contexts, horizon):
    """Exact per-step KL(base || drafter), teacher-forced on base greedy tokens.

    Each probe context is aligned like a ``DistillDataset`` context: its last
    token is the one the draft recurrence starts from, and the drafter sees
    the base hidden state at the token before it.  The drafter runs the
    forward decode runs, ``head_logp_batch`` and ``step_batch`` on one
    ``[s | h]`` row in the drafter's dtype, with a ``decode.RnnProposer``'s
    embeddings and per-token input terms; a drafter that does not fit the
    base is that proposer's ``ShapeError``.  The KL itself is taken in
    float64.  Returns an array of length ``horizon``: KL at recurrence step
    k averaged over the probe contexts.
    """
    distill._check_horizon(horizon)
    if not len(probe_contexts):
        raise ContractError("no probe contexts to measure the KL on")
    proposer = decode.RnnProposer(params, base.token_embeddings)
    d_s = params.d_s
    totals = np.zeros(horizon)
    for context in probe_contexts:
        context = check_tokens(context, params.vocab_size)
        if context.shape[0] < 2:
            raise ContractError("a probe context needs at least two tokens")
        token = int(context[-1])
        cache = base.new_cache()
        x = np.empty((1, 2 * d_s), params.dtype)
        x[0, d_s:] = base.forward_context(context[:-1], cache).hidden[-1]
        x[0, :d_s] = proposer.embeddings[token]
        for k in range(horizon):
            base_logits = base.forward_context([token], cache).logits[-1].astype(np.float64)
            z = base_logits - base_logits.max()
            ez = np.exp(z)
            total = ez.sum()
            p = ez / total
            logp_base = z - np.log(total)
            logq = drafter.head_logp_batch(x, params)[0]
            totals[k] += float((p * (logp_base - logq)).sum())
            token = int(base_logits.argmax())
            x[:, :d_s] = drafter.step_batch(x[:, :d_s], proposer.token_term[[token]], params)
    return totals / len(probe_contexts)
