"""Knowledge-distillation training of the draft head.

Examples follow the decode loop's alignment.  At every position of a corpus
sequence the committed prefix ends there; the example's context is that
prefix plus the guaranteed token (the base model's greedy next token), ``h``
is the base hidden state at the prefix's last token, and the teacher is the
base model's greedy rollout of a fixed horizon after the guaranteed token.
The ground-truth variant takes the guaranteed token and the teacher from the
corpus instead.  Training minimizes the mean teacher-forced negative
log-likelihood with Adam; the base model stays frozen throughout.

The rollouts are verified the way a decode step verifies its draft tree:
all rollouts of a block of ``BLOCK`` positions hang off one chain of the
block's tokens in one tree, which grows by a token per rollout each round.
A round forwards only the nodes it adds, against the K/V the block's earlier
forwards computed, so a block costs ``horizon + 1`` forwards of at most
``BLOCK`` new rows each.  A tree node's logits, hidden state and K/V equal
the causal forward of its root path bit for bit, so the dataset is that of
one 1-row forward per rollout token.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from . import beam, drafter
from .errors import ContractError, FormatError, TrainingError
from .kernels import argmax_tie_low

log = logging.getLogger(__name__)

# Corpus positions per block of ``build_distill_dataset``.  Every committed
# cache row is visible to every tree row, so a block's rollouts are verified
# before its chain is committed; blocks bound the largest tree at
# BLOCK * (horizon + 1) rows for any sequence length.
BLOCK = 16

# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class DistillExample:
    context: np.ndarray  # committed tokens, then the guaranteed token
    teacher: np.ndarray  # horizon target tokens after the guaranteed token
    h: np.ndarray        # base-model hidden state at the token before the guaranteed one


@dataclass
class TrainConfig:
    horizon: int = 5
    learning_rate: float = 1e-3
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.horizon < 1 or self.learning_rate < 0:
            raise ContractError("need horizon >= 1 and learning_rate >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractError(f"need epochs >= 1 and batch_size >= 1, got epochs "
                                f"{self.epochs} and batch_size {self.batch_size}")


def build_distill_dataset(base, corpus, horizon):
    """One example per corpus position: the guaranteed token after the prefix
    ending there, the greedy horizon-token rollout after it, and h.

    A sequence goes through in blocks of ``BLOCK`` positions on a cache that
    holds everything before the block.  One tree-masked forward of the
    block's chain gives each prefix's h and guaranteed token.  Round k = 1
    .. horizon then grows one tree: under each prefix's chain node hang
    that prefix's first k rollout tokens, the guaranteed token first.  The
    round forwards only its new nodes, one per kept position: the nodes
    before them are the previous forward's, whose K/V the cache's tail
    holds; the lowest-index argmax at each new node is its rollout's next
    token.  A block thus forwards ``size + horizon * kept`` rows, against
    ``size * (horizon + 1) + kept * horizon * (horizon + 1) / 2`` if every
    round verified the whole tree.  The chain is committed after the block.
    The cache is visible to every tree row, so a block's chain cannot be
    committed before its rollouts are done; blocks keep the trees at most
    ``BLOCK * (horizon + 1)`` rows, whatever the sequence length.

    Sequences of length <= 1 (or positions without rollout headroom) are
    skipped; the skip count is logged.  A sequence longer than the base's
    ``max_seq_len`` raises its ``CapacityError``.
    """
    if horizon < 1:
        raise ContractError(f"need horizon >= 1, got {horizon}")
    max_len = base.config.max_seq_len
    examples = []
    skipped = 0
    for seq in corpus:
        seq = np.asarray(seq, dtype=np.int64)
        if seq.shape[0] <= 1:
            skipped += 1
            continue
        cache = base.new_cache()
        n = min(seq.shape[0], max_len)
        for start in range(0, n, BLOCK):
            block = seq[start:min(start + BLOCK, n)]
            size = block.shape[0]
            chain = beam.chain_tree(block[0], block[1:])
            out, spec_state = base.forward_packed(chain, cache)
            # chain node j ends the prefix of length start + j + 1; the first
            # `kept` of them leave room for a rollout of horizon tokens
            kept = max(0, min(size, max_len - horizon - start))
            skipped += size - kept
            if kept:
                # levels[0] holds the guaranteed tokens, levels[k] rollout token k;
                # tree nodes follow the chain level by level, each under the
                # node one level up, level 1 under the prefix's chain node
                tokens = np.concatenate([block, np.empty((horizon + 1) * kept, np.int64)])
                levels = tokens[size:].reshape(horizon + 1, kept)
                levels[0] = out.logits[:kept].argmax(axis=1)
                # the whole tree's parents; each round passes its filled tokens
                tree = beam.DraftTree.from_parents(
                    tokens[:size + horizon * kept],
                    np.concatenate([chain.parents, np.arange(kept),
                                    size + np.arange((horizon - 1) * kept)]))
                for k in range(1, horizon + 1):
                    # round k forwards only the nodes of levels[k - 1]; the
                    # last forward left those before them in the cache's tail
                    nodes = size + k * kept
                    head = _first_nodes(tree, tokens, nodes)
                    new, spec_state = base.forward_packed(head, cache, nodes - kept)
                    levels[k] = new.logits.argmax(axis=1)
                teachers = np.ascontiguousarray(levels[1:].T)
                for j in range(kept):
                    examples.append(DistillExample(
                        context=np.append(seq[:start + j + 1], levels[0, j]),
                        teacher=teachers[j], h=out.hidden[j].copy()))
            # the chain's nodes lead every round's tree, and so the last spec_state
            base.commit_accepted(cache, chain, spec_state, np.arange(size))
        if seq.shape[0] > max_len:
            # the first token past the window: the base raises as a causal
            # forward of it would, on a cache holding the whole window
            base.forward_packed(beam.chain_tree(seq[max_len], []), cache)
    if skipped:
        log.warning("distill dataset: skipped %d short/overflowing positions", skipped)
    return examples


def _first_nodes(tree, tokens, n):
    """The subtree of a tree's first n nodes, holding ``tokens[:n]``.  Parents
    precede children, so every other field is a leading slice."""
    return beam.DraftTree(tokens=tokens[:n], parents=tree.parents[:n], depths=tree.depths[:n],
                          mask=tree.mask[:n, :n])


def ground_truth_dataset(base, corpus, horizon):
    """Control arm: the guaranteed token and the teacher are the corpus's own
    continuation.

    The base model still supplies the hidden states the draft head conditions
    on.  Positions within ``horizon + 1`` of the sequence end are skipped.
    """
    if horizon < 1:
        raise ContractError(f"need horizon >= 1, got {horizon}")
    examples = []
    skipped = 0
    for seq in corpus:
        seq = np.asarray(seq, dtype=np.int64)
        if seq.shape[0] <= horizon + 1:
            skipped += 1
            continue
        cache = base.new_cache()
        out = base.forward_context(seq, cache)
        for t in range(1, seq.shape[0] - horizon):
            examples.append(DistillExample(context=seq[:t + 1].copy(),
                                           teacher=seq[t + 1:t + 1 + horizon].copy(),
                                           h=out.hidden[t - 1].copy()))
    if skipped:
        log.warning("ground-truth dataset: skipped %d short sequences", skipped)
    return examples


def write_dataset(path, examples):
    """Newline-delimited records: context_len T context_tokens... teacher_tokens..."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fields = [len(ex.context), len(ex.teacher), *ex.context, *ex.teacher]
            fh.write(" ".join(str(int(x)) for x in fields) + "\n")


def read_dataset(path, base):
    """Load a dataset file, recomputing hidden states with the given base model
    (at the token before each context's guaranteed token).

    ``write_dataset`` writes a sequence's records with committed prefixes
    that extend one another, so each run of such records gets one prefill of
    its longest prefix: a row of a causal forward equals the forward of the
    prefix ending there, bit for bit, as ``ground_truth_dataset`` also uses.
    """
    vocab = base.config.vocab_size
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                vals = [int(x) for x in line.split()]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-integer field ({exc})") from None
            if len(vals) < 2 or len(vals) != 2 + vals[0] + vals[1]:
                raise FormatError(f"{path}:{lineno}: malformed dataset record")
            n_ctx, horizon = vals[0], vals[1]
            if n_ctx < 2:
                raise FormatError(f"{path}:{lineno}: context needs a committed token "
                                  f"and the guaranteed token")
            if horizon < 1:
                raise FormatError(f"{path}:{lineno}: teacher needs at least one token")
            if min(vals[2:]) < 0 or max(vals[2:]) >= vocab:
                raise FormatError(f"{path}:{lineno}: token id outside vocab of size {vocab}")
            records.append((np.asarray(vals[2:2 + n_ctx], np.int64),
                            np.asarray(vals[2 + n_ctx:], np.int64)))
    # a run starts at a record whose committed prefix does not extend the
    # previous record's; the run's last prefix then holds all of its prefixes
    starts = [i for i in range(len(records))
              if i == 0 or not _extends(records[i][0], records[i - 1][0])]
    examples = []
    for lo, hi in zip(starts, starts[1:] + [len(records)]):
        hidden = base.forward_context(records[hi - 1][0][:-1], base.new_cache()).hidden
        examples.extend(DistillExample(context=context, teacher=teacher,
                                       h=hidden[context.shape[0] - 2].copy())
                        for context, teacher in records[lo:hi])
    return examples


def _extends(context, before):
    """Whether a context's committed prefix (all but its last token) extends
    the committed prefix of the context ``before``."""
    k = before.shape[0] - 1
    return context.shape[0] > k and np.array_equal(context[:k], before[:k])


def train_drafter(dataset, params_init, cfg, embeddings):
    """Adam on the mean teacher-forced loss.  Deterministic for a fixed seed.

    Returns the trained parameters and the per-epoch mean loss curve.
    """
    if not dataset:
        raise ContractError("training dataset is empty")
    horizons = {len(ex.teacher) for ex in dataset}
    if horizons != {cfg.horizon}:
        raise ContractError(f"dataset horizons {sorted(horizons)} != cfg.horizon {cfg.horizon}")

    params = params_init.flat_copy()
    emb = np.asarray(embeddings, dtype=np.float64)
    h_all = np.stack([ex.h for ex in dataset]).astype(np.float64)
    s0_all = emb[[int(ex.context[-1]) for ex in dataset]]
    teacher_all = np.stack([ex.teacher for ex in dataset])

    # Adam runs over the one flat buffer the parameters view, and the
    # gradients' own; each element sees the per-tensor expressions
    m = np.zeros_like(params.flat)
    v = np.zeros_like(params.flat)
    step_count = 0
    rng = np.random.default_rng(cfg.seed)
    n = len(dataset)
    curve = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = drafter.batch_loss(params, emb, h_all[idx], s0_all[idx],
                                             teacher_all[idx])
            denom = len(idx) * cfg.horizon  # mean over sequences and positions
            epoch_loss += loss
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged to {loss} at epoch {epoch}")
            g = grads.flat
            g *= 1.0 / denom
            step_count += 1
            bc1 = 1.0 - ADAM_BETA1 ** step_count
            bc2 = 1.0 - ADAM_BETA2 ** step_count
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            params.flat -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        curve.append(epoch_loss / (n * cfg.horizon))
    return params, curve


def empirical_kl(base, params, probe_contexts, horizon):
    """Exact per-step KL(base || drafter), teacher-forced on base greedy tokens.

    Each probe context is aligned like ``DistillExample.context``: its last
    token is the one the draft recurrence starts from, and the drafter sees
    the base hidden state at the token before it.  Returns an array of length
    ``horizon``: KL at recurrence step k averaged over the probe contexts.
    """
    emb = np.asarray(base.token_embeddings, dtype=np.float64)
    totals = np.zeros(horizon)
    for context in probe_contexts:
        context = [int(t) for t in context]
        if len(context) < 2:
            raise ContractError("a probe context needs at least two tokens")
        cache = base.new_cache()
        h = base.forward_context(context[:-1], cache).hidden[-1]
        state = drafter.init_state(h, context[-1], emb)
        token = context[-1]
        for k in range(horizon):
            base_logits = base.forward_context([token], cache).logits[-1].astype(np.float64)
            z = base_logits - base_logits.max()
            p = np.exp(z) / np.exp(z).sum()
            logp_base = z - np.log(np.exp(z).sum())
            logq = drafter.head_logp(state, params)
            totals[k] += float((p * (logp_base - logq)).sum())
            token = argmax_tie_low(base_logits)
            state = drafter.step(state, token, params, emb)
    return totals / max(1, len(probe_contexts))


def sample_markov_corpus(seed, n_sequences=500, seq_len=64, vocab_size=32):
    """Corpus drawn from a seeded random order-2 Markov chain (softmax-sampled).

    Built from its own transition table, so it is distinct from any
    SyntheticMarkovModel's greedy chains.
    """
    if seq_len < 2:
        raise ContractError(f"an order-2 chain seeds 2 tokens: need seq_len >= 2, got {seq_len}")
    rng = np.random.default_rng(seed)
    table = rng.normal(0.0, 1.5, (vocab_size ** 2, vocab_size))
    sequences = []
    for _ in range(n_sequences):
        seq = [int(rng.integers(vocab_size)) for _ in range(2)]
        while len(seq) < seq_len:
            z = table[seq[-2] * vocab_size + seq[-1]]
            z = z - z.max()
            p = np.exp(z) / np.exp(z).sum()
            seq.append(int(rng.choice(vocab_size, p=p)))
        sequences.append(np.asarray(seq, np.int64))
    return sequences
