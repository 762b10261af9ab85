"""Knowledge-distillation training of the draft head.

Examples follow the decode loop's alignment.  At every position of a corpus
sequence the committed prefix ends there; the example's context is that
prefix plus the guaranteed token (the base model's greedy next token), ``h``
is the base hidden state at the prefix's last token, and the teacher is the
base model's greedy rollout of a fixed horizon after the guaranteed token.
The ground-truth variant takes the guaranteed token and the teacher from the
corpus instead.  A ``DistillDataset`` holds the examples as rows of arrays,
each context as a corpus sequence and a prefix length.  Training minimizes
the mean teacher-forced negative log-likelihood with Adam, gathering each
batch's rows; the base model stays frozen throughout.

The rollouts are verified the way a decode step verifies its draft tree:
each block of ``BLOCK`` positions is one tree, the chain of the block's
tokens with every rollout of the block hanging off it.  Round 0 forwards
the chain, and each later round the next token of every rollout, against
the K/V the block's earlier forwards computed, so a block costs
``horizon + 1`` forwards of at most ``BLOCK`` new rows each.  A tree node's
logits, hidden state and K/V equal the causal forward of its root path bit
for bit, so the dataset is that of one 1-row forward per rollout token.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import beam, decode, drafter
from .errors import ContractError, FormatError, ShapeError, TrainingError, check_tokens

log = logging.getLogger(__name__)

# Corpus positions per block of ``build_distill_dataset``.  Every committed
# cache row is visible to every tree row, so a block's rollouts are verified
# before its chain is committed; blocks bound the largest tree at
# BLOCK * (horizon + 1) rows for any sequence length.
BLOCK = 16

# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

DATASET_MAGIC = "REDRAFT-DISTILL v1"


@dataclass(eq=False)
class DistillDataset:
    """Distillation examples as rows of arrays.

    Row i's context is the committed prefix ``sequences[seq_index[i]][:
    prefix_len[i]]`` followed by ``guaranteed[i]``: contexts share their
    sequence instead of each holding a copy.  ``h[i]`` is the base hidden
    state at the prefix's last token and ``teacher[i]`` the horizon tokens
    after the guaranteed one.
    """

    sequences: list          # int64 token arrays that the committed prefixes are taken from
    seq_index: np.ndarray    # (N,) int64, each row's entry of ``sequences``
    prefix_len: np.ndarray   # (N,) int64, each row's committed tokens, >= 1
    guaranteed: np.ndarray   # (N,) int64
    teacher: np.ndarray      # (N, horizon) int64
    h: np.ndarray            # (N, d_model) float32

    def __len__(self):
        return self.guaranteed.shape[0]

    def context(self, i):
        """Row i's committed prefix, then its guaranteed token."""
        return np.append(self.sequences[self.seq_index[i]][:self.prefix_len[i]],
                         self.guaranteed[i])


def _dataset(base, horizon, sequences, rows):
    """The ``DistillDataset`` of row chunks ``(seq_index, prefix_len,
    guaranteed, teacher, h)``, in order; a leading empty chunk gives every
    field its shape when there is no row."""
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64),
             np.empty((0, horizon), np.int64), np.empty((0, base.config.d_model), np.float32))
    return DistillDataset(sequences, *(np.concatenate(field) for field in zip(empty, *rows)))


@dataclass
class TrainConfig:
    horizon: int = 5
    learning_rate: float = 1e-3
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ContractError(f"need horizon >= 1, got {self.horizon}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ContractError(f"need a finite learning_rate >= 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractError(f"need epochs >= 1 and batch_size >= 1, got epochs "
                                f"{self.epochs} and batch_size {self.batch_size}")


def build_distill_dataset(base, corpus, horizon):
    """A ``DistillDataset`` with one row per corpus position: the guaranteed
    token after the prefix ending there, the greedy horizon-token rollout
    after it, and h.  Its ``sequences`` are the corpus's.

    A sequence goes through in blocks of ``BLOCK`` positions on a cache that
    holds everything before the block.  A block is one tree: its chain, and
    under each kept prefix's chain node the guaranteed token and rollout of
    that prefix, a level per token.  Round 0 forwards the chain for each
    prefix's h and guaranteed token; round k = 1 .. horizon forwards only the
    nodes of level k - 1, the nodes before them being the previous forward's,
    whose K/V the cache's tail holds.  The lowest-index argmax at a forwarded
    node is its rollout's next token.  A block thus forwards
    ``size + horizon * kept`` rows, against ``size * (horizon + 1) + kept *
    horizon * (horizon + 1) / 2`` if every round verified the whole tree.
    The cache is visible to every tree row, so the chain is committed through
    the tree after the last round; blocks keep the trees at most
    ``BLOCK * (horizon + 1)`` rows, whatever the sequence length.  A block's
    rows are kept as slices of its forwards' outputs and joined at the end.

    Sequences of length <= 1 (or positions without rollout headroom) are
    skipped; the skip count is logged.  A sequence longer than the base's
    ``max_seq_len`` raises its ``CapacityError`` at the round-0 forward of
    the block that crosses the window.
    """
    if horizon < 1:
        raise ContractError(f"need horizon >= 1, got {horizon}")
    max_len = base.config.max_seq_len
    sequences = [np.asarray(seq, dtype=np.int64) for seq in corpus]
    rows = []
    skipped = 0
    for index, seq in enumerate(sequences):
        if seq.shape[0] <= 1:
            skipped += 1
            continue
        cache = base.new_cache()
        for start in range(0, seq.shape[0], BLOCK):
            block = seq[start:start + BLOCK]
            size = block.shape[0]
            # chain node j ends the prefix of length start + j + 1; the first
            # `kept` of them leave room for a rollout of horizon tokens
            kept = max(0, min(size, max_len - horizon - start))
            skipped += size - kept
            # levels[0] holds the guaranteed tokens, levels[k] rollout token k;
            # tree nodes follow the chain level by level, each under the node
            # one level up, level 0 under the prefix's chain node
            tokens = np.concatenate([block, np.empty((horizon + 1) * kept, np.int64)])
            levels = tokens[size:].reshape(horizon + 1, kept)
            # the whole tree's parents, the chain's [-1, 0, .., size - 2] first;
            # each round passes its filled tokens
            tree = beam.DraftTree.from_parents(
                tokens[:size + horizon * kept],
                np.concatenate([np.arange(-1, size - 1), np.arange(kept),
                                size + np.arange((horizon - 1) * kept)]))
            for k in range(horizon + 1 if kept else 1):
                # round 0 forwards the chain, round k only the nodes of
                # levels[k - 1]: the last forward left those before them in
                # the cache's tail
                nodes = size + k * kept
                out, spec_state = base.forward_packed(_first_nodes(tree, tokens, nodes), cache,
                                                      nodes - kept if k else 0)
                levels[k] = out.logits[:kept].argmax(axis=1)
                if not k:
                    hidden = out.hidden  # h of each prefix the chain ends
            rows.append((np.full(kept, index), np.arange(start + 1, start + kept + 1),
                         levels[0], levels[1:].T, hidden[:kept]))
            # the chain's nodes lead every round's tree, and so the last spec_state
            base.commit_accepted(cache, tree, spec_state, np.arange(size))
    if skipped:
        log.warning("distill dataset: skipped %d short/overflowing positions", skipped)
    return _dataset(base, horizon, sequences, rows)


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
    Returns a ``DistillDataset`` whose ``sequences`` are the corpus's.
    """
    if horizon < 1:
        raise ContractError(f"need horizon >= 1, got {horizon}")
    sequences = [np.asarray(seq, dtype=np.int64) for seq in corpus]
    rows = []
    skipped = 0
    for index, seq in enumerate(sequences):
        # prefixes of 1 .. n committed tokens, each followed by its corpus
        # token and a teacher of the next horizon
        n = seq.shape[0] - horizon - 1
        if n <= 0:
            skipped += 1
            continue
        hidden = base.forward_context(seq, base.new_cache()).hidden
        rows.append((np.full(n, index), np.arange(1, n + 1), seq[1:n + 1],
                     np.lib.stride_tricks.sliding_window_view(seq[2:], horizon), hidden[:n]))
    if skipped:
        log.warning("ground-truth dataset: skipped %d short sequences", skipped)
    return _dataset(base, horizon, sequences, rows)


def write_dataset(path, dataset):
    """Write a ``DistillDataset``'s fields but ``h``, which the reader
    recomputes, as text::

        REDRAFT-DISTILL v1
        n_sequences horizon
        tokens ...                                   one line per sequence
        seq_index prefix_len guaranteed teacher ...  one line per row
    """
    rows = np.column_stack([dataset.seq_index, dataset.prefix_len, dataset.guaranteed,
                            dataset.teacher])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{DATASET_MAGIC}\n{len(dataset.sequences)} {dataset.teacher.shape[1]}\n")
        for line in [*(seq.tolist() for seq in dataset.sequences), *rows.tolist()]:
            fh.write(" ".join(map(str, line)) + "\n")


def read_dataset(path, base):
    """Load a ``write_dataset`` file as a ``DistillDataset``, recomputing
    ``h`` with the given base model.

    Each sequence that rows point to is prefilled once, up to the longest
    prefix its rows use, and a row's ``h`` is the prefill's row at the
    prefix's last token: a row of a causal forward equals the forward of the
    prefix ending there, bit for bit, as ``ground_truth_dataset`` also uses.
    A malformed file raises a ``FormatError`` naming its line.
    """
    vocab = base.config.vocab_size
    with open(path, encoding="utf-8") as fh:
        magic = fh.readline().rstrip("\n")
        if magic != DATASET_MAGIC:
            raise FormatError(f"{path}:1: bad magic line {magic!r}, expected {DATASET_MAGIC!r}")
        # a rollout of horizon tokens follows a prefix and its guaranteed token
        window = base.config.max_seq_len
        header = _ints(path, 2, fh.readline())
        if len(header) != 2 or header[0] < 0 or not 1 <= header[1] < window:
            raise FormatError(f"{path}:2: malformed header, expected 'n_sequences horizon' "
                              f"with 1 <= horizon < {window}, the base's window")
        n_seq, horizon = header
        sequences = []
        for lineno in range(3, 3 + n_seq):
            line = fh.readline()
            if not line:
                raise FormatError(f"{path}:{lineno}: the file ends before its {n_seq} "
                                  f"sequences do")
            sequences.append(np.array(_ints(path, lineno, line), np.int64))
        flat = []  # every row's fields, for one array: no per-row arrays
        for lineno, line in enumerate(fh, 3 + n_seq):
            fields = _ints(path, lineno, line)
            if len(fields) != 3 + horizon:
                raise FormatError(f"{path}:{lineno}: a row holds seq_index, prefix_len, the "
                                  f"guaranteed token and {horizon} teacher tokens, got "
                                  f"{len(fields)} fields")
            flat.extend(fields)
    rows = np.array(flat, np.int64).reshape(-1, 3 + horizon)
    seq_index, prefix_len = rows[:, 0], rows[:, 1]
    in_vocab = f"token id outside vocab of size {vocab}"
    _check_lines(path, 3, [((seq >= 0) & (seq < vocab)).all() for seq in sequences], in_vocab)
    _check_lines(path, 3 + n_seq, (seq_index >= 0) & (seq_index < n_seq),
                 f"seq_index outside the file's {n_seq} sequences")
    lengths = np.array([seq.shape[0] for seq in sequences], np.int64)
    _check_lines(path, 3 + n_seq, (prefix_len >= 1) & (prefix_len <= lengths[seq_index]),
                 "prefix_len outside [1, the length of its sequence]")
    _check_lines(path, 3 + n_seq, ((rows[:, 2:] >= 0) & (rows[:, 2:] < vocab)).all(axis=1),
                 in_vocab)
    longest = np.zeros(n_seq, np.int64)
    np.maximum.at(longest, seq_index, prefix_len)
    h = np.empty((rows.shape[0], base.config.d_model), np.float32)
    for index in np.flatnonzero(longest):
        hidden = base.forward_context(sequences[index][:longest[index]], base.new_cache()).hidden
        mine = seq_index == index
        h[mine] = hidden[prefix_len[mine] - 1]
    return DistillDataset(sequences, seq_index, prefix_len, rows[:, 2], rows[:, 3:], h)


def _ints(path, lineno, line):
    try:
        return [int(word) for word in line.split()]
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: non-integer field ({exc})") from None


def _check_lines(path, lineno, ok, message):
    """A ``FormatError`` naming the first line whose ``ok`` entry is false;
    entry 0 is line ``lineno``."""
    if not np.all(ok):
        raise FormatError(f"{path}:{lineno + int(np.argmin(ok))}: {message}")


def train_drafter(dataset, params_init, cfg, embeddings):
    """Adam on the mean teacher-forced loss over a ``DistillDataset``.
    Deterministic for a fixed seed.

    Each batch gathers its rows: ``h``, the embedding of the guaranteed
    token (the recurrence's start state) and the teacher.  Returns the
    trained parameters and the per-epoch mean loss curve.  Before the first
    batch, an embedding table that is not ``(vocab, d_s)`` for the drafter,
    or an ``h`` not ``d_s`` wide, raises ``ShapeError``, and a guaranteed or
    teacher token outside the drafter's vocab raises ``VocabError``.
    """
    if not dataset:
        raise ContractError("training dataset is empty")
    if dataset.teacher.shape[1] != cfg.horizon:
        raise ContractError(f"dataset horizon {dataset.teacher.shape[1]} "
                            f"!= cfg.horizon {cfg.horizon}")

    emb = params_init.embedding_table(embeddings)
    vocab, d_s = params_init.vocab_size, params_init.d_s
    if dataset.h.ndim != 2 or dataset.h.shape[1] != d_s:
        raise ShapeError(f"dataset hidden states {dataset.h.shape} are not the drafter's "
                         f"width {d_s}")
    check_tokens(dataset.guaranteed, vocab)
    check_tokens(dataset.teacher, vocab)

    params = params_init.flat_copy()

    # Adam runs in place over the one flat buffer the parameters view, and
    # the gradients' own, through two scratch buffers; each step keeps the
    # operands and order of the expression above it, so every element's bits
    # are those of the per-tensor formulas
    m = np.zeros_like(params.flat)
    v = np.zeros_like(params.flat)
    t1 = np.empty_like(params.flat)
    t2 = np.empty_like(params.flat)
    step_count = 0
    rng = np.random.default_rng(cfg.seed)
    n = len(dataset)
    curve = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = drafter.batch_loss(params, emb, dataset.h[idx],
                                             emb[dataset.guaranteed[idx]], dataset.teacher[idx])
            denom = len(idx) * cfg.horizon  # mean over sequences and positions
            epoch_loss += loss
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged to {loss} at epoch {epoch}")
            g = grads.flat
            g *= 1.0 / denom
            step_count += 1
            bc1 = 1.0 - ADAM_BETA1 ** step_count
            bc2 = 1.0 - ADAM_BETA2 ** step_count
            # m = beta1 * m + (1 - beta1) * g
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=t1)
            # v = beta2 * v + (1 - beta2) * g * g
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=t1)
            t1 *= g
            v += t1
            # flat -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=t1)
            t1 *= cfg.learning_rate
            np.divide(v, bc2, out=t2)
            np.sqrt(t2, out=t2)
            t2 += ADAM_EPS
            t1 /= t2
            params.flat -= t1
        curve.append(epoch_loss / (n * cfg.horizon))
    return params, curve


def empirical_kl(base, params, probe_contexts, horizon):
    """Exact per-step KL(base || drafter), teacher-forced on base greedy tokens.

    Each probe context is aligned like a ``DistillDataset`` context: its last
    token is the one the draft recurrence starts from, and the drafter sees
    the base hidden state at the token before it.  The drafter runs the
    forward decode runs, ``head_logp_batch`` and ``step_batch`` on one
    ``[s | h]`` row, with a ``decode.RnnProposer``'s float64 embeddings and
    per-token input terms; a drafter that does not fit the base is that
    proposer's ``ShapeError``.  Returns an array of length ``horizon``: KL
    at recurrence step k averaged over the probe contexts.
    """
    if horizon < 1:
        raise ContractError(f"need horizon >= 1, got {horizon}")
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
        x = np.empty((1, 2 * d_s))
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
