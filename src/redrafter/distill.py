"""Knowledge-distillation training of the draft head.

Examples follow the decode loop's alignment.  At every position of a corpus
sequence the committed prefix ends there; the example's context is that
prefix plus the guaranteed token (the base model's greedy next token), ``h``
is the base hidden state at the prefix's last token, and the teacher is the
base model's greedy rollout of a fixed horizon after the guaranteed token.
The ground-truth variant takes the guaranteed token and the teacher from the
corpus instead.  The corpus is a seeded Markov sample
(``sample_markov_corpus``) or the base's own greedy text
(``greedy_corpus``).  A ``DistillDataset`` holds what training reads of each
example, the guaranteed token, the teacher and h, as rows of arrays, one per
kept corpus position in corpus order; its file adds the base's token
embeddings, so training needs no base.  Training minimizes the mean
teacher-forced negative log-likelihood with Adam, gathering each batch's
rows; the base model stays frozen throughout.

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
import numbers
from dataclasses import dataclass

import numpy as np

from . import beam, decode, drafter, weights
from .errors import (ContractError, FormatError, ShapeError, TrainingError, check_integers,
                     check_tokens)

log = logging.getLogger(__name__)

# Corpus positions per block of ``build_distill_dataset``.  Every committed
# cache row is visible to every tree row, so a block's rollouts are verified
# before its chain is committed; blocks bound the largest tree at
# BLOCK * (horizon + 1) rows for any sequence length.
BLOCK = 16

# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

DATASET_MAGIC = "REDRAFT-DISTILL v4"


@dataclass(eq=False)
class DistillDataset:
    """Distillation examples as rows of arrays, one per kept corpus position,
    in corpus order.

    Row i's context is a committed prefix followed by ``guaranteed[i]``;
    ``h[i]`` is the base hidden state at the prefix's last token and
    ``teacher[i]`` the horizon tokens after the guaranteed one, so
    ``teacher.shape[1]`` is the horizon.  Fields whose shapes are not
    ``(N,)``, ``(N, horizon >= 1)`` and ``(N, d_model)`` raise ``ShapeError``.
    """

    guaranteed: np.ndarray   # (N,) int64
    teacher: np.ndarray      # (N, horizon) int64
    h: np.ndarray            # (N, d_model) float32

    def __post_init__(self):
        g, t, h = self.guaranteed.shape, self.teacher.shape, self.h.shape
        if not (len(g) == 1 and len(t) == len(h) == 2 and g[0] == t[0] == h[0] and t[1] >= 1):
            raise ShapeError(f"rows of shapes guaranteed {g}, teacher {t} and h {h}: expected "
                             "(N,), (N, horizon >= 1) and (N, d_model)")

    def __len__(self):
        return self.guaranteed.shape[0]


def _dataset(base, horizon, rows):
    """The ``DistillDataset`` of row chunks ``(guaranteed, teacher, h)``, in
    order; a leading empty chunk gives every field its shape when there is
    no row."""
    empty = (np.empty(0, np.int64), np.empty((0, horizon), np.int64),
             np.empty((0, base.config.d_model), np.float32))
    return DistillDataset(*(np.concatenate(field) for field in zip(empty, *rows)))


def _check_horizon(horizon):
    check_integers(ContractError, horizon=horizon)
    if horizon < 1:
        raise ContractError(f"need horizon >= 1, got {horizon}")


@dataclass
class TrainConfig:
    horizon: int = 5
    learning_rate: float = 1e-3
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        _check_horizon(self.horizon)
        check_integers(ContractError, epochs=self.epochs, batch_size=self.batch_size,
                       seed=self.seed)
        # isinstance first: math.isfinite raises a bare TypeError for a string or None
        if not (isinstance(self.learning_rate, numbers.Real)
                and math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ContractError(f"need a finite learning_rate >= 0, got {self.learning_rate!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractError(f"need epochs >= 1 and batch_size >= 1, got epochs "
                                f"{self.epochs} and batch_size {self.batch_size}")
        if self.seed < 0:
            raise ContractError(f"need seed >= 0, got {self.seed}")


def build_distill_dataset(base, corpus, horizon):
    """A ``DistillDataset`` with one row per corpus position: the guaranteed
    token after the prefix ending there, the greedy horizon-token rollout
    after it, and h.

    A sequence goes through in blocks of ``BLOCK`` positions on a cache that
    holds everything before the block.  A block is one tree: its chain, and
    under each kept prefix's chain node the guaranteed token and rollout of
    that prefix, a level per token.  Round k's tree holds the tokens known by
    then, the chain and levels 0 .. k - 1.  Round 0 forwards the chain for
    each prefix's h and guaranteed token; round k = 1 .. horizon forwards
    only the nodes of level k - 1, the nodes before them being the previous
    forward's, whose K/V the cache's tail holds.  The lowest-index argmax at
    a forwarded node is its rollout's next token.  A block thus forwards
    ``size + horizon * kept`` rows, against ``size * (horizon + 1) + kept *
    horizon * (horizon + 1) / 2`` if every round verified the whole tree.
    The cache is visible to every tree row, so the chain is committed after
    the last round, through that round's tree, whose first ``size`` nodes it
    is; blocks keep the trees at most ``BLOCK * (horizon + 1)`` rows,
    whatever the sequence length.  A block's rows are kept as slices of its
    forwards' outputs and joined at the end.

    A sequence that is not 1-D is a ``ShapeError``, as in ``forward_context``.
    Sequences of length <= 1 (or positions without rollout headroom) are
    skipped; the skip count is logged.  A sequence longer than the base's
    ``max_seq_len`` raises its ``CapacityError`` at the round-0 forward of
    the block that crosses the window.
    """
    _check_horizon(horizon)
    max_len = base.config.max_seq_len
    rows = []
    skipped = 0
    for seq in corpus:
        seq = check_tokens(seq, base.config.vocab_size, ndim=1)
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
            parents = np.concatenate([np.arange(-1, size - 1), np.arange(kept),
                                      size + np.arange((horizon - 1) * kept)])
            for k in range(horizon + 1 if kept else 1):
                # round k's tree is the chain and levels[:k], whose tokens are
                # known; the last forward left all but its last level in the tail
                nodes = size + k * kept
                tree = beam.DraftTree(tokens[:nodes], parents[:nodes])
                out, spec_state = base.forward_packed(tree, cache, nodes - kept if k else 0)
                levels[k] = out.logits[:kept].argmax(axis=1)
                if not k:
                    hidden = out.hidden  # h of each prefix the chain ends
            rows.append((levels[0], levels[1:].T, hidden[:kept]))
            base.commit_accepted(cache, tree, spec_state, np.arange(size))
    if skipped:
        log.warning("distill dataset: skipped %d short/overflowing positions", skipped)
    return _dataset(base, horizon, rows)


def ground_truth_dataset(base, corpus, horizon):
    """Control arm: the guaranteed token and the teacher are the corpus's own
    continuation.

    The base model still supplies the hidden states the draft head conditions
    on.  Positions within ``horizon + 1`` of the sequence end are skipped,
    and a sequence that is not 1-D is a ``ShapeError``.
    """
    _check_horizon(horizon)
    rows = []
    skipped = 0
    for seq in corpus:
        seq = check_tokens(seq, base.config.vocab_size, ndim=1)
        # prefixes of 1 .. n committed tokens, each followed by its corpus
        # token and a teacher of the next horizon
        n = seq.shape[0] - horizon - 1
        if n <= 0:
            skipped += 1
            continue
        # h is the hidden state at each prefix's last token: the rows of one
        # prefill of the longest prefix, each bit for bit its prefix's forward
        rows.append((seq[1:n + 1], np.lib.stride_tricks.sliding_window_view(seq[2:], horizon),
                     base.forward_context(seq[:n], base.new_cache()).hidden))
    if skipped:
        log.warning("ground-truth dataset: skipped %d short sequences", skipped)
    return _dataset(base, horizon, rows)


DATASET_TENSORS = ("guaranteed", "teacher", "h", "embeddings")


def write_dataset(prefix, dataset, embeddings):
    """Write a ``DistillDataset`` and the ``(vocab, d_model)`` token
    embeddings of the base that built it as a ``weights`` tensor file of
    ``DATASET_TENSORS``: ``guaranteed`` and ``teacher`` as int64, ``h`` and
    ``embeddings`` as float32.  The header is empty: the teacher's width is
    the horizon."""
    weights.save_tensors(prefix, DATASET_MAGIC, zip(DATASET_TENSORS, (
        dataset.guaranteed, dataset.teacher, dataset.h, embeddings)))


def read_dataset(prefix):
    """Load a ``write_dataset`` file as ``(DistillDataset, embeddings)``; the
    embeddings' rows are the vocab.  A malformed file raises a
    ``FormatError`` naming its manifest."""
    def check(ok, message):
        if not ok:
            raise FormatError(message)

    with weights.naming(prefix):
        header, tensors = weights.load_tensors(prefix, DATASET_MAGIC)
        check(not header, f"header {header} must be empty")
        check(sorted(tensors) == sorted(DATASET_TENSORS),
              f"holds tensors {list(tensors)}, expected {list(DATASET_TENSORS)}")
        for name, arr in tensors.items():
            dtype = np.dtype(np.float32 if name in ("h", "embeddings") else np.int64)
            check(arr.dtype == dtype, f"tensor {name} is {arr.dtype}, expected {dtype}")
        guaranteed, teacher, h, embeddings = (tensors[name] for name in DATASET_TENSORS)
        dataset = DistillDataset(guaranteed, teacher, h)
        check(embeddings.ndim == 2 and embeddings.size and h.shape[1] == embeddings.shape[1],
              f"embeddings {embeddings.shape} must be (vocab, d_model) for h {h.shape}, "
              f"neither 0")
        vocab = embeddings.shape[0]
        for name, arr in (("guaranteed", guaranteed), ("teacher", teacher)):
            check(((arr >= 0) & (arr < vocab)).all(),
                  f"tensor {name}: token id outside vocab of size {vocab}")
    return dataset, embeddings


def train_drafter(dataset, params_init, cfg, embeddings):
    """Adam on the mean teacher-forced loss over a ``DistillDataset``.
    Deterministic for a fixed seed.

    Each batch gathers its rows: ``h``, the embedding of the guaranteed
    token (the recurrence's start state) and the teacher.  Training and Adam
    (Kingma & Ba, arXiv 1412.6980) run in ``params_init``'s dtype: the
    moments update in place over the one buffer the parameters view, and a
    step is Adam's bias-corrected formula, one expression.  Returns the
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
    if dataset.h.shape[1] != d_s:
        raise ShapeError(f"dataset hidden states {dataset.h.shape} are not the drafter's "
                         f"width {d_s}")
    check_tokens(dataset.guaranteed, vocab)
    check_tokens(dataset.teacher, vocab)

    params = params_init.flat_copy()
    m = np.zeros_like(params.flat)  # Adam's first and second moments
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
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            params.flat -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        curve.append(epoch_loss / (n * cfg.horizon))
    return params, curve


def sample_markov_corpus(seed, n_sequences=500, seq_len=64, vocab_size=32):
    """Corpus drawn from a seeded random order-2 Markov chain (softmax-sampled).

    Built from its own transition table, so it is distinct from any
    SyntheticMarkovModel's greedy chains.
    """
    check_integers(ContractError, seed=seed, n_sequences=n_sequences, seq_len=seq_len,
                   vocab_size=vocab_size)
    if seq_len < 2:
        raise ContractError(f"an order-2 chain seeds 2 tokens: need seq_len >= 2, got {seq_len}")
    if seed < 0 or n_sequences < 0 or vocab_size < 1:
        raise ContractError(f"need seed >= 0, n_sequences >= 0 and vocab_size >= 1, got "
                            f"{seed}, {n_sequences} and {vocab_size}")
    rng = np.random.default_rng(seed)
    table = rng.normal(0.0, 1.5, (vocab_size ** 2, vocab_size))
    # each token is ``rng.choice(vocab_size, p=p)`` bit for bit: choice draws
    # one ``rng.random()`` and searches it in the normalized cumulative sum of
    # p, so each state's CDF is built once, on its first visit, the same way
    cdfs = {}
    sequences = []
    for _ in range(n_sequences):
        seq = [int(rng.integers(vocab_size)) for _ in range(2)]
        while len(seq) < seq_len:
            state = seq[-2] * vocab_size + seq[-1]
            cdf = cdfs.get(state)
            if cdf is None:
                z = table[state]
                z = z - z.max()
                cdf = (np.exp(z) / np.exp(z).sum()).cumsum()
                cdf /= cdf[-1]
                cdfs[state] = cdf
            seq.append(int(cdf.searchsorted(rng.random(), side="right")))
        sequences.append(np.asarray(seq, np.int64))
    return sequences


def greedy_corpus(base, prompts, n_new):
    """The base's own greedy text: each prompt followed by the ``n_new``
    tokens ``decode.autoregressive_generate`` continues it with, as int64
    arrays for ``build_distill_dataset``.  This is the paper's recipe, a
    draft head distilled on the LLM's own outputs; at a generated position
    the greedy rollout is the text itself.  ``forward_context`` checks each
    prompt, and a prompt with no room for ``n_new`` tokens in the base's
    window is a ``CapacityError``."""
    check_integers(ContractError, n_new=n_new)
    if n_new < 1:
        raise ContractError(f"need n_new >= 1, got {n_new}")
    cfg = decode.DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=n_new)
    return [np.concatenate([np.asarray(prompt, np.int64),
                            decode.autoregressive_generate(base, prompt, cfg)])
            for prompt in prompts]
