"""Draft-side beam search and the dynamic tree structure over its output.

Candidate sequences all have the same length, which lets shared prefixes be
found with plain tensor operations (elementwise match matrix, cumulative sum,
first-match argmax) instead of a trie.  The deduplicated beam is flattened
into a "packed" token tree rooted at the step's guaranteed token, whose
ancestor-closure mask drives tree-masked verification in the base model.
"""

from dataclasses import dataclass

import numpy as np

from . import drafter
from .errors import ConfigError

ROOT_PARENT = -1  # parent index of the root node


@dataclass
class Beam:
    """Fixed-length candidate sequences, best first.

    Rows are sorted by cumulative drafter log-probability descending, ties by
    ascending row index.
    """

    tokens: np.ndarray   # (beam_width, beam_length) int64
    logp: np.ndarray     # (beam_width,) float64 cumulative log-probabilities

    @property
    def width(self):
        return self.tokens.shape[0]

    @property
    def length(self):
        return self.tokens.shape[1]


@dataclass
class TreeMask:
    """Ancestor-closure attention mask over packed tree nodes."""

    allowed: np.ndarray   # (n, n) bool; allowed[i, j] iff j is i or an ancestor of i


@dataclass
class PackedBeam:
    """Deduplicated beam flattened into a token tree rooted at the guaranteed
    token, plus the bookkeeping to map candidates back to tree nodes.

    Node 0 is the root.  Draft token (i, j) of the beam sits at depth j + 1,
    so a node's depth is its offset from the root's absolute position.
    """

    tokens: np.ndarray          # (n,) root then draft tokens, candidate-major order
    parents: np.ndarray         # (n,) parent node, ROOT_PARENT for the root
    depths: np.ndarray          # (n,) 0 for the root
    candidate_node: np.ndarray  # (beam_width, beam_length) -> node index (>= 1)
    mask: TreeMask

    @property
    def n(self):
        return self.tokens.shape[0]

    def candidate_path(self, i):
        """Node indices of candidate i's draft tokens, root excluded."""
        return self.candidate_node[i]


def beam_search(params, embeddings, h, last_token, beam_width, beam_length):
    """Beam search over drafter log-probabilities.

    Expansion is vocabulary-wide (exact at small vocab sizes); scores are pure
    cumulative log-probabilities, and ties keep the lower flat expansion index
    so runs are deterministic.  Each row of the head input ``x`` is one
    candidate's ``[s | h]``: ``h`` is written once, and each recurrence step
    overwrites only the ``s`` columns.
    """
    if beam_width < 1 or beam_length < 1:
        raise ConfigError("beam_width and beam_length must be >= 1")
    vocab = params.vocab_size
    if beam_width > vocab:
        raise ConfigError(f"beam_width {beam_width} exceeds vocab size {vocab}")

    emb = np.asarray(embeddings, dtype=np.float64)
    state0 = drafter.init_state(h, last_token, emb)
    # the input term of the recurrence, w @ e + b, for every token at once
    token_term = emb @ params.w.T + params.b
    d_s = params.d_s
    x = np.empty((beam_width, d_s + params.d_model))
    x[:, d_s:] = state0.h
    x[0, :d_s] = state0.s
    cum_logp = np.zeros(1)
    tokens = np.zeros((beam_width, beam_length), dtype=np.int64)

    for depth in range(beam_length):
        # one live row at depth 0, beam_width rows after it
        logp = drafter.head_logp_batch(x[:cum_logp.size], params)
        scores = (cum_logp[:, None] + logp).ravel()
        keep = np.argsort(-scores, kind="stable")[:beam_width]
        parent = keep // vocab
        tok = keep % vocab
        tokens[:, :depth] = tokens[parent, :depth]
        tokens[:, depth] = tok
        cum_logp = scores[keep]
        # the last depth's states would feed no head, so they are not computed
        if depth + 1 < beam_length:
            x[:, :d_s] = drafter.step_batch(x[parent, :d_s], token_term[tok], params)

    return Beam(tokens=tokens, logp=cum_logp)


def dedup_prefix(tokens):
    """For each candidate prefix, the smallest candidate index sharing it.

    Returns a (beam_width, beam_length) table where entry (i, j) = k means
    tokens[i][:j+1] == tokens[k][:j+1] and no smaller k qualifies.  Pure
    tensor construction: a pairwise token-match cube, a cumulative sum turning
    token matches into full-prefix matches, and a lowest-index argmax.
    """
    tokens = np.asarray(tokens)
    width, length = tokens.shape
    matches = tokens[:, None, :] == tokens[None, :, :]          # (i, k, pos)
    seq_matches = np.cumsum(matches, axis=2) == np.arange(1, length + 1)
    return np.argmax(seq_matches, axis=1)                        # ties -> lowest k


def pack_beam(beam, root):
    """Flatten a beam under a ``root`` token, one node per distinct prefix.

    A token (i, j) owns a node iff ``dedup_prefix`` maps it to i; other
    candidates reference the owner's node.  Node order is the root, then
    candidate-major, position-minor, so parents always precede children.
    """
    tokens = np.asarray(beam.tokens)
    prefix_tree = dedup_prefix(tokens)
    width, length = tokens.shape

    owner = prefix_tree == np.arange(width)[:, None]
    cand, pos = np.nonzero(owner)  # owners in candidate-major order
    n = 1 + cand.size
    # owners are numbered from 1 in that order; other entries read their owner's number
    candidate_node = np.cumsum(owner).reshape(width, length)[prefix_tree, np.arange(length)]
    # anc[a, d]: the ancestor of node a at depth d, the root past a's own depth
    anc = np.zeros((n, length + 1), dtype=np.int64)
    anc[1:, 1:] = np.where(np.arange(length) <= pos[:, None], candidate_node[cand], 0)
    allowed = np.zeros((n, n), dtype=bool)
    allowed[np.arange(n)[:, None], anc] = True
    depths = np.concatenate(([0], pos + 1))
    parents = anc[np.arange(n), depths - 1]
    parents[0] = ROOT_PARENT
    return PackedBeam(tokens=np.concatenate(([root], tokens[cand, pos])).astype(np.int64),
                      parents=parents, depths=depths, candidate_node=candidate_node,
                      mask=TreeMask(allowed=allowed))


def compression_ratio(beam, packed):
    """Candidate tokens, each candidate counting the shared root, divided by
    packed nodes (>= 1)."""
    return (beam.width * (beam.length + 1)) / packed.n
