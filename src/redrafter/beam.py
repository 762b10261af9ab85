"""Draft-side beam search and the token trees verified over its output.

Beam search records, at every depth, each kept row's token, its backpointer
to the row it extends and its cumulative log-probability (a
``BeamLattice``).  Every (depth, row) pair is a distinct prefix, so the
lattice already is a deduplicated tree: the decode step keeps its
``beam_width + beam_length`` most probable prefixes as the draft tree
(``BeamLattice.tree``), in the spirit of EAGLE-2's dynamic draft trees.

Candidate lists from elsewhere, which may repeat prefixes, go through the
paper's dynamic tree attention instead: candidates share one length, so
shared prefixes are found with plain tensor operations (elementwise match
matrix, cumulative sum, first-match argmax) instead of a trie
(``dedup_prefix``), and ``pack_beam`` flattens the result.  Both routes end
in one ``DraftTree`` constructor, whose ancestor table drives the
tree-masked verification forward and the greedy verify rule.
"""

from dataclasses import dataclass

import numpy as np

from . import drafter
from .errors import ConfigError, ContractError

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
class DraftTree:
    """A token tree rooted at a step's guaranteed token, verified in one
    tree-masked forward of the base model.

    Node 0 is the root; the trees built here list each parent before its
    children.  A node's depth is its offset from the root's absolute
    position.  Row ``i`` of ``ancestors`` lists node i's path by depth, root
    first and i itself at column ``depths[i]``; columns past its depth hold
    the root.
    """

    tokens: np.ndarray     # (n,) int64, the root first
    parents: np.ndarray    # (n,) parent node, ROOT_PARENT for the root
    depths: np.ndarray     # (n,) 0 for the root
    ancestors: np.ndarray  # (n, max depth + 1) node at each depth of a node's path
    mask: np.ndarray       # (n, n) bool; mask[i, j] iff j is i or an ancestor of i

    @property
    def n(self):
        return self.tokens.shape[0]

    @classmethod
    def from_parents(cls, tokens, parents, **fields):
        """The tree whose node i holds ``tokens[i]`` below ``parents[i]``;
        depths, ancestors and mask follow from the parents."""
        tokens = np.asarray(tokens, dtype=np.int64)
        parents = np.asarray(parents, dtype=np.int64)
        n = parents.shape[0]
        up = np.maximum(parents, 0)  # the root stands in for its own parent
        # chain[k]: each node's ancestor k levels up, the root once the path ends
        nodes = np.arange(n)
        chain = [nodes]
        for _ in range(n):
            if not np.count_nonzero(chain[-1]):
                break
            chain.append(up[chain[-1]])
        else:
            raise ContractError("parents do not form a tree rooted at node 0")
        chain = np.array(chain)
        depths = (chain > 0).sum(axis=0)
        # by depth: column d is chain row depth - d, and past the node's
        # depth the last chain row, which is the root for every node
        ancestors = chain[np.maximum(depths[:, None] - np.arange(chain.shape[0]), -1),
                          nodes[:, None]]
        mask = np.zeros((n, n), dtype=bool)
        mask[nodes, chain] = True
        return cls(tokens=tokens, parents=parents, depths=depths, ancestors=ancestors,
                   mask=mask, **fields)


def chain_tree(root, drafts):
    """A single path: the root, then each draft below the one before it."""
    drafts = list(drafts)
    return DraftTree.from_parents([root] + drafts, [ROOT_PARENT] + list(range(len(drafts))))


@dataclass
class BeamLattice:
    """Every row beam search kept, depth by depth, best first within a depth.

    Row r at depth d extends row ``parents[d, r]`` of depth d - 1 (the root
    at depth 0) by ``tokens[d, r]``, and ``logp[d, r]`` is that prefix's
    cumulative drafter log-probability.  Each row is a distinct (parent row,
    token) pair, so every (depth, row) pair is a distinct prefix.
    """

    tokens: np.ndarray   # (beam_length, beam_width) int64
    parents: np.ndarray  # (beam_length, beam_width) int64 row at the previous depth
    logp: np.ndarray     # (beam_length, beam_width) float64

    def candidates(self):
        """The last depth's rows as full candidate sequences, by backtracking."""
        length, width = self.tokens.shape
        tokens = np.empty((width, length), dtype=np.int64)
        row = np.arange(width)
        for depth in range(length - 1, -1, -1):
            tokens[:, depth] = self.tokens[depth, row]
            row = self.parents[depth, row]
        return Beam(tokens=tokens, logp=self.logp[-1].copy())

    def tree(self, root, budget=None):
        """The draft tree of the ``budget`` most probable prefixes under ``root``.

        The budget defaults to ``beam_width + beam_length`` draft nodes and is
        capped by the rows the lattice holds; with width 1 the whole chain is
        kept.  A drafter log-probability is never positive, so a prefix never
        outscores its parent, and ties go to the lower depth-major index,
        which is the shallower row: the kept set is ancestor-closed.  Nodes
        follow the root in depth-major order.
        """
        length, width = self.tokens.shape
        if budget is None:
            budget = width + length
        keep = np.sort(np.argsort(-self.logp.ravel(), kind="stable")[:budget])
        # node numbers by flat index, shifted one depth down: the first width
        # slots stand for the root, so depth-0 rows find it as their parent
        node = np.zeros((length + 1) * width, dtype=np.int64)
        node[keep + width] = np.arange(1, keep.size + 1)
        parents = node[keep - keep % width + self.parents.ravel()[keep]]
        return DraftTree.from_parents(np.concatenate(([root], self.tokens.ravel()[keep])),
                                      np.concatenate(([ROOT_PARENT], parents)))


def beam_search(params, embeddings, h, last_token, beam_width, beam_length, token_term=None):
    """Beam search over drafter log-probabilities; returns its ``BeamLattice``.

    Expansion is vocabulary-wide (exact at small vocab sizes); scores are pure
    cumulative log-probabilities, and ties keep the lower flat expansion index
    so runs are deterministic.  Each row of the head input ``x`` is one
    beam row's ``[s | h]``: ``h`` is written once, and each recurrence step
    overwrites only the ``s`` columns.  ``token_term`` is the recurrence's
    input term ``w @ e + b`` for every token; it is computed here when not
    given.
    """
    if beam_width < 1 or beam_length < 1:
        raise ConfigError("beam_width and beam_length must be >= 1")
    vocab = params.vocab_size
    if beam_width > vocab:
        raise ConfigError(f"beam_width {beam_width} exceeds vocab size {vocab}")

    emb = np.asarray(embeddings, dtype=np.float64)
    state0 = drafter.init_state(h, last_token, emb)
    if token_term is None:
        token_term = emb @ params.w.T + params.b
    d_s = params.d_s
    x = np.empty((beam_width, d_s + params.d_model))
    x[:, d_s:] = state0.h
    x[0, :d_s] = state0.s
    cum_logp = np.zeros(1)
    tokens = np.empty((beam_length, beam_width), dtype=np.int64)
    parents = np.empty((beam_length, beam_width), dtype=np.int64)
    logps = np.empty((beam_length, beam_width))

    for depth in range(beam_length):
        # one live row at depth 0, beam_width rows after it
        logp = drafter.head_logp_batch(x[:cum_logp.size], params)
        scores = (cum_logp[:, None] + logp).ravel()
        keep = np.argsort(-scores, kind="stable")[:beam_width]
        parent, tok = np.divmod(keep, vocab)
        tokens[depth] = tok
        parents[depth] = parent
        cum_logp = logps[depth] = scores[keep]
        # the last depth's states would feed no head, so they are not computed
        if depth + 1 < beam_length:
            x[:, :d_s] = drafter.step_batch(x[parent, :d_s], token_term[tok], params)

    return BeamLattice(tokens=tokens, parents=parents, logp=logps)


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


@dataclass
class PackedBeam(DraftTree):
    """A deduplicated candidate list as a draft tree, plus each candidate
    token's node: draft token (i, j) of the beam sits at depth j + 1."""

    candidate_node: np.ndarray  # (beam_width, beam_length) -> node index (>= 1)


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
    # owners are numbered from 1 in that order; other entries read their owner's number
    candidate_node = np.cumsum(owner).reshape(width, length)[prefix_tree, np.arange(length)]
    # a first token hangs from the root (its wrapped-around index is unread)
    parents = np.where(pos == 0, 0, candidate_node[cand, pos - 1])
    return PackedBeam.from_parents(np.concatenate(([root], tokens[cand, pos])),
                                   np.concatenate(([ROOT_PARENT], parents)),
                                   candidate_node=candidate_node)


def compression_ratio(beam, packed):
    """Candidate tokens, each candidate counting the shared root, divided by
    packed nodes (>= 1)."""
    return (beam.width * (beam.length + 1)) / packed.n
