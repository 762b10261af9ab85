"""Draft-side beam search and the token trees verified over its output.

Beam search records, at every depth, each kept row's token, its backpointer
to the row it extends and its cumulative log-probability (a
``BeamLattice``).  Every (depth, row) pair is a distinct prefix, so the
lattice already is a deduplicated tree: the decode step keeps its
``beam_width + beam_length`` most probable prefixes as the draft tree
(``BeamLattice.tree``), in the spirit of EAGLE-2's dynamic draft trees.  Only
the kept rows' backpointers are followed, one gather for their parent nodes.

Candidate lists from elsewhere, which may repeat prefixes, go through the
paper's dynamic tree attention instead: candidates share one length, so
shared prefixes are found with plain tensor operations (elementwise match
matrix, cumulative sum, first-match argmax) instead of a trie
(``dedup_prefix``), and ``pack_beam`` flattens the result.  Every tree, from
either route or ``chain_tree``, comes from one constructor,
``DraftTree.from_parents``, which derives depths and the mask from the
parent of each node.  The mask serves both the tree-masked verification
forward and the greedy verify rule.
"""

from dataclasses import dataclass

import numpy as np

from . import drafter
from .errors import ConfigError, ContractError

ROOT_PARENT = -1  # parent index of the root node


@dataclass
class DraftTree:
    """A token tree rooted at a step's guaranteed token, verified in one
    tree-masked forward of the base model.

    Node 0 is the root, and each parent comes before its children, so the
    nodes of mask row ``i`` in ascending order are node i's path from the
    root down.  A node's depth is its offset from the root's absolute
    position.
    """

    tokens: np.ndarray   # (n,) int64, the root first
    parents: np.ndarray  # (n,) parent node, ROOT_PARENT for the root
    depths: np.ndarray   # (n,) 0 for the root
    mask: np.ndarray     # (n, n) bool; mask[i, j] iff j is i or an ancestor of i

    @property
    def n(self):
        return self.tokens.shape[0]

    @classmethod
    def from_parents(cls, tokens, parents):
        """The tree whose node i holds ``tokens[i]`` below ``parents[i]``;
        depths and mask follow from the parents.  Node 0 is the root, and
        every other node's parent precedes it."""
        tokens = np.asarray(tokens, dtype=np.int64)
        parents = np.asarray(parents, dtype=np.int64)
        n = parents.shape[0]
        nodes = np.arange(n)
        rest = parents[1:]
        if (not n or parents[0] != ROOT_PARENT
                or np.count_nonzero((rest < 0) | (rest >= nodes[1:]))):
            raise ContractError("parents must be ROOT_PARENT for node 0 and an "
                                "earlier node for every other node")
        up = np.maximum(parents, 0)  # the root stands in for its own parent
        # chain[k]: each node's ancestor k levels up, the root once the path ends
        chain = [nodes]
        while np.count_nonzero(chain[-1]):
            chain.append(up[chain[-1]])
        chain = np.array(chain)
        depths = (chain > 0).sum(axis=0)
        mask = np.zeros((n, n), dtype=bool)
        mask[nodes, chain] = True
        return cls(tokens=tokens, parents=parents, depths=depths, mask=mask)


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

    def tree(self, root):
        """The draft tree of the ``beam_width + beam_length`` best prefixes under ``root``.

        The budget is capped by the rows the lattice holds; with width 1 the
        whole chain is kept.  A drafter log-probability is never positive, so
        a prefix never outscores its parent, and ties go to the lower
        depth-major index, which is the shallower row: the kept set is
        ancestor-closed.  Nodes follow the root in depth-major order, so
        parents come before their children.  This picks the kept rows and
        their parent nodes only; ``DraftTree.from_parents`` builds the tree,
        as it does every other.
        """
        length, width = self.tokens.shape
        keep = np.sort(np.argsort(-self.logp.ravel(), kind="stable")[:width + length])
        # node numbers by depth-major flat index, shifted one depth down past
        # a slab standing for the root: a row's parent sits at depth - 1
        node = np.zeros((length + 1) * width, dtype=np.int64)
        node[keep + width] = np.arange(1, keep.size + 1)
        parents = node[keep - keep % width + self.parents.ravel()[keep]]
        return DraftTree.from_parents(np.concatenate(([root], self.tokens.ravel()[keep])),
                                      np.concatenate(([ROOT_PARENT], parents)))


def beam_search(params, embeddings, h, last_token, beam_width, beam_length, token_term=None):
    """Beam search over drafter log-probabilities; returns its ``BeamLattice``.

    Expansion is vocabulary-wide (exact at small vocab sizes); scores are pure
    cumulative log-probabilities, and ties keep the lower flat expansion index
    so runs are deterministic: each of the ``beam_width`` picks is an
    ``argmax``, which returns the lowest index among equal maxima, and masks
    its pick with -inf, which gives the order of a stable descending sort of
    the (finite) scores.  Each row of the head input ``x`` is one
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
    x = np.empty((beam_width, 2 * d_s))
    x[:, d_s:] = state0.h
    x[0, :d_s] = state0.s
    tokens = np.empty((beam_length, beam_width), dtype=np.int64)
    parents = np.empty((beam_length, beam_width), dtype=np.int64)
    logps = np.empty((beam_length, beam_width))

    keep = np.empty(beam_width, dtype=np.int64)
    for depth in range(beam_length):
        # one live row at depth 0, beam_width rows after it
        scores = drafter.head_logp_batch(x[:1 if depth == 0 else beam_width], params)
        # at depth 0 the cumulative score is 0, and 0 + logp is logp (never -0.0)
        if depth:
            scores += logps[depth - 1][:, None]
        scores = scores.ravel()
        cum_logp = logps[depth]
        for pick in range(beam_width):
            keep[pick] = best = scores.argmax()
            cum_logp[pick] = scores[best]
            scores[best] = -np.inf
        parent, tok = np.divmod(keep, vocab, out=(parents[depth], tokens[depth]))
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


def pack_beam(tokens, root):
    """Flatten candidate rows under a ``root`` token, one node per distinct prefix.

    ``tokens`` is a (width, length) array of candidates.  A token (i, j) owns
    a node iff ``dedup_prefix`` maps it to i; other candidates reference the
    owner's node.  Node order is the root, then candidate-major,
    position-minor, so parents always precede children.  Returns the
    ``DraftTree`` and each candidate token's node, a (width, length) array of
    indices >= 1: token (i, j) sits at depth j + 1.
    """
    tokens = np.asarray(tokens)
    prefix_tree = dedup_prefix(tokens)
    width, length = tokens.shape

    owner = prefix_tree == np.arange(width)[:, None]
    cand, pos = np.nonzero(owner)  # owners in candidate-major order
    # owners are numbered from 1 in that order; other entries read their owner's number
    candidate_node = np.cumsum(owner).reshape(width, length)[prefix_tree, np.arange(length)]
    # a first token hangs from the root (its wrapped-around index is unread)
    parents = np.where(pos == 0, 0, candidate_node[cand, pos - 1])
    tree = DraftTree.from_parents(np.concatenate(([root], tokens[cand, pos])),
                                  np.concatenate(([ROOT_PARENT], parents)))
    return tree, candidate_node
