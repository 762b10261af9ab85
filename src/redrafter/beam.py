"""Draft-side beam search and the token trees verified over its output.

Beam search records, at every depth, each kept row's token, its backpointer
to the row it extends and its cumulative log-probability (a
``BeamLattice``).  Every (depth, row) pair is a distinct prefix, so the
lattice already is a deduplicated tree: the decode step keeps its
``beam_width + beam_length`` most probable prefixes as the draft tree
(``BeamLattice.tree``), in the spirit of EAGLE-2's dynamic draft trees.  Only
the kept rows' backpointers are followed, in one pass over the kept rows.

Candidate lists from elsewhere, which may repeat prefixes, go through the
paper's dynamic tree attention instead: candidates share one length, so
shared prefixes are found with plain tensor operations (elementwise match
matrix, cumulative sum, first-match argmax) instead of a trie
(``dedup_prefix``), and ``pack_beam`` flattens the result.  A tree is its
tokens and parents: every tree, from either route or any caller, comes from
its one constructor, ``DraftTree(tokens, parents)``, which copies them,
derives depths and the mask in one pass over the parents (a node's mask
row is its parent's row plus the node) and makes all four read-only.  The
mask serves both the tree-masked verification forward and the commit's
path.
"""

from dataclasses import dataclass, field

import numpy as np

from . import drafter
from .errors import ConfigError, ContractError, ShapeError, VocabError, int64_array

ROOT_PARENT = -1  # parent index of the root node
_MASKED = np.float32(-np.inf)  # a picked score; a NumPy scalar stores without a conversion
_PARENTS_RULE = "parents must be ROOT_PARENT for node 0 and an earlier node for every other node"


@dataclass(frozen=True, eq=False)
class DraftTree:
    """A token tree rooted at a step's guaranteed token, verified in one
    tree-masked forward of the base model.

    Node i holds ``tokens[i]`` below node ``parents[i]``: node 0 is the root
    and each other node's parent precedes it, so one pass in node order
    derives each depth and mask row from the parent's, and mask row i's nodes
    in ascending order are node i's path from the root down.  A node's depth
    is its offset from the root's absolute position.  Frozen: no field can
    be assigned, and the tree owns its four arrays, copied from the caller's
    and read-only, so no write can part the depths or mask from the parents.
    """

    tokens: np.ndarray   # (n,) int64, the root first
    parents: np.ndarray  # (n,) int64 parent node, ROOT_PARENT for the root
    depths: np.ndarray = field(init=False)  # (n,) int64, 0 for the root
    mask: np.ndarray = field(init=False)    # (n, n) bool; [i, j] iff j is i or an ancestor of i

    @property
    def n(self):
        return self.tokens.shape[0]

    def __post_init__(self):
        tokens = int64_array(self.tokens, VocabError, "token ids")
        parents = int64_array(self.parents, ContractError, "parents")
        if tokens.ndim != 1 or parents.shape != tokens.shape:
            raise ContractError(f"tokens {tokens.shape} and parents {parents.shape} must be "
                                "1-D and of one length")
        up = parents.tolist()
        n = len(up)
        if not n or up[0] != ROOT_PARENT:
            raise ContractError(_PARENTS_RULE)
        # one pass: node i's mask row is its parent's row plus i
        rows, depths = [bytearray(n)], [0]
        rows[0][0] = True
        for i in range(1, n):
            parent = up[i]
            if not 0 <= parent < i:
                raise ContractError(_PARENTS_RULE)
            row = rows[parent][:]
            row[i] = True
            rows.append(row)
            depths.append(depths[parent] + 1)
        # copies the tree owns, made read-only; a mask over bytes is read-only already
        tokens, parents, depths = tokens.copy(), parents.copy(), np.array(depths, dtype=np.int64)
        for arr in (tokens, parents, depths):
            arr.setflags(write=False)
        put = object.__setattr__  # a frozen dataclass's own way to set a field
        put(self, "tokens", tokens)
        put(self, "parents", parents)
        put(self, "depths", depths)
        put(self, "mask", np.frombuffer(b"".join(rows), dtype=bool).reshape(n, n))


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
    logp: np.ndarray     # (beam_length, beam_width), in the drafter's dtype

    def tree(self, root):
        """The draft tree of the ``beam_width + beam_length`` best prefixes under ``root``.

        The budget is capped by the rows the lattice holds; with width 1 the
        whole chain is kept.  A drafter log-probability is never positive, so
        a prefix never outscores its parent, and ties go to the lower
        depth-major index, which is the shallower row: the kept set is
        ancestor-closed.  Nodes follow the root in depth-major order, so
        parents come before their children.  This picks the kept rows and
        their parent nodes only, in one pass over the kept rows;
        ``DraftTree`` builds the tree, as it does every other.
        """
        length, width = self.tokens.shape
        keep = sorted(np.argsort(-self.logp.ravel(), kind="stable")[:width + length].tolist())
        rows, tokens = self.parents.ravel().tolist(), self.tokens.ravel().tolist()
        # node numbers by depth-major flat index, shifted one depth down past
        # a slab standing for the root: a row's parent sits at depth - 1
        node = [0] * ((length + 1) * width)
        parents = [ROOT_PARENT]
        for i, k in enumerate(keep, 1):
            node[k + width] = i
            parents.append(node[k - k % width + rows[k]])
        return DraftTree([root] + [tokens[k] for k in keep], parents)


def beam_search(params, embeddings, h, last_token, beam_width, beam_length, token_term):
    """Beam search over drafter log-probabilities; returns its ``BeamLattice``.

    Expansion is vocabulary-wide (exact at small vocab sizes); scores are pure
    cumulative log-probabilities, and ties keep the lower flat expansion index
    so runs are deterministic: each of the ``beam_width`` picks is an
    ``argmax``, which returns the lowest index among equal maxima, and masks
    its pick with -inf, which gives the order of a stable descending sort of
    the (finite) scores.  Each row of the head input ``x`` is one beam
    row's ``[s | h]`` for ``head_logp_batch``: ``h`` is written once (a
    ``ShapeError`` unless it is ``(d_s,)``), the root row's ``s`` is the
    embedding of ``last_token`` (a ``VocabError`` outside the vocab), and
    each ``step_batch`` overwrites only the ``s`` columns.  ``token_term``
    is the recurrence's input term ``w @ e + b`` for every token, as
    ``decode.RnnProposer`` builds it once per drafter.
    """
    if beam_width < 1 or beam_length < 1:
        raise ConfigError("beam_width and beam_length must be >= 1")
    vocab = params.vocab_size
    if beam_width > vocab:
        raise ConfigError(f"beam_width {beam_width} exceeds vocab size {vocab}")
    if not 0 <= last_token < vocab:
        raise VocabError(f"token {last_token} outside vocab of size {vocab}")

    d_s = params.d_s
    if np.shape(h) != (d_s,):
        raise ShapeError(f"h of shape {np.shape(h)} is not the drafter's ({d_s},)")
    x = np.empty((beam_width, 2 * d_s), params.dtype)
    x[:, d_s:] = h
    x[0, :d_s] = embeddings[last_token]
    tokens = np.empty((beam_length, beam_width), dtype=np.int64)
    parents = np.empty((beam_length, beam_width), dtype=np.int64)
    logps = np.empty((beam_length, beam_width), params.dtype)

    keep = np.empty(beam_width, dtype=np.int64)
    states = x[:, :d_s]  # the s columns of every row, a view
    with np.errstate(over="ignore"):  # silu's exp(-a); see the drafter docstring
        for depth in range(beam_length):
            # one live row at depth 0, beam_width rows after it
            scores = drafter.head_logp_batch(x[:1 if depth == 0 else beam_width], params)
            # at depth 0 the cumulative score is 0, and 0 + logp is logp (never -0.0)
            if depth:
                scores += logps[depth - 1, :, None]
            scores = scores.ravel()
            cum_logp = logps[depth]
            for pick in range(beam_width):
                keep[pick] = best = scores.argmax()
                cum_logp[pick] = scores[best]
                scores[best] = _MASKED
            parent, tok = np.divmod(keep, vocab, out=(parents[depth], tokens[depth]))
            # the last depth's states would feed no head, so they are not computed
            if depth + 1 < beam_length:
                x[:, :d_s] = drafter.step_batch(states.take(parent, axis=0),
                                                token_term.take(tok, axis=0), params)

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
    tree = DraftTree(np.concatenate(([root], tokens[cand, pos])),
                     np.concatenate(([ROOT_PARENT], parents)))
    return tree, candidate_node
