"""Beam search, its backpointer draft trees, prefix deduplication, and the
packed tree structure."""

import dataclasses
import re

import numpy as np
import pytest

from redrafter import beam as beam_mod
from redrafter import drafter
from redrafter.beam import (ROOT_PARENT, BeamLattice, DraftTree, beam_search, dedup_prefix,
                            pack_beam)
from redrafter.decode import RnnProposer
from redrafter.distill import BLOCK
from redrafter.drafter import DrafterParams
from redrafter.errors import ConfigError, ContractError, ShapeError, VocabError, check_tokens


def trie_dedup(tokens):
    """Reference: first candidate owning each prefix, found with a dict trie."""
    tokens = np.asarray(tokens)
    width, length = tokens.shape
    owners = {}
    out = np.zeros((width, length), dtype=np.int64)
    for i in range(width):
        for j in range(length):
            prefix = tuple(tokens[i, :j + 1])
            if prefix not in owners:
                owners[prefix] = i
            out[i, j] = owners[prefix]
    return out


def random_beam(rng, vocab=4):
    """Candidate rows: 1-8 rows of 1-6 tokens."""
    return rng.integers(0, vocab, size=(int(rng.integers(1, 9)), int(rng.integers(1, 7))))


def test_dedup_shared_prefix_worked_example():
    tokens = np.array([[91, 92, 93, 95],
                       [91, 92, 94, 96],
                       [91, 92, 93, 97]])
    expect = np.array([[0, 0, 0, 0],
                       [0, 0, 1, 1],
                       [0, 0, 0, 2]])
    assert np.array_equal(dedup_prefix(tokens), expect)


def test_dedup_matches_trie_oracle_on_random_beams():
    rng = np.random.default_rng(0)
    for _ in range(300):
        tokens = random_beam(rng)
        assert np.array_equal(dedup_prefix(tokens), trie_dedup(tokens))


def test_dedup_all_identical_and_all_distinct():
    same = np.zeros((5, 3), dtype=np.int64)
    assert np.array_equal(dedup_prefix(same), np.zeros((5, 3), dtype=np.int64))
    distinct = np.arange(12).reshape(4, 3)
    expect = np.tile(np.arange(4)[:, None], (1, 3))
    assert np.array_equal(dedup_prefix(distinct), expect)


def parent_walk(parents, i):
    """Reference: node i's path from the root down, found by walking its parents."""
    path = [i]
    while parents[path[0]] != ROOT_PARENT:
        path.insert(0, int(parents[path[0]]))
    return path


def loop_pack(beam, root):
    """Reference: the rooted tree built one token at a time, with the mask
    filled row by row from each node's parent."""
    tree = trie_dedup(beam)
    width, length = beam.shape
    candidate_node = np.zeros((width, length), dtype=np.int64)
    tokens, parents, depths = [root], [ROOT_PARENT], [0]
    for i in range(width):
        for j in range(length):
            if tree[i, j] == i:
                candidate_node[i, j] = len(tokens)
                tokens.append(beam[i, j])
                parents.append(0 if j == 0 else candidate_node[i, j - 1])
                depths.append(j + 1)
            else:
                candidate_node[i, j] = candidate_node[tree[i, j], j]
    n = len(tokens)
    allowed = np.zeros((n, n), dtype=bool)
    for i in range(n):
        if parents[i] != ROOT_PARENT:
            allowed[i] = allowed[parents[i]]
        allowed[i, i] = True
    return tokens, parents, depths, candidate_node, allowed


def test_pack_matches_loop_reference():
    rng = np.random.default_rng(4)
    beams = [random_beam(rng) for _ in range(300)]
    beams.append(np.zeros((1, 0), dtype=np.int64))
    for beam in beams:
        root = int(rng.integers(4))
        packed, nodes = pack_beam(beam, root)
        tokens, parents, depths, candidate_node, allowed = loop_pack(beam, root)
        assert packed.tokens.tolist() == tokens
        assert packed.parents.tolist() == parents
        assert packed.depths.tolist() == depths
        assert np.array_equal(nodes, candidate_node)
        assert np.array_equal(packed.mask, allowed)
        # a mask row in index order is the node's path from the root down
        assert [np.flatnonzero(row).tolist() for row in packed.mask] == \
            [parent_walk(parents, i) for i in range(len(parents))]


def test_pack_round_trip_reproduces_every_candidate():
    rng = np.random.default_rng(1)
    for _ in range(300):
        beam = random_beam(rng)
        packed, nodes = pack_beam(beam, 5)
        assert packed.tokens[0] == 5
        for i, row in enumerate(beam):
            assert np.array_equal(packed.tokens[nodes[i]], row)


def test_pack_structure_invariants():
    rng = np.random.default_rng(2)
    for _ in range(100):
        beam = random_beam(rng)
        packed, nodes = pack_beam(beam, 0)
        n = packed.n
        # node 0 is the root; parents precede children, depths follow parents
        assert packed.parents[0] == ROOT_PARENT and packed.depths[0] == 0
        for i in range(1, n):
            parent = packed.parents[i]
            assert 0 <= parent < i
            assert packed.depths[i] == packed.depths[parent] + 1
        # ancestor closure: allowed row i is exactly i's root path
        for i in range(n):
            path = set()
            j = i
            while j != ROOT_PARENT:
                path.add(j)
                j = packed.parents[j]
            assert set(np.flatnonzero(packed.mask[i])) == path
        # each draft node belongs to the first (candidate, position) holding
        # it, and nodes are numbered in candidate-major order of those owners
        tree = dedup_prefix(beam)
        owners = {}
        for cand in range(beam.shape[0]):
            for pos in range(beam.shape[1]):
                owners.setdefault(int(nodes[cand, pos]), (cand, pos))
        assert list(owners) == list(range(1, n))
        for idx, (cand, pos) in owners.items():
            assert tree[cand, pos] == cand
            assert packed.depths[idx] == pos + 1


def test_compression_ratio_bounds():
    """Packing never adds nodes to the width x (length + 1) candidate tokens,
    each candidate counting the shared root, and identical candidates share
    every node."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        beam = random_beam(rng)
        assert pack_beam(beam, 0)[0].n <= beam.shape[0] * (beam.shape[1] + 1)
    assert pack_beam(np.tile(np.array([3, 1, 2]), (6, 1)), 0)[0].n == 4


def make_drafter(seed=0, d_model=6, vocab=8, random=DrafterParams.random):
    params = random(np.random.default_rng(seed), d_model, vocab)
    emb = np.random.default_rng(seed + 1).normal(size=(vocab, d_model))
    return params, emb


def token_terms(params, emb):
    """The recurrence's input term ``w @ e + b`` of every token, which
    ``beam_search`` takes as ``decode.RnnProposer`` builds it."""
    return emb @ params.w.T + params.b


def one_row_head(params, s, h):
    """The head's log-probabilities at one state: a one-row ``[s | h]`` input."""
    return drafter.head_logp_batch(np.concatenate([s, h])[None, :], params)[0]


def one_row_step(params, token_term, s, token):
    """One state advanced by one token: a one-row recurrence step."""
    return drafter.step_batch(s[None, :], token_term[[token]], params)[0]


def test_beam_search_scores_sorted_and_consistent():
    params, emb = make_drafter()
    h = np.random.default_rng(2).normal(size=params.d_s)
    token_term = token_terms(params, emb)
    lattice = beam_search(params, emb, h, 1, 4, 3, token_term)
    assert lattice.tokens.shape == lattice.parents.shape == lattice.logp.shape == (3, 4)
    assert np.all(np.diff(lattice.logp, axis=1) <= 1e-12)
    # each row's score is its parent row's plus the head's log-probability of
    # its token, at the parent's recurrent state
    states = [emb[1]]
    scores = np.zeros(1)
    for tokens, parents, logp in zip(lattice.tokens, lattice.parents, lattice.logp):
        for t, parent, score in zip(tokens, parents, logp):
            expect = scores[parent] + one_row_head(params, states[parent], h)[t]
            assert np.isclose(expect, score, atol=1e-10)
        states = [one_row_step(params, token_term, states[p], t) for t, p in zip(tokens, parents)]
        scores = logp


def test_beam_search_width_one_is_greedy_chain():
    params, emb = make_drafter(4)
    h = np.random.default_rng(5).normal(size=params.d_s)
    token_term = token_terms(params, emb)
    lattice = beam_search(params, emb, h, 2, 1, 4, token_term)
    assert not lattice.parents.any()
    s = emb[2]
    for t in lattice.tokens[:, 0]:
        assert int(t) == int(np.argmax(one_row_head(params, s, h)))
        s = one_row_step(params, token_term, s, t)


def reference_beam_search(params, emb, h, last_token, width, length):
    """Reference: every live candidate expanded over the vocabulary, one
    state at a time through a one-row head and recurrence, ranked by score,
    ties to the lower flat (candidate, token) index.  Returns every depth's
    kept (tokens, score) rows, best first; the last depth's are the final
    candidates."""
    token_term = token_terms(params, emb)
    live = [([], 0.0, emb[last_token])]
    held = []
    for _ in range(length):
        expanded = []
        for r, (toks, score, s) in enumerate(live):
            logp = one_row_head(params, s, h)
            for t in range(params.vocab_size):
                expanded.append((-(score + logp[t]), r * params.vocab_size + t, toks + [t], s))
        expanded.sort(key=lambda c: c[:2])
        live = [(toks, -neg, one_row_step(params, token_term, s, toks[-1]))
                for neg, _, toks, s in expanded[:width]]
        held.append([(toks, score) for toks, score, _ in live])
    return held


def top_prefixes(held, budget):
    """Brute force: every prefix the search held, ranked by score, ties to
    the shallower prefix and then the better row; the first ``budget``."""
    ranked = sorted((-score, depth, row, tuple(toks))
                    for depth, rows in enumerate(held) for row, (toks, score) in enumerate(rows))
    return {toks for _, _, _, toks in ranked[:budget]}


def root_paths(tree):
    """Each draft node's tokens from the root down, the root's own excluded."""
    return [tuple(tree.tokens[parent_walk(tree.parents, i)[1:]].tolist())
            for i in range(1, tree.n)]


TREE_FIELDS = ("tokens", "parents", "depths", "mask")


def tree_fields(tree):
    return [getattr(tree, name) for name in TREE_FIELDS]


def assert_tree_fields_equal(got, expect, where=None):
    """A tree's fields equal ``expect``'s four arrays, in ``TREE_FIELDS``
    order, dtype and shape included."""
    for name, a, b in zip(TREE_FIELDS, tree_fields(got), expect, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), (name, where)


def assert_lattice_tree_is_from_parents(lattice, root):
    """The tree read off the lattice's recorded paths equals the tree the
    one constructor derives from its tokens and parents alone."""
    tree = lattice.tree(root)
    assert_tree_fields_equal(tree, tree_fields(DraftTree(tree.tokens, tree.parents)))
    return tree


def whole_lattice_tree(lattice, root):
    """Every row the lattice holds as a node, depth-major under the root:
    row r of depth d is node 1 + d * width + r."""
    length, width = lattice.tokens.shape
    up = 1 + lattice.parents[1:] + width * np.arange(length - 1)[:, None]
    return DraftTree(np.concatenate(([root], lattice.tokens.ravel())),
                     np.concatenate(([ROOT_PARENT], np.zeros(width, np.int64), up.ravel())))


def assert_well_formed(tree, root):
    """Parents precede children, root paths are distinct prefixes, and the
    node set is ancestor-closed; mask rows in index order are exactly the
    root paths."""
    assert tree.tokens[0] == root and tree.parents[0] == ROOT_PARENT and tree.depths[0] == 0
    for i in range(1, tree.n):
        assert 0 <= tree.parents[i] < i
        assert tree.depths[i] == tree.depths[tree.parents[i]] + 1
        assert np.flatnonzero(tree.mask[i]).tolist() == parent_walk(tree.parents, i)
    paths = root_paths(tree)
    assert len(set(paths)) == len(paths)
    assert all(p[:-1] in set(paths) for p in paths if len(p) > 1)


def test_beam_search_matches_single_state_reference(float64_drafter):
    for seed in range(3):
        params, emb = make_drafter(10 + seed, random=float64_drafter)
        rng = np.random.default_rng(20 + seed)
        params.b = rng.normal(0.0, 0.1, params.d_s)  # random init leaves it zero
        h = rng.normal(size=params.d_s)
        token_term = token_terms(params, emb)
        for width in range(1, 9):
            for length in range(1, 6):
                lattice = beam_search(params, emb, h, seed, width, length, token_term)
                held = reference_beam_search(params, emb, h, seed, width, length)
                where = (seed, width, length)
                # depth by depth: each row's token and score, and the row one
                # depth up whose prefix it extends
                for depth, rows in enumerate(held):
                    assert lattice.tokens[depth].tolist() == [toks[-1] for toks, _ in rows], where
                    assert np.allclose(lattice.logp[depth], [score for _, score in rows],
                                       rtol=0, atol=1e-10), where
                    ups = [tuple(held[depth - 1][p][0]) if depth else ()
                           for p in lattice.parents[depth]]
                    assert ups == [tuple(toks[:-1]) for toks, _ in rows], where
                # the draft tree: the top width + length prefixes the search
                # held, node for node as the array form numbers them
                tree = assert_lattice_tree_is_from_parents(lattice, seed)
                assert_tree_fields_equal(tree, vectorized_lattice_tree(lattice, seed), where)
                assert_well_formed(tree, seed)
                assert tree.n == 1 + min(width + length, width * length), where
                assert set(root_paths(tree)) == top_prefixes(held, width + length), where
                assert tree.depths.tolist() == sorted(tree.depths.tolist())  # depth-major
                # the whole pool holds every final candidate as a root path,
                # and pack_beam's tree of the final candidates; the draft tree
                # is the whole pool once the width + length budget covers it
                full = whole_lattice_tree(lattice, seed)
                assert_well_formed(full, seed)
                if width * length <= width + length:
                    assert_tree_fields_equal(tree, tree_fields(full), where)
                assert set(root_paths(full)) == top_prefixes(held, width * length)
                final = [toks for toks, _ in held[-1]]
                assert {tuple(row) for row in final} <= set(root_paths(full))
                assert set(root_paths(pack_beam(final, seed)[0])) <= set(root_paths(full))


def test_tree_ties_keep_the_shallower_prefix():
    """A token of probability 1 gives a child its parent's exact score; the
    tie goes to the parent, so the width + length budget keeps an
    ancestor-closed set.  Below the width x length cap the budget ends on
    such a tie; at the cap and on a width-1 chain every row is kept."""
    below = BeamLattice(tokens=np.array([[5, 6, 7], [8, 9, 4]]),
                        parents=np.array([[0, 0, 0], [0, 0, 2]]),
                        logp=np.array([[-1.0, -2.0, -3.0], [-1.5, -1.6, -3.0]]))
    at_cap = BeamLattice(tokens=np.array([[5, 6], [7, 8]]), parents=np.array([[0, 0], [0, 1]]),
                         logp=np.array([[-1.0, -2.0], [-1.0, -3.0]]))
    chain = BeamLattice(tokens=np.array([[5], [7], [8]]), parents=np.zeros((3, 1), np.int64),
                        logp=np.array([[-1.0], [-1.0], [-1.0]]))
    cases = [(below, [(5,), (6,), (7,), (5, 8), (5, 9)]),  # (7,) kept, its tied child (7, 4) not
             (at_cap, [(5,), (6,), (5, 7), (6, 8)]),
             (chain, [(5,), (5, 7), (5, 7, 8)])]
    for lattice, paths in cases:
        tree = assert_lattice_tree_is_from_parents(lattice, 9)
        assert_well_formed(tree, 9)
        assert root_paths(tree) == paths, lattice.tokens.shape


def argsort_beam_search(params, emb, h, last_token, width, length):
    """Reference selection: each depth's top ``width`` by a stable argsort of
    the negated scores, with the same head and recurrence calls."""
    token_term = token_terms(params, emb)
    s, cum_logp = emb[[last_token]], np.zeros(1)
    held = []
    for _ in range(length):
        x = np.concatenate([s, np.broadcast_to(h, (s.shape[0], params.d_s))], axis=1)
        scores = (cum_logp[:, None] + drafter.head_logp_batch(x, params)).ravel()
        keep = np.argsort(-scores, kind="stable")[:width]
        parent, tok = np.divmod(keep, params.vocab_size)
        cum_logp = scores[keep]
        held.append((tok, parent, cum_logp))
        s = drafter.step_batch(s[parent], token_term[tok], params)
    return [np.array(field) for field in zip(*held)]


def test_top_width_selection_equals_a_stable_argsort(float64_drafter):
    """Exact score ties: duplicated output-projection rows give tokens of
    equal log-probability, and width == vocab keeps every tied token."""
    for seed in range(3):
        params, emb = make_drafter(30 + seed, vocab=6, random=float64_drafter)
        params.out_proj[3] = params.out_proj[1]
        params.out_proj[5] = params.out_proj[1]
        params.out_proj[4] = params.out_proj[0]
        h = np.random.default_rng(40 + seed).normal(size=params.d_s)
        token_term = token_terms(params, emb)
        for width in (1, 2, 3, 5, 6):
            for length in (1, 3):
                lattice = beam_search(params, emb, h, seed, width, length, token_term)
                expect = argsort_beam_search(params, emb, h, seed, width, length)
                for name, ref in zip(("tokens", "parents", "logp"), expect):
                    got = getattr(lattice, name)
                    assert got.dtype == ref.dtype and np.array_equal(got, ref), (seed, width, name)
                if width == params.vocab_size:  # every token kept, tied ones included
                    assert np.unique(lattice.logp[0]).size == 3, seed


def test_tree_constructor_rejects_cycles_and_builds_chains():
    # a cycle, a second root, a parent that follows its child, a root with a
    # parent, a negative parent and a node as its own parent; and no node
    for parents in ([ROOT_PARENT, 2, 1], [ROOT_PARENT, ROOT_PARENT, 0], [ROOT_PARENT, 2, 0],
                    [0, 0, 1], [ROOT_PARENT, 0, -2], [ROOT_PARENT, 0, 2]):
        with pytest.raises(ContractError, match="parents must be ROOT_PARENT"):
            DraftTree([1, 2, 3], parents)
    with pytest.raises(ContractError, match="parents must be ROOT_PARENT"):
        DraftTree([], [])
    # tokens and parents of different lengths or ranks
    for tokens, parents in (([1, 2, 3], [ROOT_PARENT, 0]), ([1, 2], [ROOT_PARENT, 0, 1]),
                            ([[1, 2]], [[ROOT_PARENT, 0]]), (1, ROOT_PARENT)):
        with pytest.raises(ContractError, match="1-D and of one length"):
            DraftTree(tokens, parents)
    chain = DraftTree([4, 5, 6], [ROOT_PARENT, 0, 1])
    assert chain.parents.tolist() == [ROOT_PARENT, 0, 1]
    assert chain.depths.tolist() == [0, 1, 2]
    assert [np.flatnonzero(row).tolist() for row in chain.mask] == \
        [parent_walk(chain.parents, i) for i in range(3)] == [[0], [0, 1], [0, 1, 2]]
    assert np.array_equal(chain.mask, np.tril(np.ones((3, 3), dtype=bool)))
    root = DraftTree([4], [ROOT_PARENT])
    assert (root.n, root.depths.tolist(), root.mask.tolist()) == (1, [0], [[True]])


def test_tree_constructor_refuses_non_integer_tokens_and_parents():
    """Neither is truncated: a float token is the VocabError check_tokens
    words, and a float parent a ContractError, even where it rounds to a
    valid parent; so no base forwards a tree of truncated tokens."""
    with pytest.raises(VocabError) as tree_error:
        DraftTree([1.7, 2.9], [ROOT_PARENT, 0])
    with pytest.raises(VocabError) as check_error:
        check_tokens([1.7, 2.9], 8)
    assert str(tree_error.value) == str(check_error.value)
    for parents in ([ROOT_PARENT, 0.5, 1.9], [ROOT_PARENT, 0.0, 1.0],
                    np.array([ROOT_PARENT, 0, 1], np.float32)):
        with pytest.raises(ContractError, match="parents must be integers"):
            DraftTree([1, 2, 3], parents)


def test_tree_fields_are_derived_and_frozen():
    """A tree is its tokens and parents: depths and the mask are no
    constructor arguments, no field can be assigned, and every array is the
    tree's own and read-only, so no tree holds a mask its constructor did
    not derive: rewiring ``parents`` in place cannot leave stale depths and
    mask rows, and the caller's int64 buffers are copied, not aliased."""
    tree, _ = pack_beam([[4, 5], [4, 6]], 3)
    good = tree.mask.copy()
    for extra in ({"depths": tree.depths}, {"mask": good}, {"depths": tree.depths, "mask": good}):
        with pytest.raises(TypeError):
            DraftTree(tree.tokens, tree.parents, **extra)
    with pytest.raises(TypeError):
        DraftTree(tree.tokens, tree.parents, tree.depths, good)
    for name in TREE_FIELDS:
        for value in (getattr(tree, name)[:-1], good.astype(np.float32)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tree, name, value)
    assert_tree_fields_equal(tree, vectorized_from_parents(tree.tokens, tree.parents))
    for name in TREE_FIELDS:
        with pytest.raises(ValueError):
            getattr(tree, name)[...] = 2.5 if name == "mask" else 0
    # the chain [4, 5, 6] from caller-owned int64 arrays
    tokens, parents = np.array([4, 5, 6]), np.array([ROOT_PARENT, 0, 1])
    chain = DraftTree(tokens, parents)
    parents[2], tokens[2] = 0, 9
    assert chain.parents.tolist() == [ROOT_PARENT, 0, 1] and chain.tokens.tolist() == [4, 5, 6]
    assert not np.shares_memory(chain.tokens, tokens)
    assert not np.shares_memory(chain.parents, parents)
    with pytest.raises(ValueError):
        chain.parents[2] = 0
    assert chain.depths.tolist() == [0, 1, 2] and chain.mask[2].all()


def vectorized_from_parents(tokens, parents):
    """Reference: the array construction the one-pass constructor replaced,
    as a tree's four arrays in ``TREE_FIELDS`` order.  Each node's ancestors
    are gathered one level per step, then the mask is set in one fancy-index
    pass."""
    tokens = np.asarray(tokens, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    n = parents.shape[0]
    nodes = np.arange(n)
    up = np.maximum(parents, 0)  # the root stands in for its own parent
    # chain[k]: each node's ancestor k levels up, the root once the path ends
    chain = [nodes]
    while np.count_nonzero(chain[-1]):
        chain.append(up[chain[-1]])
    chain = np.array(chain)
    depths = (chain > 0).sum(axis=0)
    mask = np.zeros((n, n), dtype=bool)
    mask[nodes, chain] = True
    return tokens, parents, depths, mask


def distill_block_parents(size, kept, horizon):
    """The parents of one ``build_distill_dataset`` block tree: a chain of
    ``size`` positions, then ``horizon`` levels of ``kept`` nodes, level 0
    under the chain and each later level under the one before."""
    return np.concatenate([np.arange(-1, size - 1), np.arange(kept),
                           size + np.arange((horizon - 1) * kept)])


def test_one_pass_constructor_equals_the_vectorized_reference():
    """Field by field, dtype included: chains, stars, random and deep random
    trees of 1-100 nodes, pack_beam's candidate-major trees and the
    distillation block trees, from lists and from arrays; every array is
    read-only."""
    rng = np.random.default_rng(36)
    cases = []
    for n in range(1, 101):
        cases.append([ROOT_PARENT] + list(range(n - 1)))  # chain
        cases.append([ROOT_PARENT] + [0] * (n - 1))  # star
        cases.append([ROOT_PARENT] + [int(rng.integers(0, i)) for i in range(1, n)])
        cases.append(np.array([ROOT_PARENT] + [int(rng.integers(max(0, i - 3), i))
                                               for i in range(1, n)]))
    cases += [pack_beam(random_beam(rng), 0)[0].parents for _ in range(200)]
    cases += [distill_block_parents(size, kept, horizon) for size in range(1, BLOCK + 1)
              for kept in sorted({0, 1, size // 2, size}) for horizon in range(1, 6)]
    assert max(len(parents) for parents in cases) == 100
    for parents in cases:
        tokens = rng.integers(0, 64, len(parents))
        for given in (tokens, tokens.tolist()):
            tree = DraftTree(given, parents)
            assert_tree_fields_equal(tree, vectorized_from_parents(tokens, parents),
                                     list(parents))
            assert tree.mask.flags.c_contiguous
            assert not any(getattr(tree, name).flags.writeable for name in TREE_FIELDS)


def test_constructor_rejects_one_bad_parent_anywhere():
    """A valid random tree with one parent replaced: a later node, the node
    itself, a negative index, or a parent given to the root."""
    rng = np.random.default_rng(37)
    for _ in range(400):
        n = int(rng.integers(2, 101))
        parents = [ROOT_PARENT] + [int(rng.integers(0, i)) for i in range(1, n)]
        i = int(rng.integers(1, n))
        parents[i] = int(rng.choice([i, int(rng.integers(i, n)), -1, -int(rng.integers(2, 9))]))
        with pytest.raises(ContractError):
            DraftTree(np.zeros(n, np.int64), parents)
        parents[i] = 0
        parents[0] = int(rng.integers(0, n))
        with pytest.raises(ContractError):
            DraftTree(np.zeros(n, np.int64), parents)


def vectorized_lattice_tree(lattice, root):
    """Reference: the array form of ``BeamLattice.tree`` that the list pass
    replaced, as the vectorized constructor's four arrays."""
    length, width = lattice.tokens.shape
    keep = np.sort(np.argsort(-lattice.logp.ravel(), kind="stable")[:width + length])
    node = np.zeros((length + 1) * width, dtype=np.int64)
    node[keep + width] = np.arange(1, keep.size + 1)
    parents = node[keep - keep % width + lattice.parents.ravel()[keep]]
    return vectorized_from_parents(np.concatenate(([root], lattice.tokens.ravel()[keep])),
                                   np.concatenate(([ROOT_PARENT], parents)))


def test_beam_search_is_deterministic():
    params, emb = make_drafter(6)
    h = np.random.default_rng(7).normal(size=params.d_s)
    a = beam_search(params, emb, h, 0, 4, 5, token_terms(params, emb))
    b = beam_search(params, emb, h, 0, 4, 5, token_terms(params, emb))
    for name in ("tokens", "parents", "logp"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_beam_search_starts_from_the_root_embedding_of_a_root_in_the_vocab(float64_drafter):
    params, emb = make_drafter(8, random=float64_drafter)
    h = np.random.default_rng(9).normal(size=params.d_s)
    token_term = token_terms(params, emb)
    lattice = beam_search(params, emb, h, 3, params.vocab_size, 1, token_term)
    logp = one_row_head(params, emb[3], h)
    assert sorted(lattice.tokens[0].tolist()) == list(range(params.vocab_size))
    assert np.allclose(lattice.logp[0], logp[lattice.tokens[0]], rtol=0, atol=1e-12)
    for bad in (params.vocab_size, -1):
        with pytest.raises(VocabError):
            beam_search(params, emb, h, bad, 2, 2, token_term)


def test_beam_search_config_validation():
    params, emb = make_drafter()
    h = np.zeros(params.d_s)
    token_term = token_terms(params, emb)
    with pytest.raises(ConfigError):
        beam_search(params, emb, h, 0, params.vocab_size + 1, 2, token_term)
    with pytest.raises(ConfigError):
        beam_search(params, emb, h, 0, 0, 2, token_term)


def test_beam_search_refuses_an_h_that_is_not_one_state():
    """``h`` is one ``(d_s,)`` hidden state.  A ``(1,)`` or ``(width, d_s)``
    one would broadcast into the beam rows and draft from the wrong state,
    and a ``(d_s + 1,)`` one would fail inside numpy; each is a
    ``ShapeError`` naming both shapes, from the search and the proposer."""
    params, emb = make_drafter()
    token_term = token_terms(params, emb)
    proposer = RnnProposer(params, emb)
    d_s, width = params.d_s, 3
    for shape in ((1,), (width, d_s), (d_s + 1,)):
        message = re.escape(f"h of shape {shape} is not the drafter's ({d_s},)")
        for search in (lambda h: beam_search(params, emb, h, 0, width, 2, token_term),
                       lambda h: proposer.propose(h, 0, width, 2)):
            with pytest.raises(ShapeError, match=message):
                search(np.zeros(shape, np.float32))
