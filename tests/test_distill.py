"""Distillation: dataset construction, training loop, divergence metric."""

import copy
import dataclasses
import itertools
import re
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from redrafter import cli, distill, drafter, weights
from redrafter.decode import DecodeConfig, RnnProposer, autoregressive_generate
from redrafter.distill import (DistillDataset, TrainConfig, build_distill_dataset,
                               ground_truth_dataset, read_dataset, sample_markov_corpus,
                               train_drafter, write_dataset)
from redrafter.drafter import DrafterParams
from redrafter.errors import (CapacityError, ContractError, FormatError, ShapeError,
                              TrainingError, VocabError)
from redrafter.model import ModelConfig, SyntheticMarkovModel, TinyTransformer

from oracles import empirical_kl

WINDOW = 40  # max_seq_len of the bases the tree-batched build is checked on


@pytest.fixture(scope="module")
def base(request):
    if getattr(request, "param", "markov") == "transformer":
        return WINDOW_BASES["transformer"]()
    return SyntheticMarkovModel(order=2, vocab_size=16, seed=3)


WINDOW_BASES = {
    "transformer": lambda: TinyTransformer.random(
        ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, d_ff=32,
                    max_seq_len=WINDOW), seed=5),
    "markov2": lambda: SyntheticMarkovModel(order=2, vocab_size=16, seed=7,
                                            max_seq_len=WINDOW),
}


@pytest.fixture(scope="module", params=sorted(WINDOW_BASES))
def window_base(request):
    return WINDOW_BASES[request.param]()


def row_positions(corpus, horizon, window=None):
    """Each row's ``(sequence index, prefix length)``, in the builders' row
    order: one row per kept corpus position, in corpus order.  With a window,
    ``build_distill_dataset``'s rows: a sequence longer than 1 keeps the
    prefixes whose rollout fits the window; without one,
    ``ground_truth_dataset``'s: the prefixes with a corpus teacher after
    their guaranteed token."""
    return [(i, t) for i, s in enumerate(corpus) for t in range(1, len(s) + 1)
            if (len(s) > 1 and t + horizon <= window if window else t < len(s) - horizon)]


# a dataset's rows, each with the (sequence index, prefix length) it ends
Examples = namedtuple("Examples", "positions guaranteed teacher h")


def per_position_dataset(base, corpus, horizon):
    """Reference build: one 1-row causal forward per corpus token, and a
    cache copy per position that the rollout extends one token at a time.
    Returns the ``Examples`` and the skip count."""
    positions, guaranteed_tokens, teachers, hs = [], [], [], []
    skipped = 0
    for index, seq in enumerate(corpus):
        seq = np.asarray(seq, dtype=np.int64)
        if seq.shape[0] <= 1:
            skipped += 1
            continue
        cache = base.new_cache()
        for t in range(1, seq.shape[0] + 1):
            out = base.forward_context([seq[t - 1]], cache)
            if t + horizon > base.config.max_seq_len:
                skipped += 1
                continue
            guaranteed = int(out.logits[-1].argmax())
            scratch = copy.deepcopy(cache)
            token = guaranteed
            teacher = []
            for _ in range(horizon):
                roll_out = base.forward_context([token], scratch)
                token = int(roll_out.logits[-1].argmax())
                teacher.append(token)
            positions.append((index, t))
            guaranteed_tokens.append(guaranteed)
            teachers.append(teacher)
            hs.append(out.hidden[-1].copy())
    return Examples(positions, np.asarray(guaranteed_tokens, np.int64),
                    np.asarray(teachers, np.int64), np.stack(hs)), skipped


def assert_same_dataset(got, want):
    """A ``DistillDataset`` holds the rows of ``want``, a ``DistillDataset``
    or ``Examples``, in the same order: the same dtype, shape and values (h
    by its bits)."""
    assert isinstance(got, DistillDataset)
    for field in ("guaranteed", "teacher", "h"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


@pytest.fixture(scope="module")
def corpus():
    return sample_markov_corpus(seed=4, n_sequences=6, seq_len=12, vocab_size=16)


def test_corpus_is_seeded_and_shaped():
    a = sample_markov_corpus(seed=5, n_sequences=3, seq_len=10, vocab_size=16)
    b = sample_markov_corpus(seed=5, n_sequences=3, seq_len=10, vocab_size=16)
    assert len(a) == 3 and all(len(s) == 10 for s in a)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert all(0 <= t < 16 for s in a for t in s)
    c = sample_markov_corpus(seed=6, n_sequences=3, seq_len=10, vocab_size=16)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def choice_corpus(seed, n_sequences, seq_len, vocab_size):
    """The corpus drawn with one ``rng.choice(vocab_size, p=p)`` per token."""
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


@pytest.mark.parametrize("args", [(21, 120, 48, 32), (7, 60, 32, 64), (3, 40, 40, 256),
                                  (0, 30, 20, 5)],
                         ids=["markov-wide", "tt-short", "vocab256", "vocab5"])
def test_corpus_is_the_rng_choice_corpus(args):
    """Each state's CDF, built once, and one ``rng.random()`` per token draw
    the corpus ``rng.choice`` draws, token for token; the first two cases are
    the benchmark workloads' corpora."""
    got, want = sample_markov_corpus(*args), choice_corpus(*args)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("base", ["markov", "transformer"], indirect=True)
def test_distilled_teacher_is_base_greedy_continuation(base, corpus):
    horizon = 4
    dataset = build_distill_dataset(base, corpus, horizon)
    # one example per corpus position, in corpus order, each prefix ending there
    positions = row_positions(corpus, horizon, base.config.max_seq_len)
    assert positions == [(i, t) for i, s in enumerate(corpus) for t in range(1, len(s) + 1)]
    assert len(dataset) == len(positions)
    cfg = DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=horizon + 1)
    for i, (index, t) in enumerate(positions):
        # the guaranteed token and the teacher are the greedy continuation
        # of the committed prefix; h is the hidden state at its last token
        prefix = corpus[index][:t].tolist()
        rollout = autoregressive_generate(base, prefix, cfg)
        assert [int(dataset.guaranteed[i])] + dataset.teacher[i].tolist() == rollout
        out = base.forward_context(prefix, base.new_cache())
        assert np.array_equal(dataset.h[i], out.hidden[-1])


def edge_corpus(vocab_size):
    """Lengths 1 and 2, block-sized ones, several-block ones, and one
    exactly filling the window, whose last positions lack rollout headroom."""
    rng = np.random.default_rng(12)
    return [rng.integers(0, vocab_size, n) for n in (1, 2, 15, 16, 17, 33, WINDOW, 1, 5)]


@pytest.mark.parametrize("horizon", [1, 3])
def test_tree_batched_dataset_matches_per_position_loop(window_base, horizon, caplog):
    corpus = edge_corpus(window_base.config.vocab_size)
    want, want_skipped = per_position_dataset(window_base, corpus, horizon)
    with caplog.at_level("WARNING", logger="redrafter.distill"):
        got = build_distill_dataset(window_base, corpus, horizon)
    assert_same_dataset(got, want)
    assert want.positions == row_positions(corpus, horizon, WINDOW)
    # two length-1 sequences, then the window-filling one's last positions
    assert want_skipped == 2 + horizon
    assert f"skipped {want_skipped} short/overflowing positions" in caplog.text
    # a sequence keeps a row per position, but none of length 1, and the
    # window-filling one only those whose rollout fits the window
    rows = [sum(index == i for index, _ in want.positions) for i in range(len(corpus))]
    assert rows == [0, 2, 15, 16, 17, 33, WINDOW - horizon, 0, 5]


def test_tree_batched_dataset_rejects_an_overflowing_sequence(window_base):
    rng = np.random.default_rng(13)
    corpus = [rng.integers(0, 16, 20), rng.integers(0, 16, WINDOW + 1)]
    with pytest.raises(CapacityError):
        build_distill_dataset(window_base, corpus, 2)
    with pytest.raises(CapacityError):
        per_position_dataset(window_base, corpus, 2)


def test_tree_batched_dataset_makes_horizon_plus_one_packed_forwards_per_block(
        window_base, monkeypatch):
    corpus = edge_corpus(window_base.config.vocab_size)
    calls = []
    new_rows = []
    forward_packed = window_base.forward_packed

    def counting_forward_packed(tree, cache, start=0):
        calls.append(tree.n)
        new_rows.append(tree.n - start)
        return forward_packed(tree, cache, start)

    def no_forward_context(tokens, cache):
        raise AssertionError("the tree-batched build made a causal forward")

    monkeypatch.setattr(window_base, "forward_packed", counting_forward_packed)
    monkeypatch.setattr(window_base, "forward_context", no_forward_context)
    # at horizon 8 the last block of the window-filling sequence keeps no position
    for horizon, seq in itertools.product((3, 8), corpus):
        calls.clear()
        new_rows.clear()
        build_distill_dataset(window_base, [seq], horizon)
        if len(seq) > 1:
            # horizon + 1 forwards for a block with a kept position, the
            # chain's alone for a block without one
            rounds = [horizon + 1 if start + horizon < window_base.config.max_seq_len else 1
                      for start in range(0, len(seq), distill.BLOCK)]
            assert len(calls) == sum(rounds)
            assert max(calls) <= distill.BLOCK * (horizon + 1)
            # a round forwards only the nodes it adds, never the tree again
            assert max(new_rows) <= distill.BLOCK


def test_dataset_builders_reject_a_non_positive_horizon(base, corpus):
    # a float or a string would reach numpy as a bare TypeError
    for horizon in (0, -2, 2.0, "3"):
        with pytest.raises(ContractError):
            build_distill_dataset(base, corpus, horizon)
        with pytest.raises(ContractError):
            ground_truth_dataset(base, corpus, horizon)


@pytest.mark.parametrize("seq", [[1.5, 2.7, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 99],
                                 [1, 2, -1, 4, 5, 6, 7]], ids=["float", "past-vocab", "negative"])
@pytest.mark.parametrize("builder", [build_distill_dataset, ground_truth_dataset])
def test_dataset_builders_refuse_a_corpus_of_bad_token_ids(builder, seq, base, monkeypatch):
    """A corpus follows the one token rule: a non-integer id is refused, not
    truncated, and an id outside the vocab too, even where it would only
    be a teacher token; each is a ``VocabError`` raised before any forward."""
    for name in ("forward_context", "forward_packed"):
        monkeypatch.setattr(base, name, lambda *args, _name=name: pytest.fail(_name))
    with pytest.raises(VocabError):
        builder(base, [seq], 3)


@pytest.mark.parametrize("seq", [[[1, 2], [3, 4], [5, 6]], 5], ids=["rank-2", "scalar"])
@pytest.mark.parametrize("builder", [build_distill_dataset, ground_truth_dataset])
def test_dataset_builders_refuse_a_sequence_that_is_not_1d(builder, seq, monkeypatch):
    """A corpus sequence is a token list as ``forward_context`` takes one:
    on the vocab-32 Markov base, one that is not 1-D is the ShapeError
    forward_context raises, before any forward, not a bare ValueError from
    the block or window arithmetic."""
    markov = SyntheticMarkovModel(order=2, vocab_size=32, seed=0)
    with pytest.raises(ShapeError) as context:
        markov.forward_context(seq, markov.new_cache())
    for name in ("forward_context", "forward_packed"):
        monkeypatch.setattr(markov, name, lambda *args, _name=name: pytest.fail(_name))
    with pytest.raises(ShapeError, match=re.escape(str(context.value))):
        builder(markov, [seq], 2)


@pytest.mark.parametrize("ground_truth", [[], ["--ground-truth"]],
                         ids=["rollouts", "ground-truth"])
def test_distill_data_cli_rejects_a_non_positive_horizon(ground_truth, tmp_path, capsys):
    out = str(tmp_path / "data")
    assert cli.main(["distill-data", "--base", "markov",
                     "--corpus-size", "2", "--corpus-len", "8", "--horizon", "-2",
                     *ground_truth, "--out", out]) == 2
    assert "error: need horizon >= 1" in capsys.readouterr().err


def test_ground_truth_teacher_is_corpus_continuation(base, corpus):
    horizon = 4
    dataset = ground_truth_dataset(base, corpus, horizon)
    # the corpus token after each prefix plays the guaranteed token; h is
    # the hidden state at the prefix's last token
    positions = row_positions(corpus, horizon)
    assert positions == [(i, t) for i, s in enumerate(corpus) if len(s) > horizon + 1
                         for t in range(1, len(s) - horizon)]
    assert len(dataset) == len(positions)
    assert dataset.teacher.shape == (len(positions), horizon)
    for i, (index, t) in enumerate(positions):
        seq = corpus[index]
        assert dataset.guaranteed[i] == seq[t]
        assert np.array_equal(dataset.teacher[i], seq[t + 1:t + 1 + horizon])
        out = base.forward_context(seq[:t].tolist(), base.new_cache())
        assert np.array_equal(dataset.h[i], out.hidden[-1])


def test_greedy_corpus_is_each_prompt_then_its_greedy_continuation(window_base):
    rng = np.random.default_rng(6)
    prompts = [rng.integers(0, 16, n).tolist() for n in (1, 3, 7)]
    corpus = distill.greedy_corpus(window_base, prompts, 9)
    cfg = DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=9)
    assert [seq.dtype for seq in corpus] == [np.int64] * 3
    assert [seq.tolist() for seq in corpus] == [
        prompt + autoregressive_generate(window_base, prompt, cfg) for prompt in prompts]
    assert distill.greedy_corpus(window_base, [], 9) == []


def test_greedy_corpus_rows_at_generated_positions_are_ground_truth_rows(window_base):
    """On the base's own greedy text the rollout after a generated position
    is the text itself, so there ``build_distill_dataset``'s rows equal
    ``ground_truth_dataset``'s on the same text: the guaranteed token, the
    teacher, and h bit for bit."""
    horizon, n_new = 3, 24
    rng = np.random.default_rng(8)
    prompts = [rng.integers(0, 16, int(rng.integers(1, 9))).tolist() for _ in range(6)]
    corpus = distill.greedy_corpus(window_base, prompts, n_new)
    rolled = build_distill_dataset(window_base, corpus, horizon)
    truth = ground_truth_dataset(window_base, corpus, horizon)
    rolled_rows, truth_rows = ({position: i for i, position in enumerate(positions)} for positions
                               in (row_positions(corpus, horizon, WINDOW),
                                   row_positions(corpus, horizon)))
    assert (len(rolled), len(truth)) == (len(rolled_rows), len(truth_rows))
    # a prefix of at least the whole prompt is followed by a generated token
    generated = [(s, p) for s, p in truth_rows if p >= len(prompts[s])]
    assert len(generated) == len(prompts) * (n_new - horizon)
    for key in generated:
        i, j = rolled_rows[key], truth_rows[key]
        assert rolled.guaranteed[i] == truth.guaranteed[j], key
        assert np.array_equal(rolled.teacher[i], truth.teacher[j]), key
        assert np.array_equal(rolled.h[i].view(np.uint32), truth.h[j].view(np.uint32)), key


def test_greedy_corpus_checks_its_count_and_the_window(window_base):
    for bad in (0, -1, 2.0, "3", None):
        with pytest.raises(ContractError, match="n_new"):
            distill.greedy_corpus(window_base, [[1, 2]], bad)
    # a 30-token prompt leaves room for 10 tokens in the window of 40
    assert len(distill.greedy_corpus(window_base, [[1] * 30], WINDOW - 30)[0]) == WINDOW
    with pytest.raises(CapacityError):
        distill.greedy_corpus(window_base, [[1] * 30], WINDOW - 29)


def test_corpus_needs_room_for_the_two_seed_tokens(tmp_path, capsys):
    for seq_len in (0, 1):
        with pytest.raises(ContractError, match="seq_len >= 2"):
            sample_markov_corpus(seed=5, n_sequences=1, seq_len=seq_len, vocab_size=16)
        assert cli.main(["distill-data", "--base", "markov", "--corpus-size", "1",
                         "--corpus-len", str(seq_len), "--out", str(tmp_path / "d")]) == 2
        assert "seq_len >= 2" in capsys.readouterr().err
    assert [len(s) for s in sample_markov_corpus(seed=5, n_sequences=2, seq_len=2)] == [2, 2]


@pytest.mark.parametrize("field, value, message", [
    ("n_sequences", 2.5, "n_sequences must be an integer"),
    ("seq_len", 2.5, "seq_len must be an integer"),
    ("vocab_size", 16.0, "vocab_size must be an integer"),
    ("seed", 1.5, "seed must be an integer"),
    ("vocab_size", 0, "need seed >= 0, n_sequences >= 0 and vocab_size >= 1"),
    ("n_sequences", -1, "need seed >= 0, n_sequences >= 0 and vocab_size >= 1"),
    ("seed", -1, "need seed >= 0, n_sequences >= 0 and vocab_size >= 1"),
], ids=["n_sequences-float", "seq_len-float", "vocab-float", "seed-float", "vocab0",
        "n_sequences-negative", "seed-negative"])
def test_corpus_rejects_non_integer_and_empty_settings(field, value, message):
    """A float count or seed would reach numpy as a bare TypeError, or be
    rounded up to a longer sequence; an empty vocab or a negative seed would
    be numpy's ValueError."""
    settings = dict(seed=5, n_sequences=2, seq_len=4, vocab_size=16)
    with pytest.raises(ContractError, match=message):
        sample_markov_corpus(**{**settings, field: value})
    assert sample_markov_corpus(**{**settings, "n_sequences": 0}) == []


def test_dataset_file_round_trip(base, corpus, tmp_path, monkeypatch):
    """``read_dataset`` of ``write_dataset(ds, embeddings)`` is ``ds`` and the
    embeddings, h and the embeddings bit for bit, on both bases, for built
    and ground-truth datasets, with sequences that keep no row, and with no
    row at all, whose horizon the file keeps as its ``(0, 3)`` teacher's
    dims: the manifest has no header.  ``ground_truth_dataset`` takes h from
    one prefill per sequence with rows, of the longest prefix they use."""
    prefix = str(tmp_path / "distill")
    for model in (base, WINDOW_BASES["transformer"]()):
        prefills = []
        forward_context = model.forward_context

        def counting_forward_context(tokens, cache, forward_context=forward_context):
            prefills.append(np.asarray(tokens).tolist())
            return forward_context(tokens, cache)

        for data in (corpus, edge_corpus(16), [[5], [1, 2]], []):
            for build in (build_distill_dataset, ground_truth_dataset):
                prefills.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(model, "forward_context", counting_forward_context)
                    dataset = build(model, data, 3)
                if build is ground_truth_dataset:
                    # a sequence's longest prefix with a teacher of 3 after
                    # its guaranteed token
                    assert prefills == [list(s[:len(s) - 4]) for s in data if len(s) > 4]
                write_dataset(prefix, dataset, model.token_embeddings)
                assert "\n#" not in Path(prefix + ".manifest").read_text()
                got, embeddings = read_dataset(prefix)
                assert_same_dataset(got, dataset)
                assert embeddings.dtype == np.float32
                assert np.array_equal(embeddings.view(np.uint32),
                                      model.token_embeddings.view(np.uint32))
    # the edge case ran: a dataset of no row, which kept its horizon
    assert len(got) == 0 and got.teacher.shape == (0, 3)
    assert len(ground_truth_dataset(base, [[5], [1, 2]], 3)) == 0


@pytest.mark.parametrize("shapes", [((10,), (10, 3), (8, 4)), ((10,), (8, 3), (10, 4)),
                                    ((10,), (12, 3), (14, 4)), ((10, 1), (10, 3), (10, 4)),
                                    ((10,), (10,), (10, 4)), ((10,), (10, 0), (10, 4)),
                                    ((10,), (10, 3), (10,))],
                         ids=["short-h", "short-teacher", "long-rows", "2d-guaranteed",
                              "1d-teacher", "no-horizon", "1d-h"])
def test_a_dataset_of_misaligned_rows_is_a_shape_error(shapes):
    """Rows that disagree were a bare IndexError mid-training, or trained on
    the first rows alone; fields not shaped ``(N,)``, ``(N, horizon >= 1)``
    and ``(N, d_model)`` are a ``ShapeError`` when the dataset is made."""
    guaranteed, teacher, h = (np.zeros(shape, dtype) for shape, dtype in
                              zip(shapes, (np.int64, np.int64, np.float32)))
    with pytest.raises(ShapeError, match=re.escape(
            f"rows of shapes guaranteed {shapes[0]}, teacher {shapes[1]} and h {shapes[2]}: "
            "expected (N,), (N, horizon >= 1) and (N, d_model)")):
        DistillDataset(guaranteed, teacher, h)


# a valid file's tensors: two rows of horizon 2, their h, and a vocab-16,
# 4-wide embedding table; each case below edits the file and expects an error
# naming its manifest, and there the header entry or the tensor at fault
GOOD_TENSORS = {"guaranteed": [6, 9], "teacher": [[7, 8], [10, 11]],
                "h": np.ones((2, 4), np.float32),
                "embeddings": np.arange(64, dtype=np.float32).reshape(16, 4)}


def write_tensors(prefix, header=None, magic=distill.DATASET_MAGIC, **edits):
    """``GOOD_TENSORS`` with ``edits`` (a None one left out) as a tensor file."""
    tensors = {**GOOD_TENSORS, **edits}
    weights.save_tensors(prefix, magic, [(name, np.asarray(arr)) for name, arr in
                                         tensors.items() if arr is not None], header)


def truncate(prefix):
    blob = Path(prefix + ".bin")
    blob.write_bytes(blob.read_bytes()[:-8])


def float32(values):
    return np.asarray(values, np.float32)


def shapes(guaranteed=(2,), teacher=(2, 2), h=(2, 4)):
    return (f"rows of shapes guaranteed {guaranteed}, teacher {teacher} and h {h}: expected "
            "(N,), (N, horizon >= 1) and (N, d_model)")


def table(embeddings, h=(2, 4)):
    return f"embeddings {embeddings} must be (vocab, d_model) for h {h}, neither 0"


TENSORS = "['guaranteed', 'teacher', 'h', 'embeddings']"


@pytest.mark.parametrize("edit, error", [
    (lambda p: Path(p + ".manifest").write_text("REDRAFT-DISTILL v1\n2 2\n1 2 3\n4 5\n"),
     "bad magic line 'REDRAFT-DISTILL v1', expected 'REDRAFT-DISTILL v4'"),
    (lambda p: write_tensors(p, magic="REDRAFT-WEIGHTS v1"),
     "bad magic line 'REDRAFT-WEIGHTS v1', expected 'REDRAFT-DISTILL v4'"),
    (lambda p: write_tensors(p, h=None),
     f"holds tensors ['guaranteed', 'teacher', 'embeddings'], expected {TENSORS}"),
    (lambda p: write_tensors(p, header={"horizon": 2}),
     "header {'horizon': 2} must be empty"),
    (truncate, "tensor embeddings: blob truncated (needs bytes up to 336, have 328)"),
    (lambda p: write_tensors(p, teacher=float32([[7, 8], [10, 11.5]])),
     "tensor teacher is float32, expected int64"),
    (lambda p: write_tensors(p, guaranteed=[16, 9]),
     "tensor guaranteed: token id outside vocab of size 16"),
    (lambda p: write_tensors(p, teacher=[[7, 8], [10, -3]]),
     "tensor teacher: token id outside vocab of size 16"),
    (lambda p: write_tensors(p, teacher=np.zeros((2, 0), np.int64)), shapes(teacher=(2, 0))),
    (lambda p: write_tensors(p, hidden=float32([[0, 0], [0, 0]])),
     f"holds tensors {TENSORS[:-1]}, 'hidden'], expected {TENSORS}"),
    (lambda p: write_tensors(p, header={"n_sequences": 2}),
     "header {'n_sequences': 2} must be empty"),
    (lambda p: write_tensors(p, guaranteed=[6, 9, 1]), shapes(guaranteed=(3,))),
    (lambda p: write_tensors(p, magic="REDRAFT-DISTILL v2", h=None, embeddings=None),
     "bad magic line 'REDRAFT-DISTILL v2', expected 'REDRAFT-DISTILL v4'"),
    (lambda p: write_tensors(p, {"horizon": 2}, "REDRAFT-DISTILL v3", lengths=[3, 2],
                             tokens=[1, 2, 3, 4, 5], seq_index=[0, 1], prefix_len=[1, 2]),
     "bad magic line 'REDRAFT-DISTILL v3', expected 'REDRAFT-DISTILL v4'"),
    (lambda p: write_tensors(p, h=np.ones((2, 4), np.int64)),
     "tensor h is int64, expected float32"),
    (lambda p: write_tensors(p, embeddings=np.ones((16, 4), np.int64)),
     "tensor embeddings is int64, expected float32"),
    (lambda p: write_tensors(p, h=np.ones((2, 3), np.float32)), table((16, 4), (2, 3))),
    (lambda p: write_tensors(p, embeddings=np.ones(16, np.float32)), table((16,))),
    (lambda p: write_tensors(p, embeddings=np.ones((16, 4, 1), np.float32)),
     table((16, 4, 1))),
    (lambda p: write_tensors(p, h=np.ones((2, 0), np.float32),
                             embeddings=np.ones((16, 0), np.float32)), table((16, 0), (2, 0))),
    (lambda p: write_tensors(p, embeddings=GOOD_TENSORS["embeddings"][:9]),
     "tensor guaranteed: token id outside vocab of size 9"),
], ids=["old-format", "magic", "missing-tensor", "header-horizon", "truncated", "row-field",
        "guaranteed", "teacher", "short-row", "extra-tensor", "extra-header-key",
        "rows-of-two-lengths", "v2-file", "v3-file", "h-int64", "embeddings-int64", "h-width",
        "embeddings-1d", "embeddings-3d", "embeddings-0-wide", "token-past-embeddings"])
def test_malformed_dataset_file_names_its_line(edit, error, tmp_path):
    """Each malformed dataset file is a ``FormatError`` that starts with its
    manifest's path and names, where one is at fault, the header entry or
    tensor: the manifest line.  Files of earlier formats fail on their magic
    line: old-format is a text file where the manifest belongs, v2-file has
    no ``h`` or embeddings, and v3-file carries the corpus and a horizon
    header.  A v4 file has no header (header-horizon: the horizon is the
    teacher's width), rows that the ``DistillDataset`` takes (short-row: a
    row with no teacher token), and a vocab that is the embeddings' rows."""
    prefix = str(tmp_path / "data")
    write_tensors(prefix)
    dataset, embeddings = read_dataset(prefix)
    assert len(dataset) == 2 and dataset.teacher.shape == (2, 2)
    assert embeddings.shape == (16, 4) and dataset.h.shape == (2, 4)
    edit(prefix)
    with pytest.raises(FormatError, match="^" + re.escape(f"{prefix}.manifest: {error}")):
        read_dataset(prefix)


def train_setup(base, corpus, horizon=3):
    dataset = build_distill_dataset(base, corpus, horizon)
    init = DrafterParams.random(np.random.default_rng(8),
                                base.config.d_model, base.config.vocab_size)
    return dataset, init


def test_loss_descends_in_first_epochs(base, corpus):
    dataset, init = train_setup(base, corpus)
    cfg = TrainConfig(horizon=3, learning_rate=2e-3, epochs=2, batch_size=16, seed=1)
    _, curve = train_drafter(dataset, init, cfg, base.token_embeddings)
    assert len(curve) == 2
    assert curve[1] < curve[0]


def test_zero_learning_rate_is_a_no_op(base, corpus):
    dataset, init = train_setup(base, corpus)
    cfg = TrainConfig(horizon=3, learning_rate=0.0, epochs=3, batch_size=16, seed=1)
    params, curve = train_drafter(dataset, init, cfg, base.token_embeddings)
    for (_, a), (_, b) in zip(init.flat_arrays(), params.flat_arrays()):
        assert np.array_equal(a, b)
    assert np.allclose(curve, curve[0])


def test_training_is_bitwise_deterministic(base, corpus):
    dataset, init = train_setup(base, corpus)
    cfg = TrainConfig(horizon=3, learning_rate=1e-3, epochs=2, batch_size=16, seed=9)
    p1, c1 = train_drafter(dataset, init, cfg, base.token_embeddings)
    p2, c2 = train_drafter(dataset, init, cfg, base.token_embeddings)
    assert c1 == c2
    for (_, a), (_, b) in zip(p1.flat_arrays(), p2.flat_arrays()):
        assert np.array_equal(a, b)


def reference_train(dataset, init, cfg, embeddings):
    """``train_drafter`` with every row stacked up front instead of each
    batch's gathered, and Adam run tensor by tensor, each parameter,
    gradient and moment its own array."""
    params = copy.deepcopy(init)
    emb = np.asarray(embeddings, dtype=np.float64)
    n = len(dataset)
    h_all = np.stack([dataset.h[i] for i in range(n)]).astype(np.float64)
    s0_all = emb[[int(dataset.guaranteed[i]) for i in range(n)]]
    teacher_all = np.stack([dataset.teacher[i] for i in range(n)])
    m = [np.zeros_like(arr) for _, arr in params.flat_arrays()]
    v = [np.zeros_like(arr) for _, arr in params.flat_arrays()]
    rng = np.random.default_rng(cfg.seed)
    step_count = 0
    curve = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = drafter.batch_loss(params, emb, h_all[idx], s0_all[idx],
                                             teacher_all[idx])
            epoch_loss += loss
            step_count += 1
            bc1 = 1.0 - distill.ADAM_BETA1 ** step_count
            bc2 = 1.0 - distill.ADAM_BETA2 ** step_count
            for slot, ((_, g), (_, p)) in enumerate(zip(grads.flat_arrays(),
                                                         params.flat_arrays(), strict=True)):
                g = g * (1.0 / (len(idx) * cfg.horizon))
                m[slot] = distill.ADAM_BETA1 * m[slot] + (1.0 - distill.ADAM_BETA1) * g
                v[slot] = distill.ADAM_BETA2 * v[slot] + (1.0 - distill.ADAM_BETA2) * g * g
                p -= (cfg.learning_rate * (m[slot] / bc1)
                      / (np.sqrt(v[slot] / bc2) + distill.ADAM_EPS))
        curve.append(epoch_loss / (n * cfg.horizon))
    return params, curve


def test_training_is_bitwise_the_per_tensor_adam_reference(base, corpus):
    dataset, init = train_setup(base, corpus)
    assert len(dataset) % 16  # a short last batch
    cfg = TrainConfig(horizon=3, learning_rate=2e-3, epochs=2, batch_size=16, seed=4)
    params, curve = train_drafter(dataset, init, cfg, base.token_embeddings)
    want_params, want_curve = reference_train(dataset, init, cfg, base.token_embeddings)
    assert np.array_equal(np.array(curve).view(np.uint64), np.array(want_curve).view(np.uint64))
    for (name, got), (_, want) in zip(params.flat_arrays(), want_params.flat_arrays(),
                                      strict=True):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


def test_train_config_rejects_bad_settings():
    # a float count or seed would reach range() or the rng as a bare
    # TypeError, a string horizon the range check, a negative seed the rng
    for bad in ({"epochs": 0}, {"epochs": -1}, {"batch_size": 0}, {"batch_size": -4},
                {"horizon": 0}, {"learning_rate": -1e-3}, {"learning_rate": float("nan")},
                {"learning_rate": float("inf")}, {"epochs": 2.5}, {"batch_size": 8.0},
                {"horizon": "3"}, {"horizon": 2.0}, {"seed": -1}, {"seed": 1.5},
                {"seed": None}):
        with pytest.raises(ContractError):
            TrainConfig(**bad)
    TrainConfig(epochs=1, batch_size=1)
    TrainConfig(horizon=np.int64(2), epochs=np.int32(1), batch_size=np.int64(1),
                seed=np.uint8(0))


@pytest.mark.parametrize("value", ["0.1", None], ids=["string", "none"])
def test_train_config_names_a_learning_rate_that_is_not_a_number(value):
    """A string or None reached math.isfinite as a bare TypeError; numpy
    floats are real numbers and pass."""
    with pytest.raises(ContractError, match=f"learning_rate >= 0, got {value!r}"):
        TrainConfig(learning_rate=value)
    for number in (np.float32(1e-3), np.float64(1e-3), 0):
        assert TrainConfig(learning_rate=number).learning_rate == number


@pytest.mark.parametrize("flag, message", [
    (["--batch-size", "0"], "need epochs >= 1 and batch_size >= 1"),
    (["--batch-size", "-4"], "need epochs >= 1 and batch_size >= 1"),
    (["--epochs", "0"], "need epochs >= 1 and batch_size >= 1"),
    (["--learning-rate", "nan"], "need a finite learning_rate >= 0, got nan"),
    (["--learning-rate", "inf"], "need a finite learning_rate >= 0, got inf"),
], ids=["batch0", "batch-4", "epochs0", "lr-nan", "lr-inf"])
def test_train_drafter_cli_rejects_bad_settings_before_any_work(flag, message, tmp_path, capsys,
                                                                monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("train-drafter read its dataset before checking its settings")

    monkeypatch.setattr(distill, "read_dataset", no_read)
    out = tmp_path / "drafter"
    assert cli.main(["train-drafter", "--dataset", str(tmp_path / "data"), *flag,
                     "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # no drafter saved


def test_training_rejects_bad_input(base, corpus):
    dataset, init = train_setup(base, corpus)
    cfg = TrainConfig(horizon=3, learning_rate=1e-3, epochs=1, batch_size=8, seed=0)
    with pytest.raises(ContractError):
        train_drafter([], init, cfg, base.token_embeddings)
    wrong = TrainConfig(horizon=5, learning_rate=1e-3, epochs=1, batch_size=8, seed=0)
    with pytest.raises(ContractError):
        train_drafter(dataset, init, wrong, base.token_embeddings)
    diverging = copy.deepcopy(init)
    diverging.out_proj[0, 0] = np.inf
    with pytest.raises(TrainingError, match="loss diverged"), np.errstate(invalid="ignore"):
        train_drafter(dataset, diverging, cfg, base.token_embeddings)


def misfits(dataset, init, base):
    """(error, message, params, embeddings, dataset) for each way a drafter
    can misfit a vocab-16, 32-wide base's dataset."""
    rng = np.random.default_rng(12)
    vocab, width = base.config.vocab_size, base.config.d_model
    emb = base.token_embeddings
    small = DrafterParams.random(rng, width, 8)
    zeros = dataclasses.replace(dataset, guaranteed=dataset.guaranteed * 0,
                                teacher=dataset.teacher * 0)
    return {
        "narrow-embeddings": (ShapeError, f"a drafter of vocab {vocab} and width {width} does "
                              f"not fit a base embedding table of shape ({vocab}, 8)",
                              init, emb[:, :8], dataset),
        "vocab-20-drafter": (ShapeError, f"a drafter of vocab 20 and width {width} does not "
                             f"fit a base embedding table of shape ({vocab}, {width})",
                             DrafterParams.random(rng, width, 20), emb, dataset),
        "hidden-wider-than-drafter": (ShapeError, "hidden states",
                                      DrafterParams.random(rng, width // 2, vocab),
                                      rng.normal(size=(vocab, width // 2)), dataset),
        "guaranteed-outside-vocab": (VocabError, "outside vocab of size 8", small, emb[:8],
                                     dataclasses.replace(zeros, guaranteed=zeros.guaranteed + 9)),
        "teacher-outside-vocab": (VocabError, "outside vocab of size 8", small, emb[:8],
                                  dataclasses.replace(zeros, teacher=zeros.teacher + 9)),
    }


@pytest.mark.parametrize("case", ["narrow-embeddings", "vocab-20-drafter",
                                  "hidden-wider-than-drafter", "guaranteed-outside-vocab",
                                  "teacher-outside-vocab"])
def test_training_refuses_a_drafter_that_does_not_fit_before_the_first_batch(
        case, base, corpus, monkeypatch):
    dataset, init = train_setup(base, corpus)
    error, message, params, embeddings, data = misfits(dataset, init, base)[case]

    def no_batch(*args, **kwargs):
        raise AssertionError("train_drafter ran a batch before checking its inputs")

    monkeypatch.setattr(drafter, "batch_loss", no_batch)
    cfg = TrainConfig(horizon=3, learning_rate=1e-3, epochs=1, batch_size=8, seed=0)
    with pytest.raises(error, match=re.escape(message)):
        train_drafter(data, params, cfg, embeddings)


@pytest.mark.parametrize("case", ["narrow-embeddings", "vocab-20-drafter"])
def test_a_drafter_that_misfits_the_embeddings_is_one_error_everywhere(case, base, corpus,
                                                                      monkeypatch):
    """The proposer, the training and the KL metric refuse a drafter that
    does not fit the base's embedding table with one and the same message."""
    dataset, init = train_setup(base, corpus)
    _, message, params, embeddings, data = misfits(dataset, init, base)[case]
    monkeypatch.setattr(base, "token_embeddings", embeddings)
    cfg = TrainConfig(horizon=3, learning_rate=1e-3, epochs=1, batch_size=8, seed=0)
    for refuse in (lambda: RnnProposer(params, embeddings),
                   lambda: train_drafter(data, params, cfg, embeddings),
                   lambda: empirical_kl(base, params, [[1, 2]], horizon=1)):
        with pytest.raises(ShapeError) as exc:
            refuse()
        assert str(exc.value) == message


def test_kl_is_nonnegative_and_per_step(base):
    init = DrafterParams.random(np.random.default_rng(10),
                                base.config.d_model, base.config.vocab_size)
    probes = [[1, 2, 3], [7, 4], [0, 0, 5, 9]]
    kl = empirical_kl(base, init, probes, horizon=4)
    assert kl.shape == (4,)
    assert np.all(kl >= 0)
    assert empirical_kl(base, init, probes, horizon=1).shape == (1,)
    with pytest.raises(ContractError):  # no token before the guaranteed one
        empirical_kl(base, init, [[3]], horizon=1)
    for horizon in (0, -1):  # no step to measure
        with pytest.raises(ContractError, match=f"need horizon >= 1, got {horizon}"):
            empirical_kl(base, init, probes, horizon=horizon)
    for horizon in (2.5, "2", None):  # no whole number of steps
        with pytest.raises(ContractError, match="horizon must be an integer"):
            empirical_kl(base, init, probes, horizon=horizon)
    with pytest.raises(ContractError, match="no probe contexts"):  # a KL of nothing measured
        empirical_kl(base, init, [], horizon=1)
    for bad in (base.config.vocab_size, -1):  # a recurrence root outside the vocab
        with pytest.raises(VocabError):
            empirical_kl(base, init, [[3, bad]], horizon=1)
    narrow = DrafterParams.random(np.random.default_rng(10), base.config.d_model - 1,
                                  base.config.vocab_size)
    with pytest.raises(ShapeError, match="does not fit a base embedding table"):
        empirical_kl(base, narrow, probes, horizon=1)


def test_kl_zero_for_exact_distribution_copy(base, monkeypatch):
    """Substituting the base's own distribution for the draft head gives 0."""
    init = DrafterParams.random(np.random.default_rng(11),
                                base.config.d_model, base.config.vocab_size)
    # the test double mirrors whatever next-token distribution the base model
    # last produced, which is exactly what the metric compares against
    base_rows = {}
    orig_forward = base.forward_context

    def recording_forward(tokens, cache):
        out = orig_forward(tokens, cache)
        row = out.logits[-1].astype(np.float64)
        z = row - row.max()
        base_rows["current"] = z - np.log(np.exp(z).sum())
        return out

    def copying_head(x, params):
        return base_rows["current"][None, :]

    monkeypatch.setattr(base, "forward_context", recording_forward)
    monkeypatch.setattr(drafter, "head_logp_batch", copying_head)
    kl = empirical_kl(base, init, [[1, 2, 3], [4, 5]], horizon=3)
    assert np.all(np.abs(kl) < 1e-12)
