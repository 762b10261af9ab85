"""Distillation: dataset construction, training loop, divergence metric."""

import copy
import dataclasses
import itertools
import re
from collections import namedtuple

import numpy as np
import pytest

from redrafter import cli, distill, drafter
from redrafter.decode import DecodeConfig, RnnProposer, autoregressive_generate
from redrafter.distill import (DistillDataset, TrainConfig, build_distill_dataset,
                               empirical_kl, ground_truth_dataset, read_dataset,
                               sample_markov_corpus, train_drafter, write_dataset)
from redrafter.drafter import DrafterParams
from redrafter.errors import (CapacityError, ContractError, FormatError, ShapeError,
                              TrainingError, VocabError)
from redrafter.model import ModelConfig, SyntheticMarkovModel, TinyTransformer

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


# a dataset's rows with each context spelled out
Examples = namedtuple("Examples", "contexts guaranteed teacher h")


def per_position_dataset(base, corpus, horizon):
    """Reference build: one 1-row causal forward per corpus token, and a
    cache copy per position that the rollout extends one token at a time.
    Returns the ``Examples`` and the skip count."""
    contexts, guaranteed_tokens, teachers, hs = [], [], [], []
    skipped = 0
    for seq in corpus:
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
            contexts.append(np.append(seq[:t], guaranteed))
            guaranteed_tokens.append(guaranteed)
            teachers.append(teacher)
            hs.append(out.hidden[-1].copy())
    return Examples(contexts, np.asarray(guaranteed_tokens, np.int64),
                    np.asarray(teachers, np.int64), np.stack(hs)), skipped


def assert_same_examples(got, want):
    """A ``DistillDataset`` holds the ``Examples`` want, row by row; h is
    compared bit for bit."""
    assert isinstance(got, DistillDataset) and len(got) == len(want.contexts)
    for i, context in enumerate(want.contexts):
        assert np.array_equal(got.context(i), context)
    for field in ("guaranteed", "teacher", "h"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
    assert np.array_equal(got.guaranteed, want.guaranteed)
    assert np.array_equal(got.teacher, want.teacher)
    assert np.array_equal(got.h.view(np.uint32), want.h.view(np.uint32))
    # every context is a prefix of its sequence, then the guaranteed token
    assert got.prefix_len.min() >= 1
    assert all(got.prefix_len[i] <= len(got.sequences[got.seq_index[i]])
               for i in range(len(got)))


def assert_same_dataset(got, want):
    """Two ``DistillDataset``s hold the same fields: the same sequences, and
    rows of the same dtype, shape and values (h by its bits)."""
    assert isinstance(got, DistillDataset)
    assert len(got.sequences) == len(want.sequences)
    for a, b in zip(got.sequences, want.sequences):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for field in ("seq_index", "prefix_len", "guaranteed", "teacher", "h"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b), field
    assert np.array_equal(got.h.view(np.uint32), want.h.view(np.uint32))


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


@pytest.mark.parametrize("base", ["markov", "transformer"], indirect=True)
def test_distilled_teacher_is_base_greedy_continuation(base, corpus):
    horizon = 4
    dataset = build_distill_dataset(base, corpus, horizon)
    assert len(dataset) == sum(len(s) for s in corpus)
    rng = np.random.default_rng(7)
    for i in rng.choice(len(dataset), size=10, replace=False):
        # the context is a committed prefix plus its guaranteed token; the
        # teacher continues greedily after the guaranteed token
        context = dataset.context(i)
        prefix = list(context[:-1])
        assert prefix == list(corpus[dataset.seq_index[i]][:len(prefix)])
        cfg = DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=horizon + 1)
        rollout = autoregressive_generate(base, prefix, cfg)
        assert [int(context[-1])] + dataset.teacher[i].tolist() == rollout
        assert dataset.guaranteed[i] == context[-1]
        cache = base.new_cache()
        out = base.forward_context(prefix, cache)
        assert np.array_equal(dataset.h[i], out.hidden[-1])
    # one example per corpus position, each prefix ending there
    assert dataset.prefix_len.tolist() == [t for s in corpus for t in range(1, len(s) + 1)]
    assert dataset.seq_index.tolist() == [i for i, s in enumerate(corpus) for _ in s]


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
    assert_same_examples(got, want)
    # two length-1 sequences, then the window-filling one's last positions
    assert want_skipped == 2 + horizon
    assert f"skipped {want_skipped} short/overflowing positions" in caplog.text
    # positions past the headroom are skipped: the longest kept prefix leaves
    # room for the rollout
    assert got.prefix_len.max() == WINDOW - horizon


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
    for horizon in (0, -2):
        with pytest.raises(ContractError):
            build_distill_dataset(base, corpus, horizon)
        with pytest.raises(ContractError):
            ground_truth_dataset(base, corpus, horizon)


@pytest.mark.parametrize("ground_truth", [[], ["--ground-truth"]],
                         ids=["rollouts", "ground-truth"])
def test_distill_data_cli_rejects_a_non_positive_horizon(ground_truth, tmp_path, capsys):
    out = str(tmp_path / "data.txt")
    assert cli.main(["distill-data", "--base", "markov", "--markov-vocab", "16",
                     "--corpus-size", "2", "--corpus-len", "8", "--horizon", "-2",
                     *ground_truth, "--out", out]) == 2
    assert "error: need horizon >= 1" in capsys.readouterr().err


def test_ground_truth_teacher_is_corpus_continuation(base, corpus):
    horizon = 4
    dataset = ground_truth_dataset(base, corpus, horizon)
    # the corpus token after each prefix plays the guaranteed token; h is
    # the hidden state at the prefix's last token
    expected = [(np.asarray(s[:t + 1]), np.asarray(s[t + 1:t + 1 + horizon]), s[:t])
                for s in corpus if len(s) > horizon + 1
                for t in range(1, len(s) - horizon)]
    assert len(dataset) == len(expected)
    assert dataset.teacher.shape == (len(expected), horizon)
    for i, (ctx, teach, prefix) in enumerate(expected):
        assert np.array_equal(dataset.context(i), ctx)
        assert np.array_equal(dataset.teacher[i], teach)
        out = base.forward_context(list(prefix), base.new_cache())
        assert np.array_equal(dataset.h[i], out.hidden[-1])


def test_corpus_needs_room_for_the_two_seed_tokens(tmp_path, capsys):
    for seq_len in (0, 1):
        with pytest.raises(ContractError, match="seq_len >= 2"):
            sample_markov_corpus(seed=5, n_sequences=1, seq_len=seq_len, vocab_size=16)
        assert cli.main(["distill-data", "--base", "markov", "--corpus-size", "1",
                         "--corpus-len", str(seq_len), "--out", str(tmp_path / "d")]) == 2
        assert "seq_len >= 2" in capsys.readouterr().err
    assert [len(s) for s in sample_markov_corpus(seed=5, n_sequences=2, seq_len=2)] == [2, 2]


def test_dataset_file_round_trip(base, corpus, tmp_path, monkeypatch):
    """``read_dataset`` of ``write_dataset(ds)`` is ``ds``, on both bases, for
    built and ground-truth datasets, with sequences that no row points to;
    h is recomputed with one prefill per sequence that rows point to, of the
    longest prefix they use."""
    path = str(tmp_path / "distill.txt")
    for model in (base, WINDOW_BASES["transformer"]()):
        prefills = []
        forward_context = model.forward_context

        def counting_forward_context(tokens, cache, forward_context=forward_context):
            prefills.append(np.asarray(tokens).tolist())
            return forward_context(tokens, cache)

        for data in (corpus, edge_corpus(16)):
            for dataset in (build_distill_dataset(model, data, 3),
                            ground_truth_dataset(model, data, 3)):
                write_dataset(path, dataset)
                prefills.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(model, "forward_context", counting_forward_context)
                    assert_same_dataset(read_dataset(path, model), dataset)
                used = sorted(set(dataset.seq_index.tolist()))
                assert prefills == [
                    dataset.sequences[i][:dataset.prefix_len[dataset.seq_index == i].max()]
                    .tolist() for i in used]


# a valid file: line 1 the magic, 2 the header, 3-4 the sequences, 5-6 rows;
# each case below replaces one line and expects an error naming a line
GOOD_FILE = ["REDRAFT-DISTILL v1", "2 2", "1 2 3", "4 5", "0 1 6 7 8", "1 2 9 10 11"]


@pytest.mark.parametrize("lineno, line, error", [
    (1, "3 2 1 2 3 9 4", "1: bad magic line '3 2 1 2 3 9 4', expected 'REDRAFT-DISTILL v1'"),
    (1, "REDRAFT-DISTILL v2", "1: bad magic line 'REDRAFT-DISTILL v2'"),
    (2, "2", "2: malformed header"),
    (2, "-1 2", "2: malformed header"),
    (2, "2 0", "2: malformed header, expected 'n_sequences horizon' with 1 <= horizon < 4096, "
               "the base's window"),
    (2, "2 4096", "2: malformed header"),
    (2, "5 2", "7: the file ends before its 5 sequences do"),
    (4, "4 x", "4: non-integer field"),
    (6, "1 2 9 10 1.5", "6: non-integer field"),
    (3, "1 16 3", "3: token id outside vocab of size 16"),
    (4, "-1 5", "4: token id outside vocab of size 16"),
    (5, "0 1 16 7 8", "5: token id outside vocab of size 16"),
    (6, "1 2 9 10 -3", "6: token id outside vocab of size 16"),
    (5, "0 1 6 7", "5: a row holds seq_index, prefix_len, the guaranteed token and 2 teacher "
                   "tokens, got 4 fields"),
    (6, "1 2 9 10 11 12", "6: a row holds seq_index, prefix_len, the guaranteed token and 2 "
                          "teacher tokens, got 6 fields"),
    (5, "2 1 6 7 8", "5: seq_index outside the file's 2 sequences"),
    (6, "-1 2 9 10 11", "6: seq_index outside the file's 2 sequences"),
    (5, "0 0 6 7 8", "5: prefix_len outside [1, the length of its sequence]"),
    (6, "1 3 9 10 11", "6: prefix_len outside [1, the length of its sequence]"),
], ids=["old-format", "magic", "header-fields", "header-count", "header-horizon",
        "header-horizon-past-window", "truncated",
        "sequence-field", "row-field", "sequence-token", "sequence-negative", "guaranteed",
        "teacher", "short-row", "long-row", "seq-index", "seq-index-negative", "prefix-zero",
        "prefix-past-sequence"])
def test_malformed_dataset_file_names_its_line(lineno, line, error, base, tmp_path):
    path = tmp_path / "data.txt"
    good = "\n".join(GOOD_FILE) + "\n"
    path.write_text(good, encoding="utf-8")
    assert len(read_dataset(str(path), base)) == 2
    lines = GOOD_FILE.copy()
    lines[lineno - 1] = line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}:{error}")):
        read_dataset(str(path), base)


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
    s0_all = emb[[int(dataset.context(i)[-1]) for i in range(n)]]
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
    for bad in ({"epochs": 0}, {"epochs": -1}, {"batch_size": 0}, {"batch_size": -4},
                {"horizon": 0}, {"learning_rate": -1e-3}, {"learning_rate": float("nan")},
                {"learning_rate": float("inf")}):
        with pytest.raises(ContractError):
            TrainConfig(**bad)
    TrainConfig(epochs=1, batch_size=1)


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
    assert cli.main(["train-drafter", "--base", "markov", "--markov-vocab", "16",
                     "--dataset", str(tmp_path / "data.txt"), *flag, "--out", str(out)]) == 2
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
