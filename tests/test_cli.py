"""Command-line surface: subcommands, exit codes, CSV output, determinism."""

import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from redrafter import cli, decode, distill, kernels, weights
from redrafter.drafter import DrafterParams
from redrafter.model import SyntheticMarkovModel

TIMING_COLUMNS = {"wall_ms_spec", "wall_ms_ar", "speedup"}

MARKOV = ["--base", "markov", "--markov-vocab", "16", "--seed", "3"]


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_generate_prints_tokens(capsys):
    assert run(["generate", *MARKOV, "--prompt", "1 2 3",
                "--max-new-tokens", "10"]) == 0
    out = capsys.readouterr().out.split()
    assert len(out) == 10
    assert all(0 <= int(t) < 16 for t in out)


def test_generate_stop_token_outside_the_vocab_is_a_usage_error(capsys):
    assert run(["generate", *MARKOV, "--prompt", "1 2", "--stop-token", "16"]) == 2
    assert "error: stop token 16 outside vocab of size 16" in capsys.readouterr().err


def test_generate_writes_json_report(tmp_path, capsys):
    """The report holds the run summary and the kernel lane that ran."""
    report = tmp_path / "report.json"
    assert run(["generate", *MARKOV, "--prompt", "1 2",
                "--max-new-tokens", "8", "--report", str(report)]) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert data["equivalence_ok"] is True
    assert data["tokens_generated"] == 8
    assert data["steps"] >= 1
    assert data["backend"] == kernels.BACKEND


def test_generate_report_histograms_accepted_lengths(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run(["generate", *MARKOV, "--prompt", "3 1", "--beam-width", "4",
                "--beam-length", "3", "--max-new-tokens", "30", "--report", str(report)]) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    hist = data["accepted_len_hist"]
    assert len(hist) == 3 + 1
    assert sum(hist) == data["steps"]
    assert sum((k + 1) * count for k, count in enumerate(hist)) == data["tokens_generated"] == 30
    assert 1.0 <= data["packed_nodes_mean"] <= 1 + 4 + 3


def test_verify_equivalence_writes_csv_with_expected_columns(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert run(["verify-equivalence", *MARKOV, "--widths", "1,2", "--lengths", "2,3",
                "--n-prompts", "2", "--prompt-len", "4",
                "--max-new-tokens", "10", "--csv", str(out)]) == 0
    assert "equivalence: 8/8 passed" in capsys.readouterr().out
    rows = read_csv(str(out))
    assert len(rows) == 4
    assert list(rows[0].keys()) == cli.CSV_COLUMNS
    assert all(r["equivalence_ok"] == "True" for r in rows)
    assert all(float(r["tokens_per_step"]) >= 1.0 for r in rows)
    assert all(float(r["compression_mean"]) >= 1.0 for r in rows)


def test_bench_same_seed_reproduces_non_timing_columns(tmp_path):
    """The benchmark table (verify-equivalence --csv) repeats every
    non-timing column under the same seed."""
    argv = ["verify-equivalence", *MARKOV, "--widths", "1,4", "--lengths", "2,5",
            "--n-prompts", "2", "--prompt-len", "4", "--max-new-tokens", "12"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--csv", str(a)]) == 0
    assert run(argv + ["--csv", str(b)]) == 0
    stable = [c for c in cli.CSV_COLUMNS if c not in TIMING_COLUMNS]
    rows_a, rows_b = read_csv(str(a)), read_csv(str(b))
    assert [{c: r[c] for c in stable} for r in rows_a] == \
           [{c: r[c] for c in stable} for r in rows_b]


def test_verify_equivalence_passes(capsys):
    assert run(["verify-equivalence", *MARKOV, "--n-prompts", "3",
                "--prompt-len", "4", "--widths", "1,4", "--lengths", "2,5",
                "--max-new-tokens", "12"]) == 0
    out = capsys.readouterr().out
    assert "12/12 passed" in out


def test_verify_equivalence_corrupted_loop_fails(tmp_path, monkeypatch, capsys):
    """A decode loop that drops each stream's first token is caught, and the
    table is still written, with the diverging shape marked."""
    real = decode.speculative_generate

    def dropping(*args):
        tokens, reports = real(*args)
        return tokens[1:], reports

    monkeypatch.setattr(decode, "speculative_generate", dropping)
    table = tmp_path / "grid.csv"
    assert run(["verify-equivalence", *MARKOV, "--n-prompts", "2",
                "--prompt-len", "4", "--widths", "4", "--lengths", "5",
                "--max-new-tokens", "8", "--csv", str(table)]) == 1
    out = capsys.readouterr().out
    assert "equivalence: 0/2 passed" in out
    assert ("first divergence: base=markov beam_width=4 beam_length=5 prompt=0 seed=3 "
            "position=0") in out
    row, = read_csv(str(table))
    assert (row["beam_width"], row["beam_length"], row["equivalence_ok"]) == ("4", "5", "False")


def test_verify_equivalence_zero_prompts_is_a_usage_error(capsys):
    assert run(["verify-equivalence", *MARKOV, "--n-prompts", "0"]) == 2
    assert "no prompts to decode: --n-prompts must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify-equivalence", "--widths", ""], "empty sweep list"),
    (["verify-equivalence", "--lengths", ""], "empty sweep list"),
    (["verify-equivalence", "--n-prompts", "-1"],
     "no prompts to decode: --n-prompts must be >= 1"),
    (["verify-equivalence", "--widths", "2,64"], "beam_width 64 exceeds vocab size 16"),
], ids=["verify-no-widths", "verify-no-lengths", "verify-negative-prompts",
        "verify-wider-than-vocab"])
def test_sweep_that_decodes_nothing_is_a_usage_error(argv, message, monkeypatch, capsys):
    """Exit 2 before any decode, instead of a vacuous pass or a traceback,
    naming the bound the command accepts."""
    def no_decode(*args):
        raise AssertionError("decoded despite invalid sweep settings")

    monkeypatch.setattr(decode, "speculative_generate", no_decode)
    monkeypatch.setattr(decode, "autoregressive_generate", no_decode)
    assert run([argv[0], *MARKOV, *argv[1:]]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, bad", [
    (["verify-equivalence", "--widths", "1,x"], "--widths", "x"),
    (["verify-equivalence", "--lengths", "2,y"], "--lengths", "y"),
    (["generate", "--prompt", "1 b"], "--prompt", "b"),
], ids=["widths", "lengths", "prompt"])
def test_malformed_integer_is_a_usage_error_naming_the_flag(argv, flag, bad, capsys):
    assert run([argv[0], *MARKOV, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and repr(bad) in err


@pytest.mark.parametrize("base_flags", [[], ["--base", "markov", "--markov-vocab", "64"]],
                         ids=["transformer", "markov-vocab-64"])
def test_drafter_of_another_base_is_a_usage_error(base_flags, tmp_path, capsys):
    """A drafter saved for the vocab-32, d-32 Markov base fits neither the
    default transformer nor a vocab-64 Markov base."""
    prefix = str(tmp_path / "drafter")
    weights.save_drafter(DrafterParams.random(np.random.default_rng(0), 32, 32), 2, prefix)
    assert run(["generate", *base_flags, "--drafter-weights", prefix, "--prompt", "1 2",
                "--max-new-tokens", "4"]) == 2
    assert "does not fit" in capsys.readouterr().err


@pytest.mark.parametrize("part", ["w", "out_proj"])
def test_drafter_file_of_two_widths_is_a_usage_error(part, tmp_path, capsys):
    """A drafter file whose w is not square, or whose out_proj is not twice
    the state width, holds no drafter."""
    params = DrafterParams.random(np.random.default_rng(0), 32, 16)
    tensors = dict(params.flat_arrays())
    tensors[part] = np.zeros((32, 16) if part == "w" else (16, 80))
    prefix = str(tmp_path / "drafter")
    weights.save_tensors(prefix, weights.DRAFTER_MAGIC, tensors.items(),
                         {"horizon": 2, "n_mlp": 2, "d_s": 32})
    assert run(["generate", *MARKOV, "--drafter-weights", prefix, "--prompt", "1 2",
                "--max-new-tokens", "4"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["generate", "verify-equivalence"])
@pytest.mark.parametrize("length", ["-1", "0"])
def test_prompt_len_below_one_is_a_usage_error_naming_the_flag(command, length, capsys):
    assert run([command, *MARKOV, "--prompt-len", length, "--max-new-tokens", "2"]) == 2
    assert f"error: --prompt-len must be >= 1, got {length}" in capsys.readouterr().err


# each command line runs to exit 0 with --base transformer or markov, given
# the dataset file distill-data's line writes
SMALL_RUNS = {
    "generate": ["--prompt", "1 2", "--max-new-tokens", "2"],
    "verify-equivalence": ["--widths", "1", "--lengths", "1", "--n-prompts", "1",
                           "--max-new-tokens", "2"],
    "train-drafter": ["--dataset", "data.txt", "--epochs", "1", "--out", "drafter"],
    "distill-data": ["--corpus-size", "2", "--corpus-len", "4", "--horizon", "1",
                     "--out", "data.txt"],
}


@pytest.mark.parametrize("command", ["train-drafter", "distill-data"])
def test_drafter_weights_is_offered_only_by_decoding_commands(command, tmp_path, monkeypatch,
                                                              capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run([command, *MARKOV, "--drafter-weights", "/nonexistent/prefix",
             *SMALL_RUNS[command]])
    assert exc.value.code == 2
    assert "unrecognized arguments: --drafter-weights" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_base_weights_with_the_markov_base_is_a_usage_error(command, tmp_path, monkeypatch,
                                                              capsys):
    monkeypatch.chdir(tmp_path)
    assert run([command, *MARKOV, "--base-weights", "/nonexistent/prefix",
                *SMALL_RUNS[command]]) == 2
    assert "error: --base-weights" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["init-base", *SMALL_RUNS])
def test_negative_seed_is_a_usage_error(command, tmp_path, monkeypatch, capsys):
    """numpy's generators take no negative seed: the CLI refuses one before
    any work, with exit 2."""
    monkeypatch.chdir(tmp_path)
    model = [] if command == "init-base" else ["--base", "markov", "--markov-vocab", "16"]
    out = ["--out", "base"] if command == "init-base" else SMALL_RUNS.get(command, [])
    assert run([command, *model, "--seed", "-1", *out]) == 2
    assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# each output flag, last, pointed into a missing directory, at a directory
# (adir, which the test makes) where a file belongs, or at a weight prefix
# with no file name
UNWRITABLE_OUTPUTS = {
    "generate-report": ["generate", "--prompt", "1 2", "--max-new-tokens", "2",
                        "--report", "missing/report.json"],
    "verify-equivalence-csv": ["verify-equivalence", *SMALL_RUNS["verify-equivalence"],
                               "--csv", "missing/grid.csv"],
    "train-drafter-out": ["train-drafter", *SMALL_RUNS["train-drafter"][:-2],
                          "--out", "missing/drafter"],
    "train-drafter-loss-csv": ["train-drafter", *SMALL_RUNS["train-drafter"],
                               "--loss-csv", "missing/loss.csv"],
    "distill-data-out": ["distill-data", *SMALL_RUNS["distill-data"][:-2],
                         "--out", "missing/data.txt"],
    "generate-report-dir": ["generate", "--prompt", "1 2", "--max-new-tokens", "2",
                            "--report", "adir"],
    "verify-equivalence-csv-dir": ["verify-equivalence", *SMALL_RUNS["verify-equivalence"],
                                   "--csv", "adir"],
    "train-drafter-loss-csv-dir": ["train-drafter", *SMALL_RUNS["train-drafter"],
                                   "--loss-csv", "adir"],
    "distill-data-out-dir": ["distill-data", *SMALL_RUNS["distill-data"][:-2], "--out", "adir"],
    "train-drafter-out-no-name": ["train-drafter", *SMALL_RUNS["train-drafter"][:-2],
                                  "--out", "adir/"],
    "init-base-out-no-name": ["init-base", "--out", "adir/"],
}


@pytest.mark.parametrize("argv", UNWRITABLE_OUTPUTS.values(), ids=UNWRITABLE_OUTPUTS)
def test_output_into_a_missing_directory_is_refused_before_any_work(argv, tmp_path,
                                                                    monkeypatch, capsys):
    """No decode, dataset build, training or weight write runs before the
    command finds that it could not write its output: exit 2 naming the flag."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    calls = []
    for module, name in ((decode, "speculative_generate"), (decode, "autoregressive_generate"),
                         (distill, "build_distill_dataset"), (distill, "ground_truth_dataset"),
                         (distill, "train_drafter"), (weights, "save_base_model"),
                         (weights, "save_drafter")):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    model = [] if argv[0] == "init-base" else MARKOV
    assert run([argv[0], *model, *argv[1:]]) == 2
    reason = ("no directory 'missing'" if argv[-1].startswith("missing/")
              else "names a directory, not a file")
    assert f"error: {argv[-2]} {argv[-1]}: {reason}" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == [tmp_path / "adir"]
    assert list((tmp_path / "adir").iterdir()) == []


def test_verify_equivalence_loads_the_transformer_from_base_weights(tmp_path, capsys):
    argv = ["verify-equivalence", "--n-prompts", "1", "--prompt-len", "2", "--widths", "1",
            "--lengths", "1", "--max-new-tokens", "2", "--base-weights"]
    assert run([*argv, str(tmp_path / "absent")]) == 2
    assert (f"error: [Errno 2] No such file or directory: '{tmp_path / 'absent'}.manifest'"
            in capsys.readouterr().err)
    assert run(["init-base", "--out", str(tmp_path / "base")]) == 0
    assert run([*argv, str(tmp_path / "base")]) == 0
    assert "equivalence: 1/1 passed" in capsys.readouterr().out


def test_verify_equivalence_gives_drafter_weights_to_the_transformer(tmp_path, capsys):
    """The transformer run opens --drafter-weights, and a drafter saved for
    the default transformer (vocab 256, width 64) decodes it."""
    argv = ["verify-equivalence", "--n-prompts", "1", "--prompt-len", "2", "--widths", "1",
            "--lengths", "1", "--max-new-tokens", "2", "--drafter-weights"]
    assert run([*argv, str(tmp_path / "absent")]) == 2
    assert (f"error: [Errno 2] No such file or directory: '{tmp_path / 'absent'}.manifest'"
            in capsys.readouterr().err)
    prefix = str(tmp_path / "drafter")
    weights.save_drafter(DrafterParams.random(np.random.default_rng(0), 64, 256), 2, prefix)
    assert run([*argv, prefix]) == 0
    assert "equivalence: 1/1 passed" in capsys.readouterr().out


def test_generate_on_saved_base_weights_matches_the_seeded_base(tmp_path, capsys):
    prefix = str(tmp_path / "base")
    assert run(["init-base", "--seed", "3", "--out", prefix]) == 0
    capsys.readouterr()
    argv = ["generate", "--seed", "3", "--prompt", "1 2 3", "--max-new-tokens", "8"]
    assert run(argv) == 0
    seeded = capsys.readouterr().out
    assert run([*argv, "--base-weights", prefix]) == 0
    assert capsys.readouterr().out == seeded and len(seeded.split()) == 8


@pytest.mark.parametrize("ground_truth", [[], ["--ground-truth"]],
                         ids=["rollouts", "ground-truth"])
def test_distill_data_without_examples_is_an_error_and_writes_nothing(ground_truth, tmp_path,
                                                                      capsys):
    out = tmp_path / "e.txt"
    assert run(["distill-data", *MARKOV, *ground_truth, "--corpus-size", "0",
                "--out", str(out)]) == 2
    assert "error: the corpus yields no training example" in capsys.readouterr().err
    assert not out.exists()


def test_train_and_reuse_drafter(tmp_path, capsys):
    data, prefix = str(tmp_path / "data.txt"), str(tmp_path / "drafter")
    loss_csv = tmp_path / "loss.csv"
    assert run(["distill-data", *MARKOV, "--horizon", "3", "--corpus-size", "6",
                "--corpus-len", "10", "--out", data]) == 0
    assert run(["train-drafter", *MARKOV, "--dataset", data, "--epochs", "2",
                "--learning-rate", "0.002", "--out", prefix, "--loss-csv", str(loss_csv)]) == 0
    capsys.readouterr()
    params, horizon = weights.load_drafter(prefix)
    assert horizon == 3
    rows = read_csv(str(loss_csv))
    assert len(rows) == 2 and float(rows[1]["mean_loss"]) < float(rows[0]["mean_loss"])

    assert run(["generate", *MARKOV, "--prompt", "1 2",
                "--max-new-tokens", "8", "--drafter-weights", prefix]) == 0
    assert len(capsys.readouterr().out.split()) == 8


def test_distill_data_round_trip_through_training(tmp_path, capsys):
    """train-drafter takes its horizon from the file and writes it to the
    drafter manifest."""
    data = str(tmp_path / "data.txt")
    assert run(["distill-data", *MARKOV, "--horizon", "3",
                "--corpus-size", "4", "--corpus-len", "8", "--out", data]) == 0
    prefix = str(tmp_path / "drafter")
    assert run(["train-drafter", *MARKOV, "--epochs", "1", "--dataset", data,
                "--out", prefix]) == 0
    capsys.readouterr()
    _, horizon = weights.load_drafter(prefix)
    assert horizon == 3


@pytest.mark.parametrize("ground_truth", [[], ["--ground-truth"]],
                         ids=["rollouts", "ground-truth"])
def test_two_stage_distillation_writes_the_library_drafter(ground_truth, tmp_path, capsys):
    """distill-data, then train-drafter on its file, writes the drafter bytes
    that the library's builder and trainer give, called with the CLI's seeds:
    the corpus at seed + 7 and the drafter's initialisation at seed + 1."""
    data, prefix = str(tmp_path / "data.txt"), str(tmp_path / "drafter")
    assert run(["distill-data", *MARKOV, *ground_truth, "--horizon", "3", "--corpus-size", "5",
                "--corpus-len", "12", "--out", data]) == 0
    assert run(["train-drafter", *MARKOV, "--dataset", data, "--epochs", "2",
                "--out", prefix]) == 0
    capsys.readouterr()
    base = SyntheticMarkovModel(order=2, vocab_size=16, seed=3)
    corpus = distill.sample_markov_corpus(seed=3 + 7, n_sequences=5, seq_len=12, vocab_size=16)
    build = distill.ground_truth_dataset if ground_truth else distill.build_distill_dataset
    init = DrafterParams.random(np.random.default_rng(3 + 1), 32, 16)
    params, _ = distill.train_drafter(build(base, corpus, 3), init,
                                      distill.TrainConfig(horizon=3, epochs=2, seed=3),
                                      base.token_embeddings)
    weights.save_drafter(params, 3, str(tmp_path / "library"))
    for suffix in (".bin", ".manifest"):
        assert ((tmp_path / f"library{suffix}").read_bytes()
                == (tmp_path / f"drafter{suffix}").read_bytes())


def test_train_drafter_without_a_dataset_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["train-drafter", *MARKOV, "--out", str(tmp_path / "drafter")])
    assert exc.value.code == 2
    assert "the following arguments are required: --dataset" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_train_drafter_on_a_dataset_file_with_ground_truth_is_a_usage_error(tmp_path, capsys):
    """--ground-truth picks how a dataset is built, which distill-data does:
    train-drafter does not take the flag, and exits 2 before the file is read."""
    prefix = tmp_path / "drafter"
    with pytest.raises(SystemExit) as exc:
        run(["train-drafter", *MARKOV, "--ground-truth", "--dataset",
             str(tmp_path / "absent.txt"), "--out", str(prefix)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ground-truth" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("corpus_flags", [["--corpus-len", "1"], ["--corpus-size", "500"],
                                          ["--corpus-size", "4", "--corpus-len", "8"]],
                         ids=["len", "size", "both"])
def test_train_drafter_on_a_dataset_file_with_corpus_flags_is_a_usage_error(corpus_flags,
                                                                             tmp_path, capsys):
    """The corpus flags, like the horizon, shape the dataset that distill-data
    builds: train-drafter does not take them, and exits 2 before the file is
    read."""
    prefix = tmp_path / "drafter"
    for flags in (corpus_flags, ["--horizon", "3"]):
        with pytest.raises(SystemExit) as exc:
            run(["train-drafter", *MARKOV, *flags, "--dataset",
                 str(tmp_path / "absent.txt"), "--out", str(prefix)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_init_base_then_load(tmp_path, capsys):
    prefix = str(tmp_path / "base")
    assert run(["init-base", "--seed", "2", "--out", prefix]) == 0
    capsys.readouterr()
    model = weights.load_base_model(prefix)
    assert model.config == cli.TRANSFORMER_CONFIG


def test_missing_weight_file_exits_with_io_code(capsys):
    assert run(["generate", *MARKOV, "--drafter-weights", "/nonexistent/prefix",
                "--prompt", "1 2", "--max-new-tokens", "4"]) == 2
    assert "error" in capsys.readouterr().err


def test_readme_cli_lines_parse():
    """Every ``redrafter`` line in the README's CLI block parses, and the
    block shows every subcommand."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("redrafter ")]
    parser = cli.make_parser()
    commands = {parser.parse_args(argv).command for argv in lines}
    assert commands == {"generate", "verify-equivalence", "train-drafter", "distill-data",
                        "init-base"}
