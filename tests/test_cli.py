"""Command-line surface: subcommands, exit codes, CSV output, determinism."""

import csv
import json

import pytest

from redrafter import cli, weights

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


def test_generate_baseline_matches_speculative(capsys):
    args = [*MARKOV, "--prompt", "4 5", "--max-new-tokens", "12"]
    assert run(["generate", *args]) == 0
    spec = capsys.readouterr().out.split()
    assert run(["generate", *args, "--baseline"]) == 0
    assert capsys.readouterr().out.split() == spec


def test_generate_writes_json_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run(["generate", *MARKOV, "--prompt", "1 2",
                "--max-new-tokens", "8", "--report", str(report)]) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert data["equivalence_ok"] is True
    assert data["tokens_generated"] == 8
    assert data["steps"] >= 1


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


def test_generate_prompt_file(tmp_path, capsys):
    pf = tmp_path / "prompt.txt"
    pf.write_text("7 8 9\n")
    assert run(["generate", *MARKOV, "--prompt-file", str(pf),
                "--max-new-tokens", "5"]) == 0
    assert len(capsys.readouterr().out.split()) == 5


def test_bench_writes_csv_with_expected_columns(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench", *MARKOV, "--widths", "1,2", "--lengths", "2,3",
                "--n-prompts", "2", "--prompt-len", "4",
                "--max-new-tokens", "10", "--csv", str(out)]) == 0
    rows = read_csv(str(out))
    assert len(rows) == 4
    assert list(rows[0].keys()) == cli.CSV_COLUMNS
    assert all(r["equivalence_ok"] == "True" for r in rows)
    assert all(float(r["tokens_per_step"]) >= 1.0 for r in rows)
    assert all(float(r["compression_mean"]) >= 1.0 for r in rows)


def test_bench_same_seed_reproduces_non_timing_columns(tmp_path):
    argv = ["bench", *MARKOV, "--widths", "1,4", "--lengths", "2,5",
            "--n-prompts", "2", "--prompt-len", "4", "--max-new-tokens", "12"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--csv", str(a)]) == 0
    assert run(argv + ["--csv", str(b)]) == 0
    stable = [c for c in cli.CSV_COLUMNS if c not in TIMING_COLUMNS]
    rows_a, rows_b = read_csv(str(a)), read_csv(str(b))
    assert [{c: r[c] for c in stable} for r in rows_a] == \
           [{c: r[c] for c in stable} for r in rows_b]


def test_bench_rejects_empty_sweep(tmp_path, capsys):
    assert run(["bench", *MARKOV, "--widths", "", "--lengths", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_equivalence_passes(capsys):
    assert run(["verify-equivalence", *MARKOV, "--n-prompts", "3",
                "--prompt-len", "4", "--widths", "1,4", "--lengths", "2,5",
                "--max-new-tokens", "12"]) == 0
    out = capsys.readouterr().out
    assert "12/12 passed" in out


def test_verify_equivalence_corrupted_loop_fails(tmp_path, capsys):
    # a trained drafter keeps the corrupted loop moving (tokens only reach the
    # output through accepted draft prefixes once the hook drops the
    # guaranteed token), so the run terminates and the divergence is caught
    prefix = str(tmp_path / "drafter")
    assert run(["train-drafter", *MARKOV, "--horizon", "5", "--epochs", "6",
                "--learning-rate", "0.003", "--corpus-size", "40",
                "--corpus-len", "24", "--out", prefix]) == 0
    assert run(["verify-equivalence", *MARKOV, "--n-prompts", "2",
                "--prompt-len", "4", "--widths", "4", "--lengths", "5",
                "--max-new-tokens", "8", "--drafter-weights", prefix,
                "--corrupt-skip-bonus"]) == 1
    out = capsys.readouterr().out
    assert "first divergence" in out


def test_verify_equivalence_zero_prompts_warns(capsys):
    assert run(["verify-equivalence", *MARKOV, "--n-prompts", "0"]) == 0
    assert "vacuous" in capsys.readouterr().out


def test_train_and_reuse_drafter(tmp_path, capsys):
    prefix = str(tmp_path / "drafter")
    loss_csv = tmp_path / "loss.csv"
    assert run(["train-drafter", *MARKOV, "--horizon", "3", "--epochs", "2",
                "--corpus-size", "6", "--corpus-len", "10",
                "--learning-rate", "0.002", "--out", prefix,
                "--loss-csv", str(loss_csv)]) == 0
    capsys.readouterr()
    params, horizon = weights.load_drafter(prefix)
    assert horizon == 3
    rows = read_csv(str(loss_csv))
    assert len(rows) == 2 and float(rows[1]["mean_loss"]) < float(rows[0]["mean_loss"])

    assert run(["generate", *MARKOV, "--prompt", "1 2",
                "--max-new-tokens", "8", "--drafter-weights", prefix]) == 0
    assert len(capsys.readouterr().out.split()) == 8


def test_distill_data_round_trip_through_training(tmp_path, capsys):
    data = str(tmp_path / "data.txt")
    assert run(["distill-data", *MARKOV, "--horizon", "3",
                "--corpus-size", "4", "--corpus-len", "8", "--out", data]) == 0
    prefix = str(tmp_path / "drafter")
    assert run(["train-drafter", *MARKOV, "--horizon", "3", "--epochs", "1",
                "--dataset", data, "--out", prefix]) == 0
    capsys.readouterr()
    _, horizon = weights.load_drafter(prefix)
    assert horizon == 3


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
