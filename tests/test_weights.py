"""Weight files: bit-exact round trips and corruption handling."""

import re
import time
from dataclasses import replace

import numpy as np
import pytest

from redrafter import cli, distill, weights
from redrafter.beam import pack_beam
from redrafter.drafter import DrafterParams
from redrafter.errors import ConfigError, FormatError
from redrafter.model import ModelConfig, TinyTransformer

CONFIG = ModelConfig(vocab_size=12, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                     max_seq_len=32)


def test_base_model_round_trip_is_bitwise(tmp_path):
    model = TinyTransformer.random(CONFIG, seed=3)
    prefix = str(tmp_path / "base")
    weights.save_base_model(model, prefix)
    loaded = weights.load_base_model(prefix)
    assert loaded.config == model.config
    assert set(loaded.weights) == set(model.weights)
    for name, arr in model.weights.items():
        assert np.array_equal(loaded.weights[name], arr), name
    # the loaded model rebuilds its fused projection and forwards bit for bit alike
    packed, _ = pack_beam(np.array([[4, 5, 1], [4, 5, 2], [4, 6, 6]]), 7)

    def outputs(m):
        cache = m.new_cache()
        outs = [m.forward_context([3, 1, 4, 1, 5], cache), m.forward_context([9], cache),
                m.forward_packed(packed, cache)[0]]
        return [a.view(np.uint32) for o in outs for a in (o.logits, o.hidden)]

    for got, want in zip(outputs(loaded), outputs(model), strict=True):
        assert np.array_equal(got, want)


def test_drafter_round_trip_preserves_float32_payload(tmp_path):
    """A trained drafter comes back float32 and byte for byte."""
    base = TinyTransformer.random(CONFIG, seed=4)
    corpus = distill.sample_markov_corpus(seed=4, n_sequences=3, seq_len=10, vocab_size=12)
    params, _ = distill.train_drafter(distill.build_distill_dataset(base, corpus, 5),
                                      DrafterParams.random(np.random.default_rng(4), 8, 12),
                                      distill.TrainConfig(horizon=5, epochs=1),
                                      base.token_embeddings)
    prefix = str(tmp_path / "drafter")
    weights.save_drafter(params, horizon=5, prefix=prefix)
    loaded, horizon = weights.load_drafter(prefix)
    assert horizon == 5
    for (name, orig), (name2, got) in zip(params.flat_arrays(), loaded.flat_arrays(),
                                          strict=True):
        assert name == name2
        assert orig.dtype == got.dtype == np.float32, name
        assert orig.shape == got.shape and orig.tobytes() == got.tobytes(), name
    # a second save of the loaded params reproduces the blob byte for byte
    prefix2 = str(tmp_path / "drafter2")
    weights.save_drafter(loaded, horizon=5, prefix=prefix2)
    assert (tmp_path / "drafter.bin").read_bytes() == (tmp_path / "drafter2.bin").read_bytes()


def test_drafter_header_holds_no_width(tmp_path):
    """A drafter's header is its horizon; its width is its tensors', which
    ``DrafterParams`` checks against ``u``, and its head depth their count's.
    A manifest with ``# n_mlp`` and ``# d_s`` lines, as drafter files once
    had, still loads: other header keys are ignored."""
    prefix = str(tmp_path / "drafter")
    weights.save_drafter(DrafterParams.random(np.random.default_rng(18), 8, 12), 5, prefix)
    manifest = tmp_path / "drafter.manifest"
    lines = manifest.read_text().splitlines()
    assert [ln for ln in lines if ln.startswith("#")] == ["# horizon 5"]
    manifest.write_text("\n".join([lines[0], "# n_mlp 2", "# d_s 8", *lines[1:]]) + "\n")
    params, horizon = weights.load_drafter(prefix)
    assert (params.d_s, len(params.mlp), horizon) == (8, 2, 5)


def test_truncated_blob_names_the_tensor(tmp_path):
    model = TinyTransformer.random(CONFIG, seed=5)
    prefix = str(tmp_path / "trunc")
    weights.save_base_model(model, prefix)
    blob = (tmp_path / "trunc.bin").read_bytes()
    (tmp_path / "trunc.bin").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError, match=r"tensor \w+"):
        weights.load_base_model(prefix)


def test_bad_magic_rejected(tmp_path):
    model = TinyTransformer.random(CONFIG, seed=6)
    prefix = str(tmp_path / "magic")
    weights.save_base_model(model, prefix)
    manifest = (tmp_path / "magic.manifest").read_text()
    (tmp_path / "magic.manifest").write_text(manifest.replace(weights.BASE_MAGIC, "NOPE v9"))
    with pytest.raises(FormatError, match="magic"):
        weights.load_base_model(prefix)


def test_drafter_magic_and_base_magic_are_distinct(tmp_path):
    params = DrafterParams.random(np.random.default_rng(7), 8, 12)
    prefix = str(tmp_path / "cross")
    weights.save_drafter(params, horizon=3, prefix=prefix)
    with pytest.raises(FormatError):
        weights.load_base_model(prefix)


def test_missing_manifest_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        weights.load_base_model(str(tmp_path / "absent"))


def test_missing_config_key_rejected(tmp_path):
    model = TinyTransformer.random(CONFIG, seed=8)
    prefix = str(tmp_path / "nokey")
    weights.save_base_model(model, prefix)
    lines = (tmp_path / "nokey.manifest").read_text().splitlines()
    lines = [ln for ln in lines if not ln.startswith("# d_ff")]
    (tmp_path / "nokey.manifest").write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="config key"):
        weights.load_base_model(prefix)


def test_edited_shape_rejected(tmp_path):
    model = TinyTransformer.random(CONFIG, seed=9)
    prefix = str(tmp_path / "shape")
    weights.save_base_model(model, prefix)
    text = (tmp_path / "shape.manifest").read_text()
    (tmp_path / "shape.manifest").write_text(text.replace("tok_emb f32 12,8", "tok_emb f32 8,12"))
    with pytest.raises(FormatError, match="tok_emb"):
        weights.load_base_model(prefix)


@pytest.mark.parametrize("kind, line, edited, message", [
    ("base", r"l0_b1 f32 16 0$", "l0_b1 f32 16", "malformed tensor line 'l0_b1 f32 16'"),
    ("base", r"l0_b1 f32 ", "l0_b1 f64 ", "tensor l0_b1: unsupported dtype f64"),
    # a tensor count other than the header's n_layers reads is refused first
    ("base", r"l0_wqkv f32 .*$", "", "holds 23 tensors, a base model with n_layers 2 reads 24"),
    # a drafter reads u, w, b, out_proj and a weight and a bias per head layer
    ("drafter", r"mlp1_b f32 .*$", "", "holds 7 tensors, a drafter reads 4 + 2 per head layer"),
    ("drafter", r"mlp1_w f32 ", "mlp1_z f32 ", "missing 'mlp1_w'"),
    ("drafter", r"u f32 8,8 ", "u f32 4,16 ", "recurrence shapes must be (4,4)"),
    ("drafter", r"(b f32 8 \d+)$", r"\1\nb f32 8 0", "tensor b appears twice"),
    ("base", r"(l0_b1 f32 16 0)$", r"\1\nl0_b1 f32 16 0", "tensor l0_b1 appears twice"),
    ("drafter", r"(# horizon 5)$", r"\1\n# horizon 7", "header key horizon appears twice"),
    ("base", r"(# max_seq_len \d+)$", r"\1\n# max_seq_len 8",
     "header key max_seq_len appears twice"),
    ("drafter", r"(b f32 8 \d+)$", r"\1\nextra f32 8 0",
     "holds 9 tensors, a drafter reads 4 + 2 per head layer"),
    ("base", r"# n_layers 2$", "# n_layers 1",
     "holds 24 tensors, a base model with n_layers 1 reads 14"),
    # names are unique and the count is the one n_layers reads, so an unread
    # tensor means a missing one
    ("base", r"l0_wqkv f32 ", "l0_wz f32 ", "missing tensor l0_wqkv"),
    # weight files hold float32 tensors; an int64 one is refused by the model it feeds
    ("base", r"l0_b1 f32 ", "l0_b1 i64 ", "tensor l0_b1: expected float32, got int64"),
    ("drafter", r"u f32 ", "u i64 ", "drafter tensors must share one dtype, float32 or "
                                     "float64: u int64, w float32"),
    # windows whose position table lies past the address space: numpy raises
    # MemoryError for the first and ValueError for the second
    ("base", r"# max_seq_len \d+$", f"# max_seq_len {10 ** 15}",
     f"max_seq_len {10 ** 15}: its position table cannot be allocated"),
    ("base", r"# max_seq_len \d+$", f"# max_seq_len {10 ** 20}",
     f"max_seq_len {10 ** 20}: its position table cannot be allocated"),
    # 2**32 * 2**32 elements wrap an int64 product to 0
    ("drafter", r"u f32 8,8 ", "u f32 4294967296,4294967296 ",
     f"tensor u: blob truncated (needs bytes up to {4 * 2 ** 64}"),
    ("drafter", r"u f32 8,8 ", "u f32 0,4294967296,4294967296 ",
     "tensor u: shape 0,4294967296,4294967296 ("),
], ids=["three-fields", "dtype", "base-tensor", "drafter-tensor", "drafter-renamed",
        "drafter-shape",
        "drafter-repeat", "base-repeat", "drafter-header-repeat",
        "base-header-repeat", "drafter-unread", "base-unread", "base-renamed", "base-i64",
        "drafter-i64", "window-1e15", "window-1e20", "count-overflow", "empty-overflow"])
def test_malformed_manifest_line_is_a_format_error(kind, line, edited, message, tmp_path):
    """Each malformed weight file is a ``FormatError`` that starts with its
    manifest's path, whichever check refuses it."""
    prefix = str(tmp_path / kind)
    if kind == "base":
        weights.save_base_model(TinyTransformer.random(replace(CONFIG, n_layers=2), seed=12),
                                prefix)
    else:
        weights.save_drafter(DrafterParams.random(np.random.default_rng(13), 8, 12), 5, prefix)
    manifest = tmp_path / f"{kind}.manifest"
    text, n = re.subn("^" + line, edited, manifest.read_text(), flags=re.M)
    assert n == 1
    manifest.write_text(text)
    load = weights.load_base_model if kind == "base" else weights.load_drafter
    with pytest.raises(FormatError, match="^" + re.escape(f"{manifest}: {message}")):
        load(prefix)


def test_base_file_of_separate_projections_is_a_format_error(tmp_path):
    """A base file holds each layer's fused ``wqkv``; one that stores ``wq``,
    ``wk`` and ``wv`` apart, as the format once did, holds more tensors than
    its layers read and is refused naming its manifest."""
    model = TinyTransformer.random(CONFIG, seed=17)
    tensors = {name: arr for name, arr in model.weights.items() if name != "l0_wqkv"}
    for name, block in zip(("wq", "wk", "wv"), np.split(model.weights["l0_wqkv"], 3, axis=1)):
        tensors[f"l0_{name}"] = block
    prefix = str(tmp_path / "base")
    weights.save_tensors(prefix, weights.BASE_MAGIC, sorted(tensors.items()),
                         vars(CONFIG))
    with pytest.raises(FormatError, match=re.escape(
            f"{prefix}.manifest: holds 16 tensors, a base model with n_layers 1 reads 14")):
        weights.load_base_model(prefix)


def test_base_manifest_of_a_shape_no_model_has_is_a_config_error(tmp_path, capsys):
    """A header edited to no attention heads, to no width, or to heads that
    do not split the width evenly is ModelConfig's ConfigError.  It leaves
    the loader as a FormatError naming the manifest, which the CLI reports
    with exit 2, not an untyped ZeroDivisionError or a model whose logits
    are all zero."""
    for line, edited, message in (("n_heads 2", "n_heads 0", "d_model 8 and n_heads 0"),
                                  ("d_model 8", "d_model 0", "d_model 0 and n_heads 2"),
                                  ("n_heads 2", "n_heads 3", "d_model 8 and n_heads 3")):
        prefix = str(tmp_path / "base")
        weights.save_base_model(TinyTransformer.random(CONFIG, seed=14), prefix)
        manifest = tmp_path / "base.manifest"
        text, n = re.subn(f"^# {line}$", f"# {edited}", manifest.read_text(), flags=re.M)
        assert n == 1
        manifest.write_text(text)
        want = f"{manifest}: need an even d_model split by n_heads >= 1, got {message}"
        with pytest.raises(FormatError, match="^" + re.escape(want)) as exc:
            weights.load_base_model(prefix)
        assert isinstance(exc.value.__cause__, ConfigError)
        assert cli.main(["generate", "--base-weights", prefix, "--prompt", "1 2",
                         "--max-new-tokens", "2"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {want}")


@pytest.mark.parametrize("kind", ["base", "drafter", "dataset"])
def test_manifest_that_is_not_utf8_is_a_format_error(kind, tmp_path, capsys):
    """A manifest with a byte that is not UTF-8 is a FormatError naming the
    manifest and the byte, for every loader, and each command that reads it
    exits 2 instead of ending in a UnicodeDecodeError traceback."""
    prefix = str(tmp_path / kind)
    decode = ["--prompt", "1 2", "--max-new-tokens", "2"]
    if kind == "base":
        weights.save_base_model(TinyTransformer.random(CONFIG, seed=19), prefix)
        load, argv = weights.load_base_model, ["generate", "--base-weights", prefix, *decode]
    elif kind == "drafter":
        weights.save_drafter(DrafterParams.random(np.random.default_rng(19), 8, 16), 5, prefix)
        load = weights.load_drafter
        argv = ["generate", "--base", "markov", "--drafter-weights", prefix, *decode]
    else:
        dataset = distill.DistillDataset(np.array([1]), np.array([[2, 3]]),
                                         np.ones((1, 8), np.float32))
        distill.write_dataset(prefix, dataset, np.ones((16, 8), np.float32))
        load = distill.read_dataset
        argv = ["train-drafter", "--dataset", prefix, "--out", str(tmp_path / "out")]
    manifest = tmp_path / f"{kind}.manifest"
    text = manifest.read_bytes()
    manifest.write_bytes(text + b"\xff\n")
    want = f"{manifest}: is not UTF-8 text (invalid start byte at byte {len(text)})"
    with pytest.raises(FormatError, match="^" + re.escape(want)):
        load(prefix)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {want}")
    assert not (tmp_path / "out.manifest").exists()


@pytest.mark.parametrize("kind, line, edited, field", [
    ("base", r"l0_b1 f32 16 ", "l0_b1 f32 2x6 ", "tensor l0_b1 dim '2x6'"),
    ("base", r"(tok_emb f32 12,8) \d+$", r"\1 0x10", "tensor tok_emb offset '0x10'"),
    ("base", r"l0_b1 f32 16 0$", "l0_b1 f32 16 -8", "tensor l0_b1 offset '-8'"),
    ("base", r"l0_b1 f32 16 ", "l0_b1 f32 -4,-4 ", "tensor l0_b1 dim '-4'"),
    ("base", r"# d_ff 16$", "# d_ff 16.0", "d_ff '16.0'"),
    ("drafter", r"# horizon 5$", "# horizon five", "horizon 'five'"),
    # every header value is parsed, one the loader ignores among them
    ("drafter", r"(# horizon 5)$", r"\1\n# n_mlp two", "n_mlp 'two'"),
], ids=["dim", "offset", "negative-offset", "negative-dim", "config-key", "horizon", "n_mlp"])
def test_malformed_manifest_number_names_the_field(kind, line, edited, field, tmp_path):
    prefix = str(tmp_path / kind)
    if kind == "base":
        weights.save_base_model(TinyTransformer.random(CONFIG, seed=10), prefix)
    else:
        weights.save_drafter(DrafterParams.random(np.random.default_rng(11), 8, 12), 5, prefix)
    manifest = tmp_path / f"{kind}.manifest"
    text, n = re.subn("^" + line, edited, manifest.read_text(), flags=re.M)
    assert n == 1
    manifest.write_text(text)
    load = weights.load_base_model if kind == "base" else weights.load_drafter
    message = f"{manifest}: {field} is not a non-negative integer"
    with pytest.raises(FormatError, match=re.escape(message)):
        load(prefix)


def test_base_manifest_of_an_unallocatable_window_exits_2(tmp_path, capsys):
    """A window too large to allocate is a FormatError naming max_seq_len,
    which ``generate`` reports with exit 2, not exit 1 (an equivalence
    failure) after a numpy traceback."""
    prefix = str(tmp_path / "base")
    weights.save_base_model(TinyTransformer.random(CONFIG, seed=15), prefix)
    manifest = tmp_path / "base.manifest"
    text, n = re.subn(r"^# max_seq_len \d+$", f"# max_seq_len {10 ** 15}", manifest.read_text(),
                      flags=re.M)
    assert n == 1
    manifest.write_text(text)
    assert cli.main(["generate", "--base-weights", prefix, "--prompt", "1 2",
                     "--max-new-tokens", "2"]) == 2
    assert (f"error: {manifest}: max_seq_len {10 ** 15}: its position table"
            in capsys.readouterr().err)


def test_drafter_manifest_of_a_wrapping_element_count_exits_2(tmp_path, capsys):
    """A shape whose element count wraps an int64 product is a FormatError,
    which ``generate`` reports with exit 2 instead of a traceback."""
    prefix = str(tmp_path / "drafter")
    weights.save_drafter(DrafterParams.random(np.random.default_rng(13), 8, 16), 5, prefix)
    manifest = tmp_path / "drafter.manifest"
    text, n = re.subn(r"^u f32 8,8 ", "u f32 4294967296,4294967296 ", manifest.read_text(),
                      flags=re.M)
    assert n == 1
    manifest.write_text(text)
    assert cli.main(["generate", "--base", "markov", "--prompt", "1 2",
                     "--max-new-tokens", "2", "--drafter-weights", prefix]) == 2
    assert f"error: {manifest}: tensor u: blob truncated" in capsys.readouterr().err


def test_a_layer_count_the_file_does_not_hold_fails_before_any_work(tmp_path):
    """The loader compares the file's tensor count with the header's
    n_layers before it lists the names those layers read, so a claim of
    10**9 layers costs no more than the file it comes in."""
    prefix = str(tmp_path / "base")
    weights.save_base_model(TinyTransformer.random(CONFIG, seed=16), prefix)
    manifest = tmp_path / "base.manifest"
    text, n = re.subn(r"^# n_layers 1$", f"# n_layers {10 ** 9}", manifest.read_text(),
                      flags=re.M)
    assert n == 1
    manifest.write_text(text)
    t0 = time.perf_counter()
    with pytest.raises(FormatError, match=re.escape(
            f"{manifest}: holds 14 tensors, a base model with n_layers {10 ** 9} reads "
            f"{4 + 10 * 10 ** 9}")):
        weights.load_base_model(prefix)
    assert time.perf_counter() - t0 < 0.5
