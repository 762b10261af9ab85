"""Weight files: bit-exact round trips and corruption handling."""

import re
from dataclasses import replace

import numpy as np
import pytest

from redrafter import cli, weights
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
    params = DrafterParams.random(np.random.default_rng(4), 8, 12)
    prefix = str(tmp_path / "drafter")
    weights.save_drafter(params, horizon=5, prefix=prefix)
    loaded, horizon = weights.load_drafter(prefix)
    assert horizon == 5
    for (name, orig), (name2, got) in zip(params.flat_arrays(), loaded.flat_arrays()):
        assert name == name2
        # storage is float32; the round trip must be exact at that precision
        assert np.array_equal(orig.astype(np.float32), got.astype(np.float32)), name
    # a second save of the loaded params reproduces the blob byte for byte
    prefix2 = str(tmp_path / "drafter2")
    weights.save_drafter(loaded, horizon=5, prefix=prefix2)
    assert (tmp_path / "drafter.bin").read_bytes() == (tmp_path / "drafter2.bin").read_bytes()


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
    ("base", r"l0_wq f32 .*$", "", "missing tensor l0_wq"),
    ("drafter", r"mlp1_b f32 .*$", "", "drafter manifest missing 'mlp1_b'"),
    ("drafter", r"u f32 8,8 ", "u f32 4,16 ", "recurrence shapes must be (4,4)"),
    ("drafter", r"# d_s 8$", "# d_s 9", "drafter manifest says d_s 9, its tensors are 8 wide"),
    ("drafter", r"# d_s 8$", "", "drafter manifest missing 'd_s'"),
    ("drafter", r"(b f32 8 \d+)$", r"\1\nb f32 8 0", "tensor b appears twice"),
    ("base", r"(l0_b1 f32 16 0)$", r"\1\nl0_b1 f32 16 0", "tensor l0_b1 appears twice"),
    ("drafter", r"(# horizon 5)$", r"\1\n# horizon 7", "header key horizon appears twice"),
    ("base", r"(# max_seq_len \d+)$", r"\1\n# max_seq_len 8",
     "header key max_seq_len appears twice"),
    ("drafter", r"# n_mlp 2$", "# n_mlp 1",
     "tensor mlp1_w is not read by a drafter with n_mlp 1"),
    ("base", r"# n_layers 2$", "# n_layers 1",
     "tensor l1_b1 is not read by a base model with n_layers 1"),
    # 2**32 * 2**32 elements wrap an int64 product to 0
    ("drafter", r"u f32 8,8 ", "u f32 4294967296,4294967296 ",
     f"tensor u: blob truncated (needs bytes up to {4 * 2 ** 64}"),
    ("drafter", r"u f32 8,8 ", "u f32 0,4294967296,4294967296 ",
     "tensor u: shape 0,4294967296,4294967296 ("),
], ids=["three-fields", "dtype", "base-tensor", "drafter-tensor", "drafter-shape", "drafter-d_s",
        "drafter-no-d_s", "drafter-repeat", "base-repeat", "drafter-header-repeat",
        "base-header-repeat", "drafter-unread", "base-unread",
        "count-overflow", "empty-overflow"])
def test_malformed_manifest_line_is_a_format_error(kind, line, edited, message, tmp_path):
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
    with pytest.raises(FormatError, match=re.escape(message)):
        load(prefix)


def test_base_manifest_of_a_shape_no_model_has_is_a_config_error(tmp_path, capsys):
    """A header edited to no attention heads, or to no width, is ModelConfig's
    ConfigError, which the CLI reports with exit 2, not an untyped
    ZeroDivisionError or a model whose logits are all zero."""
    for line, edited, message in (("n_heads 2", "n_heads 0", "d_model 8 and n_heads 0"),
                                  ("d_model 8", "d_model 0", "d_model 0 and n_heads 2")):
        prefix = str(tmp_path / "base")
        weights.save_base_model(TinyTransformer.random(CONFIG, seed=14), prefix)
        manifest = tmp_path / "base.manifest"
        text, n = re.subn(f"^# {line}$", f"# {edited}", manifest.read_text(), flags=re.M)
        assert n == 1
        manifest.write_text(text)
        with pytest.raises(ConfigError, match=message):
            weights.load_base_model(prefix)
        assert cli.main(["generate", "--base-weights", prefix, "--prompt", "1 2",
                         "--max-new-tokens", "2"]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind, line, edited, field", [
    ("base", r"l0_b1 f32 16 ", "l0_b1 f32 2x6 ", "tensor l0_b1 dim '2x6'"),
    ("base", r"(tok_emb f32 12,8) \d+$", r"\1 0x10", "tensor tok_emb offset '0x10'"),
    ("base", r"l0_b1 f32 16 0$", "l0_b1 f32 16 -8", "tensor l0_b1 offset '-8'"),
    ("base", r"l0_b1 f32 16 ", "l0_b1 f32 -4,-4 ", "tensor l0_b1 dim '-4'"),
    ("base", r"# d_ff 16$", "# d_ff 16.0", "d_ff '16.0'"),
    ("drafter", r"# horizon 5$", "# horizon five", "horizon 'five'"),
    ("drafter", r"# n_mlp 2$", "# n_mlp two", "n_mlp 'two'"),
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
    assert cli.main(["generate", "--base", "markov", "--markov-vocab", "16", "--prompt", "1 2",
                     "--max-new-tokens", "2", "--drafter-weights", prefix]) == 2
    assert "error: tensor u: blob truncated" in capsys.readouterr().err
