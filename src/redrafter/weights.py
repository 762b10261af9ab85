"""Weight files: a UTF-8 manifest plus one raw little-endian float32 blob.

Manifest layout::

    REDRAFT-WEIGHTS v1          (or REDRAFT-DRAFTER v1)
    # key value                  integer header entries (config, training horizon)
    name f32 d0,d1 offset        one tensor per line, byte offset into the blob

The format is language-neutral.  Base-model tensors are float32, so a
save/load round trip reproduces them byte for byte; drafter tensors are
float64 in memory and load back as their float32 rounding.
"""

import math

import numpy as np

from .errors import FormatError, ShapeError
from .drafter import DrafterParams
from .model import ModelConfig, TinyTransformer

BASE_MAGIC = "REDRAFT-WEIGHTS v1"
DRAFTER_MAGIC = "REDRAFT-DRAFTER v1"


def save_tensors(prefix, magic, tensors, header=None):
    """Write ``prefix.manifest`` and ``prefix.bin`` for named float32 tensors."""
    lines = [magic]
    for key, value in (header or {}).items():
        lines.append(f"# {key} {value}")
    offset = 0
    blob = bytearray()
    for name, arr in tensors:
        arr = np.ascontiguousarray(arr, dtype="<f4")
        dims = ",".join(str(d) for d in arr.shape)
        lines.append(f"{name} f32 {dims} {offset}")
        raw = arr.tobytes()
        blob.extend(raw)
        offset += len(raw)
    with open(prefix + ".manifest", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(prefix + ".bin", "wb") as fh:
        fh.write(bytes(blob))


def load_tensors(prefix, magic):
    """Read a manifest/blob pair back into (header dict of integers, dict of
    tensors by name in file order); a key or a name may appear once."""
    manifest_path = prefix + ".manifest"
    blob_path = prefix + ".bin"
    with open(manifest_path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != magic:
        found = repr(lines[0]) if lines else "<empty>"
        raise FormatError(f"{manifest_path}: bad magic line {found}, expected {magic!r}")
    with open(blob_path, "rb") as fh:
        blob = fh.read()

    header = {}
    tensors = {}
    for ln in lines[1:]:
        if ln.startswith("#"):
            key, _, value = ln[1:].strip().partition(" ")
            if key in header:
                raise FormatError(f"{manifest_path}: header key {key} appears twice")
            header[key] = _int(value, key, manifest_path)
            continue
        parts = ln.split()
        if len(parts) != 4:
            raise FormatError(f"{manifest_path}: malformed tensor line {ln!r}")
        name, dtype, dims, offset = parts
        if name in tensors:
            raise FormatError(f"{manifest_path}: tensor {name} appears twice")
        if dtype != "f32":
            raise FormatError(f"tensor {name}: unsupported dtype {dtype}")
        shape = tuple(_int(d, f"tensor {name} dim", manifest_path) for d in dims.split(","))
        offset = _int(offset, f"tensor {name} offset", manifest_path)
        count = math.prod(shape)  # exact: an int64 product can wrap to a small count
        end = offset + 4 * count
        if end > len(blob):
            raise FormatError(f"tensor {name}: blob truncated "
                              f"(needs bytes up to {end}, have {len(blob)})")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        try:
            tensors[name] = arr.reshape(shape).copy()
        except ValueError as exc:  # a dim too large for numpy, even on no elements
            raise FormatError(f"tensor {name}: shape {dims} ({exc})") from None
    return header, tensors


def _check_all_read(tensors, read, model):
    """Every tensor of a file must be one the loaded model reads."""
    for name in tensors:
        if name not in read:
            raise FormatError(f"tensor {name} is not read by a {model}")


def _int(text, field, manifest_path):
    if not (text.isascii() and text.isdigit()):
        raise FormatError(f"{manifest_path}: {field} {text!r} is not a non-negative integer")
    return int(text)


# ---------------------------------------------------------------------------
# base model
# ---------------------------------------------------------------------------

_CONFIG_KEYS = ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len")


def save_base_model(model, prefix):
    header = {key: getattr(model.config, key) for key in _CONFIG_KEYS}
    save_tensors(prefix, BASE_MAGIC, sorted(model.weights.items()), header)


def load_base_model(prefix):
    header, tensors = load_tensors(prefix, BASE_MAGIC)
    try:
        config = ModelConfig(**{key: header[key] for key in _CONFIG_KEYS})
    except KeyError as exc:
        raise FormatError(f"manifest missing config key {exc}") from exc
    _check_all_read(tensors, TinyTransformer.weight_shapes(config),
                    f"base model with n_layers {config.n_layers}")
    try:
        return TinyTransformer(config, tensors)
    except ShapeError as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# drafter
# ---------------------------------------------------------------------------

def save_drafter(params, horizon, prefix):
    header = {"horizon": horizon, "n_mlp": len(params.mlp), "d_s": params.d_s}
    save_tensors(prefix, DRAFTER_MAGIC, params.flat_arrays(), header)


def load_drafter(prefix):
    """Returns (DrafterParams, training horizon)."""
    header, tensors = load_tensors(prefix, DRAFTER_MAGIC)
    f64 = {name: arr.astype(np.float64) for name, arr in tensors.items()}
    try:
        horizon, n_mlp, d_s = header["horizon"], header["n_mlp"], header["d_s"]
        params = DrafterParams(u=f64["u"], w=f64["w"], b=f64["b"], out_proj=f64["out_proj"],
                               mlp=[(f64[f"mlp{i}_w"], f64[f"mlp{i}_b"]) for i in range(n_mlp)])
    except KeyError as exc:
        raise FormatError(f"drafter manifest missing {exc}") from exc
    except ShapeError as exc:
        raise FormatError(str(exc)) from exc
    if params.d_s != d_s:
        raise FormatError(f"drafter manifest says d_s {d_s}, its tensors are {params.d_s} wide")
    _check_all_read(tensors, dict(params.flat_arrays()), f"drafter with n_mlp {n_mlp}")
    return params, horizon
