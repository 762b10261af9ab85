"""Tensor files: a UTF-8 manifest plus one raw little-endian blob.

Manifest layout::

    REDRAFT-WEIGHTS v1          (or REDRAFT-DRAFTER v1, REDRAFT-DISTILL v4)
    # key value                  integer header entries (config, training horizon)
    name f32 d0,d1 offset        one tensor per line, byte offset into the blob

A tensor is ``f32`` (float32) or ``i64`` (int64), by its array's dtype kind.
The format is language-neutral.  Weight files hold float32 tensors, as the
base model and drafter do in memory, so a round trip reproduces them byte for
byte; a base file holds each layer's fused ``wqkv``.  Dataset files hold
int64 and float32 tensors.  A loader raises this package's errors as a
``FormatError`` naming its manifest.
"""

import contextlib
import math

import numpy as np

from .errors import FormatError, RedrafterError
from .drafter import DrafterParams
from .model import ModelConfig, TinyTransformer

BASE_MAGIC = "REDRAFT-WEIGHTS v1"
DRAFTER_MAGIC = "REDRAFT-DRAFTER v1"

# a file dtype's little-endian numpy dtype
_DTYPES = {"f32": np.dtype("<f4"), "i64": np.dtype("<i8")}


def save_tensors(prefix, magic, tensors, header=None):
    """Write ``prefix.manifest`` and ``prefix.bin`` for named tensors: an
    integer array as int64, any other as float32."""
    lines = [magic]
    for key, value in (header or {}).items():
        lines.append(f"# {key} {value}")
    offset = 0
    blob = bytearray()
    for name, arr in tensors:
        arr = np.asarray(arr)
        dtype = "i64" if arr.dtype.kind in "iu" else "f32"
        arr = np.ascontiguousarray(arr, dtype=_DTYPES[dtype])
        dims = ",".join(str(d) for d in arr.shape)
        lines.append(f"{name} {dtype} {dims} {offset}")
        raw = arr.tobytes()
        blob.extend(raw)
        offset += len(raw)
    with open(prefix + ".manifest", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(prefix + ".bin", "wb") as fh:
        fh.write(bytes(blob))


def load_tensors(prefix, magic):
    """Read a manifest/blob pair back into (header dict of integers, dict of
    float32 and int64 tensors by name in file order); a key or a name may
    appear once.  A loader calls it under ``naming``."""
    with open(prefix + ".manifest", encoding="utf-8") as fh:
        try:
            lines = [ln for ln in fh.read().split("\n") if ln.strip()]
        except UnicodeDecodeError as exc:  # one whole-file decode: start is the file's byte
            raise FormatError(f"is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if not lines or lines[0] != magic:
        found = repr(lines[0]) if lines else "<empty>"
        raise FormatError(f"bad magic line {found}, expected {magic!r}")
    with open(prefix + ".bin", "rb") as fh:
        blob = fh.read()

    header = {}
    tensors = {}
    for ln in lines[1:]:
        if ln.startswith("#"):
            key, _, value = ln[1:].strip().partition(" ")
            if key in header:
                raise FormatError(f"header key {key} appears twice")
            header[key] = _int(value, key)
            continue
        parts = ln.split()
        if len(parts) != 4:
            raise FormatError(f"malformed tensor line {ln!r}")
        name, dtype, dims, offset = parts
        if name in tensors:
            raise FormatError(f"tensor {name} appears twice")
        if dtype not in _DTYPES:
            raise FormatError(f"tensor {name}: unsupported dtype {dtype}")
        shape = tuple(_int(d, f"tensor {name} dim") for d in dims.split(","))
        offset = _int(offset, f"tensor {name} offset")
        count = math.prod(shape)  # exact: an int64 product can wrap to a small count
        end = offset + _DTYPES[dtype].itemsize * count
        if end > len(blob):
            raise FormatError(f"tensor {name}: blob truncated "
                              f"(needs bytes up to {end}, have {len(blob)})")
        arr = np.frombuffer(blob, dtype=_DTYPES[dtype], count=count, offset=offset)
        try:
            tensors[name] = arr.reshape(shape).copy()
        except ValueError as exc:  # a dim too large for numpy, even on no elements
            raise FormatError(f"tensor {name}: shape {dims} ({exc})") from None
    return header, tensors


@contextlib.contextmanager
def naming(prefix):
    """A loader's one rule: any of this package's errors raised in the block
    leaves it as a ``FormatError`` that starts with the manifest path."""
    try:
        yield
    except RedrafterError as exc:
        raise FormatError(f"{prefix}.manifest: {exc}") from exc


def _int(text, field):
    if not (text.isascii() and text.isdigit()):
        raise FormatError(f"{field} {text!r} is not a non-negative integer")
    return int(text)


# ---------------------------------------------------------------------------
# base model
# ---------------------------------------------------------------------------

_CONFIG_KEYS = ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len")


def save_base_model(model, prefix):
    header = {key: getattr(model.config, key) for key in _CONFIG_KEYS}
    save_tensors(prefix, BASE_MAGIC, sorted(model.weights.items()), header)


def load_base_model(prefix):
    with naming(prefix):
        header, tensors = load_tensors(prefix, BASE_MAGIC)
        try:
            config = ModelConfig(**{key: header[key] for key in _CONFIG_KEYS})
        except KeyError as exc:
            raise FormatError(f"missing config key {exc}") from exc
        if len(tensors) != 4 + 10 * config.n_layers:  # before a claimed n_layers sizes any work
            raise FormatError(f"holds {len(tensors)} tensors, a base model with n_layers "
                              f"{config.n_layers} reads {4 + 10 * config.n_layers}")
        try:
            return TinyTransformer(config, tensors)
        except (MemoryError, ValueError) as exc:
            # numpy refuses a position table past the address space with either
            raise FormatError(f"max_seq_len {config.max_seq_len}: its position table cannot "
                              f"be allocated ({exc})") from exc


# ---------------------------------------------------------------------------
# drafter
# ---------------------------------------------------------------------------

def save_drafter(params, horizon, prefix):
    save_tensors(prefix, DRAFTER_MAGIC, params.flat_arrays(), {"horizon": horizon})


def load_drafter(prefix):
    """Returns (DrafterParams, training horizon).  The head's depth is the
    tensor count's: ``u``, ``w``, ``b`` and ``out_proj``, then a weight and a
    bias per layer."""
    with naming(prefix):
        header, tensors = load_tensors(prefix, DRAFTER_MAGIC)
        n_mlp, odd = divmod(len(tensors) - 4, 2)
        if n_mlp < 0 or odd:
            raise FormatError(f"holds {len(tensors)} tensors, a drafter reads 4 + 2 per head "
                              "layer")
        try:
            params = DrafterParams(
                u=tensors["u"], w=tensors["w"], b=tensors["b"], out_proj=tensors["out_proj"],
                mlp=[(tensors[f"mlp{i}_w"], tensors[f"mlp{i}_b"]) for i in range(n_mlp)])
            return params, header["horizon"]
        except KeyError as exc:
            raise FormatError(f"missing {exc}") from exc
