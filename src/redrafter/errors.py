"""Exception hierarchy shared by all modules, the integer rules and the
token-range check."""

import operator

import numpy as np


class RedrafterError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(RedrafterError):
    """Tensor dimensions are inconsistent with the operation's contract."""


class ConfigError(RedrafterError):
    """Invalid model or run configuration."""


class VocabError(RedrafterError):
    """Token id outside the model vocabulary."""


class CapacityError(RedrafterError):
    """Sequence would exceed the model's maximum context length."""


class ContractError(RedrafterError):
    """Caller violated a structural precondition (misaligned inputs, non-path commits, ...)."""


class FormatError(RedrafterError):
    """Weight or dataset file is malformed."""


class TrainingError(RedrafterError):
    """Optimization diverged."""


def check_integers(error, **values):
    """Raise ``error`` naming the first of ``values`` that is not an integer:
    Python and numpy integers pass ``operator.index``, a float, a string or
    None does not."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise error(f"{name} must be an integer, got {value!r}") from None


def int64_array(values, error, what):
    """``values`` as an int64 array; ``error`` names ``what`` unless they are
    integers (an empty list passes), and a ``ShapeError`` for ragged lists."""
    try:
        values = np.asarray(values)
    except ValueError:  # numpy refuses lists of unequal lengths
        raise ShapeError(f"{what} nested at unequal lengths form no array") from None
    if values.size and values.dtype.kind not in "iu":
        raise error(f"{what} must be integers, got dtype {values.dtype}")
    return values.astype(np.int64, copy=False)


def check_tokens(tokens, vocab_size, ndim=None):
    """An ``int64_array`` of token ids inside the vocab (a ``VocabError``
    otherwise), of rank ``ndim`` if given (a ``ShapeError`` otherwise)."""
    tokens = int64_array(tokens, VocabError, "token ids")
    if ndim is not None and tokens.ndim != ndim:
        raise ShapeError(f"need a {ndim}-D token array, got shape {tokens.shape}")
    # read as unsigned, a negative id lies above every vocab: one reduction checks both ends
    if tokens.size and tokens.view(np.uint64).max() >= vocab_size:
        raise VocabError(f"token id outside vocab of size {vocab_size}")
    return tokens
