"""Exception hierarchy shared by all modules, and the token-range check."""

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


def check_tokens(tokens, vocab_size):
    """``tokens`` as an int64 array; a ``VocabError`` if any lies outside the vocab."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab_size):
        raise VocabError(f"token id outside vocab of size {vocab_size}")
    return tokens
