"""The benchmark's workloads: a fixed base model, a drafter distilled in-process,
and a seeded stream of decode requests.

The base model and drafter never depend on the workload seed; only the
requests do.  The library receives plain token lists and a ``DecodeConfig``.
"""

import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from redrafter import decode, distill, weights
from redrafter.drafter import DrafterParams
from redrafter.model import ModelConfig, SyntheticMarkovModel, TinyTransformer

# The ROADMAP baseline transformer (vocab 64, d_model 32, 2 layers, 4 heads).
TT_CONFIG = ModelConfig(vocab_size=64, d_model=32, n_layers=2, n_heads=4, d_ff=64,
                        max_seq_len=128)


@dataclass(frozen=True)
class Recipe:
    """How the drafter is distilled: corpus shape, horizon and Adam settings."""

    corpus_seed: int
    n_sequences: int
    seq_len: int
    horizon: int
    epochs: int
    init_seed: int
    learning_rate: float = 3e-3
    batch_size: int = 64
    train_seed: int = 3


@dataclass(frozen=True)
class Workload:
    name: str
    make_base: Callable[[], object]
    recipe: Recipe
    prompt_len: tuple             # inclusive (lo, hi)
    new_tokens: Callable          # (rng, prompt_len) -> max_new_tokens
    beam_width: int
    beam_length: int
    setup_repeats: int            # set-ups per run; setup_s is their median


@dataclass
class Request:
    rid: int
    prompt: list
    cfg: decode.DecodeConfig


@dataclass
class Setup:
    base: object
    params: DrafterParams
    seconds: float
    examples: int
    roundtrip_exact: bool


def _tt_base():
    return TinyTransformer.random(TT_CONFIG, seed=1)


def _markov_base():
    return SyntheticMarkovModel(order=2, vocab_size=32, seed=0)


TT_RECIPE = Recipe(corpus_seed=7, n_sequences=60, seq_len=32, horizon=4, epochs=20,
                   init_seed=2)
MARKOV_RECIPE = Recipe(corpus_seed=21, n_sequences=120, seq_len=48, horizon=5, epochs=24,
                       init_seed=4)

WORKLOADS = {w.name: w for w in [
    Workload("tt-short", _tt_base, TT_RECIPE, prompt_len=(8, 16),
             new_tokens=lambda rng, n: 32, beam_width=4, beam_length=4, setup_repeats=1),
    Workload("tt-long", _tt_base, TT_RECIPE, prompt_len=(64, 96),
             new_tokens=lambda rng, n: int(rng.integers(16, TT_CONFIG.max_seq_len - n + 1)),
             beam_width=4, beam_length=4, setup_repeats=1),
    Workload("markov-wide", _markov_base, MARKOV_RECIPE, prompt_len=(8, 16),
             new_tokens=lambda rng, n: 48, beam_width=8, beam_length=5, setup_repeats=3),
]}


def requests(workload, seed, vocab_size):
    """Endless, seeded stream of requests; the same seed yields the same stream."""
    rng = np.random.default_rng(seed)
    lo, hi = workload.prompt_len
    rid = 0
    while True:
        n = int(rng.integers(lo, hi + 1))
        prompt = [int(t) for t in rng.integers(0, vocab_size, size=n)]
        cfg = decode.DecodeConfig(beam_width=workload.beam_width,
                                  beam_length=workload.beam_length,
                                  max_new_tokens=workload.new_tokens(rng, n))
        yield Request(rid, prompt, cfg)
        rid += 1


def distill_drafter(base, recipe):
    corpus = distill.sample_markov_corpus(seed=recipe.corpus_seed,
                                          n_sequences=recipe.n_sequences,
                                          seq_len=recipe.seq_len,
                                          vocab_size=base.config.vocab_size)
    dataset = distill.build_distill_dataset(base, corpus, recipe.horizon)
    init = DrafterParams.random(np.random.default_rng(recipe.init_seed),
                                base.config.d_model, base.config.vocab_size)
    cfg = distill.TrainConfig(horizon=recipe.horizon, learning_rate=recipe.learning_rate,
                              epochs=recipe.epochs, batch_size=recipe.batch_size,
                              seed=recipe.train_seed)
    params, _ = distill.train_drafter(dataset, init, cfg, base.token_embeddings)
    return params, len(dataset)


def _f32_bytes(arrays):
    return [np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays]


def weight_roundtrip(base, params, recipe, workdir):
    """Save and reload through ``redrafter.weights``, as the CLI's
    ``--base-weights``/``--drafter-weights`` path does.

    Returns the reloaded (base, params) and whether every tensor survived bit
    for bit.  Drafter files hold float32, so the drafter is compared after the
    same float32 rounding the file applies.
    """
    exact = True
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        if isinstance(base, TinyTransformer):
            prefix = os.path.join(tmp, "base")
            weights.save_base_model(base, prefix)
            loaded = weights.load_base_model(prefix)
            exact &= loaded.config == base.config and sorted(loaded.weights) == sorted(base.weights)
            exact &= all(_f32_bytes([loaded.weights[k]]) == _f32_bytes([base.weights[k]])
                         for k in base.weights)
            base = loaded
        prefix = os.path.join(tmp, "drafter")
        weights.save_drafter(params, recipe.horizon, prefix)
        loaded_params, horizon = weights.load_drafter(prefix)
    exact &= horizon == recipe.horizon
    exact &= (_f32_bytes(a for _, a in loaded_params.flat_arrays())
              == _f32_bytes(a for _, a in params.flat_arrays()))
    return base, loaded_params, exact


def set_up(workload, workdir):
    """Base build, distillation, weight round trip and a warm-up request."""
    t0 = time.perf_counter()
    base = workload.make_base()
    params, examples = distill_drafter(base, workload.recipe)
    base, params, exact = weight_roundtrip(base, params, workload.recipe, workdir)
    # warm-up: a short request that fits every workload's context
    prompt = [t % base.config.vocab_size for t in range(workload.prompt_len[0])]
    cfg = decode.DecodeConfig(beam_width=workload.beam_width,
                              beam_length=workload.beam_length, max_new_tokens=8)
    proposer = decode.RnnProposer(params, base.token_embeddings)
    decode.speculative_generate(base, proposer, prompt, cfg)
    decode.autoregressive_generate(base, prompt, cfg)
    return Setup(base, params, time.perf_counter() - t0, examples, exact)
