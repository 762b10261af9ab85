"""Speculative decoding with a recurrent draft head, drafter beam search,
dynamic tree attention over shared prefixes, and greedy verification that
exactly reproduces autoregressive greedy output."""

from .beam import BeamLattice, DraftTree, beam_search, chain_tree, dedup_prefix, pack_beam
from .decode import (DecodeConfig, MirrorProposer, RnnProposer, StepReport,
                     autoregressive_generate, speculative_generate, verify_greedy)
from .drafter import DrafterParams
from .distill import (DistillDataset, TrainConfig, build_distill_dataset, empirical_kl,
                      ground_truth_dataset, sample_markov_corpus, train_drafter)
from .model import BaseModelOutput, KvCache, ModelConfig, SyntheticMarkovModel, TinyTransformer
from .weights import load_base_model, load_drafter, save_base_model, save_drafter

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
