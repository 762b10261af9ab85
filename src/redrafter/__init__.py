"""Speculative decoding with a recurrent draft head, drafter beam search,
dynamic tree attention over shared prefixes, and greedy verification that
exactly reproduces autoregressive greedy output."""

from .beam import (Beam, BeamLattice, DraftTree, PackedBeam, beam_search, chain_tree,
                   compression_ratio, dedup_prefix, pack_beam)
from .decode import (DecodeConfig, MirrorProposer, RnnProposer, StepReport,
                     autoregressive_generate, speculative_generate, verify_greedy)
from .drafter import DrafterParams, DrafterState, backward, head_logp, init_state, step
from .distill import (DistillExample, TrainConfig, build_distill_dataset, empirical_kl,
                      ground_truth_dataset, sample_markov_corpus, train_drafter)
from .model import (BaseModelOutput, KvCache, ModelConfig, SyntheticMarkovModel,
                    TinyTransformer, synthetic_markov_model)
from .weights import load_base_model, load_drafter, save_base_model, save_drafter

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
