"""Command-line surface: generate text, verify the exact-equivalence
guarantee over a grid of beam shapes (with a per-shape table of tokens/step,
compression and speedup), build distillation data and train draft heads,
each on the one base model ``--base`` names.

Exit codes: 0 ok, 1 equivalence/assertion failure, 2 usage or IO error.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import decode, distill, kernels, weights
from .drafter import DrafterParams
from .errors import ConfigError, ContractError, RedrafterError
from .model import ModelConfig, SyntheticMarkovModel, TinyTransformer

CSV_COLUMNS = ["beam_width", "beam_length", "tokens", "steps",
               "tokens_per_step", "compression_mean", "compression_p99",
               "wall_ms_spec", "wall_ms_ar", "speedup", "equivalence_ok"]
REPORT_KEYS = ["base", "beam_width", "beam_length", "seed", "tokens_generated", "steps",
               "tokens_per_step", "wall_ms_spec", "wall_ms_ar", "speedup", "compression_mean",
               "compression_p99", "equivalence_ok", "packed_nodes_mean", "accepted_len_hist",
               "backend"]

TRANSFORMER_CONFIG = ModelConfig(vocab_size=256, d_model=64, n_layers=2, n_heads=4,
                                 d_ff=256, max_seq_len=256)


def build_base(args):
    if args.base == "markov":
        if args.base_weights:
            raise ConfigError("--base-weights loads transformer weights; --base markov has none")
        return SyntheticMarkovModel(order=2, vocab_size=args.markov_vocab, seed=args.seed)
    if args.base_weights:
        return weights.load_base_model(args.base_weights)
    return TinyTransformer.random(TRANSFORMER_CONFIG, seed=args.seed)


def build_drafter(args, base):
    if args.drafter_weights:
        params, _ = weights.load_drafter(args.drafter_weights)
        return params
    rng = np.random.default_rng(args.seed + 1)
    return DrafterParams.random(rng, base.config.d_model, base.config.vocab_size)


def random_prompts(base, n, length, seed):
    if length < 1:
        raise ConfigError(f"--prompt-len must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    return [rng.integers(0, base.config.vocab_size, size=length).tolist() for _ in range(n)]


def parse_prompt(args, base):
    if args.prompt is not None:
        return parse_ints(args.prompt.split(), "--prompt")
    return random_prompts(base, 1, args.prompt_len, args.seed)[0]


def parse_ints(words, flag):
    """The integers a flag's words spell, skipping empty words (so that a
    comma-separated grid such as ``--widths 1,2,4`` may end in a comma)."""
    try:
        return [int(word) for word in words if word]
    except ValueError as exc:
        raise ConfigError(f"{flag} takes integers: {exc}") from None


def check_out_dirs(args, *flags, prefix=False):
    """A usage error for an output flag that names nothing the command could
    write, raised before the command does any work: a missing directory, an
    empty file name, or an existing directory. A weight ``prefix`` may name a
    directory, since the writer adds ``.manifest`` and ``.bin`` to it."""
    for flag in flags:
        path = getattr(args, flag[2:].replace("-", "_"))
        if not path:
            continue
        directory, name = os.path.split(path)
        if not os.path.isdir(directory or "."):
            raise ConfigError(f"{flag} {path}: no directory {directory!r}")
        if not name or (not prefix and os.path.isdir(path)):
            raise ConfigError(f"{flag} {path}: names a directory, not a file")


def first_divergence(spec_tokens, greedy_tokens):
    """Position where a speculative stream first leaves its greedy reference,
    or None when the two are equal."""
    if spec_tokens == greedy_tokens:
        return None
    return next((i for i, (a, b) in enumerate(zip(spec_tokens, greedy_tokens)) if a != b),
                min(len(spec_tokens), len(greedy_tokens)))


def sweep(base, params, prompts, widths, lengths, max_new_tokens, stop_token=None):
    """Decode every prompt speculatively at each beam width x length against
    one timed greedy pass, and return one summary row per shape.

    Each row holds the ``CSV_COLUMNS``, the tree nodes per step
    (``packed_nodes_mean``), the steps by accepted draft tokens
    (``accepted_len_hist``), the speculative ``streams`` and, per stream that
    left its greedy reference, ``(prompt index, position)`` in ``divergences``.
    Every setting is checked before the first decode; each timed pass follows
    one untimed warm-up decode of the first prompt.
    """
    cfgs = [decode.DecodeConfig(beam_width=width, beam_length=length,
                                max_new_tokens=max_new_tokens, stop_token=stop_token)
            for width in widths for length in lengths]
    if not cfgs:
        raise ConfigError("empty sweep list: --widths and --lengths need a value each")
    if not prompts:
        raise ConfigError("no prompts to decode: --n-prompts must be >= 1")
    proposer = decode.RnnProposer(params, base.token_embeddings)
    widest = max(cfg.beam_width for cfg in cfgs)
    if widest > params.vocab_size:
        raise ConfigError(f"beam_width {widest} exceeds vocab size {params.vocab_size}")
    # the greedy reference does not depend on the beam shape: run and time it once
    greedy_cfg = decode.DecodeConfig(beam_width=1, beam_length=1,
                                     max_new_tokens=max_new_tokens, stop_token=stop_token)
    decode.autoregressive_generate(base, prompts[0], greedy_cfg)  # warm-up
    t0 = time.perf_counter()
    greedy = [decode.autoregressive_generate(base, p, greedy_cfg) for p in prompts]
    wall_ms_ar = (time.perf_counter() - t0) * 1e3

    rows = []
    for cfg in cfgs:
        decode.speculative_generate(base, proposer, prompts[0], cfg)  # warm-up
        t0 = time.perf_counter()
        runs = [decode.speculative_generate(base, proposer, p, cfg) for p in prompts]
        wall_ms_spec = (time.perf_counter() - t0) * 1e3
        streams = [toks for toks, _ in runs]
        reports = [r for _, reps in runs for r in reps]
        ratios = [r.compression_ratio for r in reports]
        tokens = sum(len(toks) for toks in streams)
        divergences = [(i, pos) for i, (toks, ref) in enumerate(zip(streams, greedy))
                       if (pos := first_divergence(toks, ref)) is not None]
        rows.append({
            "beam_width": cfg.beam_width, "beam_length": cfg.beam_length,
            "tokens": tokens, "steps": len(reports),
            "tokens_per_step": tokens / max(1, len(reports)),
            "compression_mean": float(np.mean(ratios)),
            "compression_p99": float(np.percentile(ratios, 99)),
            "wall_ms_spec": wall_ms_spec,
            "wall_ms_ar": wall_ms_ar,
            "speedup": wall_ms_ar / max(1e-9, wall_ms_spec),
            "equivalence_ok": not divergences,
            "packed_nodes_mean": float(np.mean([r.packed_size for r in reports])),
            "accepted_len_hist": np.bincount([r.accepted_draft_tokens for r in reports],
                                             minlength=cfg.beam_length + 1).tolist(),
            "streams": streams,
            "divergences": divergences,
        })
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args):
    check_out_dirs(args, "--report")
    base = build_base(args)
    prompt = parse_prompt(args, base)
    row, = sweep(base, build_drafter(args, base), [prompt], [args.beam_width],
                 [args.beam_length], args.max_new_tokens, stop_token=args.stop_token)
    print(" ".join(str(t) for t in row["streams"][0]))
    if args.report:
        row.update(base=args.base, seed=args.seed, tokens_generated=row["tokens"],
                   backend=kernels.BACKEND)
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({key: row[key] for key in REPORT_KEYS}, fh, indent=2)
    return 0 if row["equivalence_ok"] else 1


def cmd_verify_equivalence(args):
    check_out_dirs(args, "--csv")
    base = build_base(args)
    rows = sweep(base, build_drafter(args, base),
                 random_prompts(base, args.n_prompts, args.prompt_len, args.seed),
                 parse_ints(args.widths.split(","), "--widths"),
                 parse_ints(args.lengths.split(","), "--lengths"), args.max_new_tokens)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
    total = sum(len(row["streams"]) for row in rows)
    failures = [(row, *div) for row in rows for div in row["divergences"]]
    print(f"equivalence: {total - len(failures)}/{total} passed")
    if failures:
        row, p_idx, pos = failures[0]
        print(f"first divergence: base={args.base} beam_width={row['beam_width']} "
              f"beam_length={row['beam_length']} prompt={p_idx} seed={args.seed} position={pos}")
        return 1
    return 0


def cmd_train_drafter(args):
    check_out_dirs(args, "--out", prefix=True)
    check_out_dirs(args, "--loss-csv")
    # the settings are checked before the file is read; the horizon is the file's
    cfg = distill.TrainConfig(learning_rate=args.learning_rate, epochs=args.epochs,
                              batch_size=args.batch_size, seed=args.seed)
    base = build_base(args)
    dataset = distill.read_dataset(args.dataset, base)
    cfg = dataclasses.replace(cfg, horizon=dataset.teacher.shape[1])
    params, curve = distill.train_drafter(dataset, build_drafter(args, base), cfg,
                                          base.token_embeddings)
    weights.save_drafter(params, cfg.horizon, args.out)
    if args.loss_csv:
        with open(args.loss_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_loss"])
            writer.writerows((i, loss) for i, loss in enumerate(curve))
    print(f"trained drafter on {len(dataset)} examples; "
          f"final mean loss {curve[-1]:.4f}; saved to {args.out}.manifest/.bin")
    return 0


def cmd_distill_data(args):
    check_out_dirs(args, "--out")
    base = build_base(args)
    corpus = distill.sample_markov_corpus(seed=args.seed + 7, n_sequences=args.corpus_size,
                                          seq_len=args.corpus_len,
                                          vocab_size=base.config.vocab_size)
    build = distill.ground_truth_dataset if args.ground_truth else distill.build_distill_dataset
    dataset = build(base, corpus, args.horizon)
    if not dataset:
        raise ContractError("the corpus yields no training example")
    distill.write_dataset(args.out, dataset)
    print(f"wrote {len(dataset)} examples to {args.out}")
    return 0


def cmd_init_base(args):
    check_out_dirs(args, "--out", prefix=True)
    base = TinyTransformer.random(TRANSFORMER_CONFIG, seed=args.seed)
    weights.save_base_model(base, args.out)
    print(f"wrote seeded base model to {args.out}.manifest/.bin")
    return 0


# ---------------------------------------------------------------------------

def _add_model_flags(p):
    p.add_argument("--base", choices=("transformer", "markov"), default="transformer")
    p.add_argument("--base-weights", help="manifest/blob prefix for transformer weights")
    p.add_argument("--markov-vocab", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)


def make_parser():
    parser = argparse.ArgumentParser(prog="redrafter")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="speculative generation, checked against greedy")
    _add_model_flags(p)
    p.add_argument("--prompt", help="whitespace-separated token ids")
    p.add_argument("--prompt-len", type=int, default=16)
    p.add_argument("--beam-width", type=int, default=4)
    p.add_argument("--beam-length", type=int, default=5)
    p.add_argument("--max-new-tokens", type=int, default=32)
    p.add_argument("--stop-token", type=int)
    p.add_argument("--report", help="write a JSON run report here")
    p.add_argument("--drafter-weights", help="manifest/blob prefix for drafter weights")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify-equivalence",
                       help="check speculative output equals greedy over a beam grid")
    _add_model_flags(p)
    p.add_argument("--widths", default="1,2,4,8")
    p.add_argument("--lengths", default="2,4,5")
    p.add_argument("--n-prompts", type=int, default=100)
    p.add_argument("--prompt-len", type=int, default=16)
    p.add_argument("--max-new-tokens", type=int, default=24)
    p.add_argument("--drafter-weights", help="manifest/blob prefix for drafter weights")
    p.add_argument("--csv", help="write a per-shape CSV of tokens/step, compression, speedup")
    p.set_defaults(func=cmd_verify_equivalence)

    p = sub.add_parser("train-drafter", help="train a draft head on a distill-data file")
    _add_model_flags(p)
    p.add_argument("--dataset", required=True, help="a distill-data file")
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--out", required=True, help="output weight file prefix")
    p.add_argument("--loss-csv")
    # training starts from build_drafter's seeded random drafter, never a file
    p.set_defaults(func=cmd_train_drafter, drafter_weights=None)

    p = sub.add_parser("distill-data", help="build and save a distillation dataset")
    _add_model_flags(p)
    p.add_argument("--ground-truth", action="store_true",
                   help="take the corpus continuations, not base-model rollouts")
    p.add_argument("--horizon", type=int, default=5)
    p.add_argument("--corpus-size", type=int, default=500, help="corpus sequences")
    p.add_argument("--corpus-len", type=int, default=64, help="tokens per corpus sequence")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distill_data)

    p = sub.add_parser("init-base", help="write seeded random transformer weights")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init_base)

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (RedrafterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
