"""Command-line surface: generate text, benchmark beam configurations, train
draft heads, and verify the exact-equivalence guarantee.

Exit codes: 0 ok, 1 equivalence/assertion failure, 2 usage or IO error.
"""

import argparse
import csv
import dataclasses
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import decode, distill, weights
from .drafter import DrafterParams
from .errors import ConfigError, RedrafterError
from .model import ModelConfig, SyntheticMarkovModel, TinyTransformer

CSV_COLUMNS = ["beam_width", "beam_length", "repeat", "tokens", "steps",
               "tokens_per_step", "compression_mean", "compression_p99",
               "wall_ms_spec", "wall_ms_ar", "speedup", "equivalence_ok"]

TRANSFORMER_CONFIG = ModelConfig(vocab_size=256, d_model=64, n_layers=2, n_heads=4,
                                 d_ff=256, max_seq_len=256)


@dataclass
class RunReport:
    base: str
    beam_width: int
    beam_length: int
    seed: int
    tokens_generated: int
    steps: int
    tokens_per_step: float
    wall_ms_spec: float
    wall_ms_ar: float
    speedup: float
    compression_mean: float
    compression_p99: float
    equivalence_ok: bool
    packed_nodes_mean: float  # tree nodes verified per step
    accepted_len_hist: list   # [k]: steps that accepted k draft tokens


def build_base(args):
    if args.base == "markov":
        return SyntheticMarkovModel(order=args.markov_order, vocab_size=args.markov_vocab,
                                    seed=args.seed)
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
    rng = np.random.default_rng(seed)
    return [rng.integers(0, base.config.vocab_size, size=length).tolist() for _ in range(n)]


def parse_prompt(args, base):
    if args.prompt is not None:
        return [int(x) for x in args.prompt.split()]
    if args.prompt_file is not None:
        with open(args.prompt_file, encoding="utf-8") as fh:
            return [int(x) for x in fh.read().split()]
    return random_prompts(base, 1, args.prompt_len, args.seed)[0]


def greedy_streams(base, prompts, max_new_tokens):
    """The greedy reference of each prompt; it does not depend on the beam shape."""
    cfg = decode.DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=max_new_tokens)
    return [decode.autoregressive_generate(base, p, cfg) for p in prompts]


def first_divergence(spec_tokens, greedy_tokens):
    """Position where a speculative stream first leaves its greedy reference,
    or None when the two are equal."""
    if spec_tokens == greedy_tokens:
        return None
    return next((i for i, (a, b) in enumerate(zip(spec_tokens, greedy_tokens)) if a != b),
                min(len(spec_tokens), len(greedy_tokens)))


def run_single(base, params, prompt, cfg, base_name, seed):
    """Timed speculative + autoregressive runs over one prompt."""
    proposer = decode.RnnProposer(params, base.token_embeddings)
    t0 = time.perf_counter()
    spec_tokens, reports = decode.speculative_generate(base, proposer, prompt, cfg)
    t1 = time.perf_counter()
    ar_tokens = decode.autoregressive_generate(base, prompt, cfg)
    t2 = time.perf_counter()
    ratios = [r.compression_ratio for r in reports]
    wall_spec = (t1 - t0) * 1e3
    wall_ar = (t2 - t1) * 1e3
    return spec_tokens, RunReport(
        base=base_name,
        beam_width=cfg.beam_width, beam_length=cfg.beam_length, seed=seed,
        tokens_generated=len(spec_tokens), steps=len(reports),
        tokens_per_step=len(spec_tokens) / max(1, len(reports)),
        wall_ms_spec=wall_spec, wall_ms_ar=wall_ar,
        speedup=wall_ar / wall_spec if wall_spec > 0 else float("nan"),
        compression_mean=float(np.mean(ratios)) if ratios else 1.0,
        compression_p99=float(np.percentile(ratios, 99)) if ratios else 1.0,
        equivalence_ok=first_divergence(spec_tokens, ar_tokens) is None,
        packed_nodes_mean=float(np.mean([r.packed_size for r in reports])) if reports else 0.0,
        accepted_len_hist=np.bincount([r.accepted_draft_tokens for r in reports],
                                      minlength=cfg.beam_length + 1).tolist(),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args):
    base = build_base(args)
    prompt = parse_prompt(args, base)
    cfg = decode.DecodeConfig(beam_width=args.beam_width, beam_length=args.beam_length,
                              max_new_tokens=args.max_new_tokens,
                              stop_token=args.stop_token)
    if args.baseline:
        tokens = decode.autoregressive_generate(base, prompt, cfg)
        print(" ".join(str(t) for t in tokens))
        return 0
    tokens, report = run_single(base, build_drafter(args, base), prompt, cfg, args.base,
                               args.seed)
    print(" ".join(str(t) for t in tokens))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(report), fh, indent=2)
    return 0 if report.equivalence_ok else 1


def cmd_bench(args):
    widths = [int(x) for x in args.widths.split(",") if x]
    lengths = [int(x) for x in args.lengths.split(",") if x]
    if not widths or not lengths:
        raise ConfigError("empty sweep list")
    base = build_base(args)
    params = build_drafter(args, base)
    proposer = decode.RnnProposer(params, base.token_embeddings)
    prompts = random_prompts(base, args.n_prompts, args.prompt_len, args.seed)

    # AR baseline is config-independent: run and time it once per prompt set.
    greedy_streams(base, prompts[:1], args.max_new_tokens)  # warm-up, discarded
    t0 = time.perf_counter()
    ar_tokens = greedy_streams(base, prompts, args.max_new_tokens)
    wall_ms_ar = (time.perf_counter() - t0) * 1e3

    rows = []
    any_fail = False
    for width in widths:
        for length in lengths:
            cfg = decode.DecodeConfig(beam_width=width, beam_length=length,
                                      max_new_tokens=args.max_new_tokens)
            decode.speculative_generate(base, proposer, prompts[0], cfg)  # warm-up
            for rep in range(args.repeats):
                t0 = time.perf_counter()
                runs = [decode.speculative_generate(base, proposer, p, cfg) for p in prompts]
                wall_ms_spec = (time.perf_counter() - t0) * 1e3
                tokens = sum(len(toks) for toks, _ in runs)
                steps = sum(len(reps) for _, reps in runs)
                ratios = [r.compression_ratio for _, reps in runs for r in reps]
                ok = all(first_divergence(toks, ar) is None
                         for (toks, _), ar in zip(runs, ar_tokens))
                any_fail = any_fail or not ok
                rows.append({
                    "beam_width": width, "beam_length": length, "repeat": rep,
                    "tokens": tokens, "steps": steps,
                    "tokens_per_step": tokens / max(1, steps),
                    "compression_mean": float(np.mean(ratios)) if ratios else 1.0,
                    "compression_p99": float(np.percentile(ratios, 99)) if ratios else 1.0,
                    "wall_ms_spec": wall_ms_spec,
                    "wall_ms_ar": wall_ms_ar,
                    "speedup": wall_ms_ar / max(1e-9, wall_ms_spec),
                    "equivalence_ok": ok,
                })
    out = open(args.csv, "w", newline="", encoding="utf-8") if args.csv else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.csv:
            out.close()
    return 1 if any_fail else 0


def cmd_verify_equivalence(args):
    if args.n_prompts == 0:
        print("warning: n_prompts=0, vacuous pass")
        return 0
    widths = [int(x) for x in args.widths.split(",") if x]
    lengths = [int(x) for x in args.lengths.split(",") if x]
    bases = ["transformer", "markov"] if args.base == "both" else [args.base]
    total = passed = 0
    first_failure = None
    for base_name in bases:
        ns = argparse.Namespace(**{**vars(args), "base": base_name})
        base = build_base(ns)
        params = build_drafter(ns, base)
        proposer = decode.RnnProposer(params, base.token_embeddings)
        prompts = random_prompts(base, args.n_prompts, args.prompt_len, args.seed)
        greedy = greedy_streams(base, prompts, args.max_new_tokens)
        for width in widths:
            for length in lengths:
                cfg = decode.DecodeConfig(beam_width=width, beam_length=length,
                                          max_new_tokens=args.max_new_tokens)
                for p_idx, prompt in enumerate(prompts):
                    spec_tokens, _ = decode.speculative_generate(
                        base, proposer, prompt, cfg,
                        _omit_guaranteed=args.corrupt_skip_bonus)
                    pos = first_divergence(spec_tokens, greedy[p_idx])
                    total += 1
                    if pos is None:
                        passed += 1
                    elif first_failure is None:
                        first_failure = (base_name, width, length, p_idx, pos)
    print(f"equivalence: {passed}/{total} passed")
    if first_failure:
        base_name, width, length, p_idx, pos = first_failure
        print(f"first divergence: base={base_name} beam_width={width} "
              f"beam_length={length} prompt={p_idx} seed={args.seed} position={pos}")
        return 1
    return 0


def _build_training_dataset(args, base):
    corpus = distill.sample_markov_corpus(seed=args.seed + 7, n_sequences=args.corpus_size,
                                          seq_len=args.corpus_len,
                                          vocab_size=base.config.vocab_size)
    if args.ground_truth:
        return distill.ground_truth_dataset(base, corpus, args.horizon)
    return distill.build_distill_dataset(base, corpus, args.horizon)


def cmd_train_drafter(args):
    base = build_base(args)
    if args.dataset:
        dataset = distill.read_dataset(args.dataset, base)
    else:
        dataset = _build_training_dataset(args, base)
    cfg = distill.TrainConfig(horizon=args.horizon, learning_rate=args.learning_rate,
                              epochs=args.epochs, batch_size=args.batch_size,
                              seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    init = DrafterParams.random(rng, base.config.d_model, base.config.vocab_size)
    params, curve = distill.train_drafter(dataset, init, cfg, base.token_embeddings)
    weights.save_drafter(params, args.horizon, args.out)
    if args.loss_csv:
        with open(args.loss_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_loss"])
            writer.writerows((i, loss) for i, loss in enumerate(curve))
    print(f"trained drafter on {len(dataset)} examples; "
          f"final mean loss {curve[-1]:.4f}; saved to {args.out}.manifest/.bin")
    return 0


def cmd_distill_data(args):
    base = build_base(args)
    dataset = _build_training_dataset(args, base)
    distill.write_dataset(args.out, dataset)
    print(f"wrote {len(dataset)} examples to {args.out}")
    return 0


def cmd_init_base(args):
    base = TinyTransformer.random(TRANSFORMER_CONFIG, seed=args.seed)
    weights.save_base_model(base, args.out)
    print(f"wrote seeded base model to {args.out}.manifest/.bin")
    return 0


# ---------------------------------------------------------------------------

def _add_model_flags(p):
    p.add_argument("--base", choices=["transformer", "markov", "both"], default="transformer")
    p.add_argument("--base-weights", help="manifest/blob prefix for transformer weights")
    p.add_argument("--drafter-weights", help="manifest/blob prefix for drafter weights")
    p.add_argument("--markov-order", type=int, default=2)
    p.add_argument("--markov-vocab", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)


def make_parser():
    parser = argparse.ArgumentParser(prog="redrafter")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="speculative (or baseline) generation")
    _add_model_flags(p)
    p.add_argument("--prompt", help="whitespace-separated token ids")
    p.add_argument("--prompt-file")
    p.add_argument("--prompt-len", type=int, default=16)
    p.add_argument("--beam-width", type=int, default=4)
    p.add_argument("--beam-length", type=int, default=5)
    p.add_argument("--max-new-tokens", type=int, default=32)
    p.add_argument("--stop-token", type=int)
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--report", help="write a JSON RunReport here")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="sweep beam width x length, emit CSV")
    _add_model_flags(p)
    p.add_argument("--widths", default="1,2,4,8")
    p.add_argument("--lengths", default="2,4,5")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--n-prompts", type=int, default=4)
    p.add_argument("--prompt-len", type=int, default=16)
    p.add_argument("--max-new-tokens", type=int, default=32)
    p.add_argument("--csv", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify-equivalence",
                       help="check speculative output equals greedy baseline")
    _add_model_flags(p)
    p.add_argument("--n-prompts", type=int, default=100)
    p.add_argument("--prompt-len", type=int, default=16)
    p.add_argument("--widths", default="1,2,4,8")
    p.add_argument("--lengths", default="2,4,5")
    p.add_argument("--max-new-tokens", type=int, default=24)
    p.add_argument("--corrupt-skip-bonus", action="store_true",
                   help="self-test hook: corrupt the loop and expect a failure")
    p.set_defaults(func=cmd_verify_equivalence)

    p = sub.add_parser("train-drafter", help="train a draft head")
    _add_model_flags(p)
    p.add_argument("--dataset", help="read a distill-data file instead of building one")
    p.add_argument("--ground-truth", action="store_true",
                   help="train on corpus continuations instead of base-model rollouts")
    p.add_argument("--horizon", type=int, default=5)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--corpus-size", type=int, default=500)
    p.add_argument("--corpus-len", type=int, default=64)
    p.add_argument("--out", required=True, help="output weight file prefix")
    p.add_argument("--loss-csv")
    p.set_defaults(func=cmd_train_drafter)

    p = sub.add_parser("distill-data", help="build and save a distillation dataset")
    _add_model_flags(p)
    p.add_argument("--ground-truth", action="store_true")
    p.add_argument("--horizon", type=int, default=5)
    p.add_argument("--corpus-size", type=int, default=500)
    p.add_argument("--corpus-len", type=int, default=64)
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
        return args.func(args)
    except (RedrafterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
