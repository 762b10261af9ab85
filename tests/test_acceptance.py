"""Acceptance gate: one pass/fail line per criterion, tolerances as stated.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import time

import numpy as np
import pytest

from redrafter import cli, decode, distill, weights
from redrafter.beam import dedup_prefix, pack_beam
from redrafter.decode import DecodeConfig, RnnProposer
from redrafter.drafter import DrafterParams, batch_loss
from redrafter.model import ModelConfig, SyntheticMarkovModel, TinyTransformer

from oracles import MirrorProposer, empirical_kl
from test_beam import trie_dedup
from test_decode import SMALL as SMALL_TRANSFORMER_CONFIG

BENCH_TRANSFORMER = ModelConfig(vocab_size=256, d_model=64, n_layers=2, n_heads=4,
                                d_ff=256, max_seq_len=256)


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared trained-drafter fixture (criteria 6 and 7)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_setup():
    base = SyntheticMarkovModel(order=2, vocab_size=32, seed=11)
    emb = base.token_embeddings
    init = DrafterParams.random(np.random.default_rng(4), 32, 32)
    corpus = distill.sample_markov_corpus(seed=21, n_sequences=120, seq_len=48,
                                          vocab_size=32)
    cfg = distill.TrainConfig(horizon=5, learning_rate=3e-3, epochs=24,
                              batch_size=64, seed=3)
    distilled, _ = distill.train_drafter(
        distill.build_distill_dataset(base, corpus, 5), init, cfg, emb)
    ground_truth, _ = distill.train_drafter(
        distill.ground_truth_dataset(base, corpus, 5), init, cfg, emb)
    return base, init, distilled, ground_truth


def tokens_per_step(base, params, widths, beam_length=5, n_prompts=20):
    rng = np.random.default_rng(99)
    prompts = [rng.integers(0, base.config.vocab_size, size=6).tolist()
               for _ in range(n_prompts)]
    emb = base.token_embeddings
    out = []
    for width in widths:
        total_tokens = total_steps = 0
        cfg = DecodeConfig(beam_width=width, beam_length=beam_length,
                           max_new_tokens=40)
        for prompt in prompts:
            tokens, reports = decode.speculative_generate(
                base, RnnProposer(params, emb), prompt, cfg)
            assert tokens == decode.autoregressive_generate(base, prompt, cfg)
            total_tokens += len(tokens)
            total_steps += len(reports)
        out.append(total_tokens / total_steps)
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_exact_equivalence_suite():
    widths = [1, 2, 4, 8]
    lengths = [2, 4, 5]
    n_prompts = 100
    bases = {
        "transformer": TinyTransformer.random(BENCH_TRANSFORMER, seed=0),
        "markov": SyntheticMarkovModel(order=2, vocab_size=32, seed=11),
    }
    started = time.monotonic()
    total = passed = 0
    for name, base in bases.items():
        params = DrafterParams.random(np.random.default_rng(1),
                                      base.config.d_model, base.config.vocab_size)
        proposer = RnnProposer(params, base.token_embeddings)
        rng = np.random.default_rng(17)
        prompts = [rng.integers(0, base.config.vocab_size, size=8).tolist()
                   for _ in range(n_prompts)]
        ar = {}
        for p_idx, prompt in enumerate(prompts):
            cfg = DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=16)
            ar[p_idx] = decode.autoregressive_generate(base, prompt, cfg)
        for width in widths:
            for length in lengths:
                cfg = DecodeConfig(beam_width=width, beam_length=length,
                                   max_new_tokens=16)
                for p_idx, prompt in enumerate(prompts):
                    spec, _ = decode.speculative_generate(base, proposer, prompt, cfg)
                    total += 1
                    passed += spec == ar[p_idx]
    elapsed = time.monotonic() - started
    report(1, passed == total == 2400,
           f"{passed}/{total} speculative outputs token-identical to greedy "
           f"({elapsed:.1f}s)")


def test_criterion_2_prefix_dedup_example_and_oracle():
    example = np.array([[91, 92, 93, 95], [91, 92, 94, 96], [91, 92, 93, 97]])
    expect = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]])
    example_ok = np.array_equal(dedup_prefix(example), expect)

    rng = np.random.default_rng(2)
    mismatches = 0
    for _ in range(1000):
        width = int(rng.integers(1, 9))
        length = int(rng.integers(1, 7))
        tokens = rng.integers(0, int(rng.integers(2, 5)), size=(width, length))
        if not np.array_equal(dedup_prefix(tokens), trie_dedup(tokens)):
            mismatches += 1
    report(2, example_ok and mismatches == 0,
           f"worked example {'ok' if example_ok else 'wrong'}, "
           f"{mismatches}/1000 random beams disagree with the trie oracle")


def test_criterion_3_packed_beam_round_trip():
    rng = np.random.default_rng(3)
    failures = 0
    min_ratio = np.inf
    for _ in range(1000):
        width = int(rng.integers(1, 9))
        length = int(rng.integers(1, 7))
        tokens = rng.integers(0, 4, size=(width, length))
        packed, nodes = pack_beam(tokens, 0)
        ratio = width * (length + 1) / packed.n
        min_ratio = min(min_ratio, ratio)
        for i in range(width):
            if not np.array_equal(packed.tokens[nodes[i]], tokens[i]):
                failures += 1
    identical_ratio = 6 * (3 + 1) / pack_beam(np.tile(np.array([1, 2, 3]), (6, 1)), 0)[0].n
    report(3, failures == 0 and min_ratio >= 1.0 and identical_ratio == 6.0,
           f"{failures} path mismatches, min ratio {min_ratio:.3f}, "
           f"identical-candidate ratio {identical_ratio}")


def test_criterion_4_tree_mask_soundness():
    base = TinyTransformer.random(SMALL_TRANSFORMER_CONFIG, seed=4)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        prompt = rng.integers(0, base.config.vocab_size, size=5).tolist()
        width = int(rng.integers(1, 6))
        length = int(rng.integers(1, 5))
        tokens = rng.integers(0, 3, size=(width, length))
        root = int(rng.integers(base.config.vocab_size))
        packed, nodes = pack_beam(tokens, root)
        cache = base.new_cache()
        base.forward_context(prompt, cache)
        out, _ = base.forward_packed(packed, cache)
        for i in range(width):
            replay = base.forward_context(prompt + [root] + tokens[i].tolist(),
                                          base.new_cache())
            path = np.concatenate([[0], nodes[i]])
            diff = np.max(np.abs(out.logits[path] - replay.logits[len(prompt):]))
            worst = max(worst, float(diff))

    # the trees decoding verifies: beam-search backpointer trees, every node
    # against a causal replay of its root path
    params = DrafterParams.random(np.random.default_rng(6), base.config.d_model,
                                  base.config.vocab_size)
    tree_worst = 0.0
    for _ in range(40):
        prompt = rng.integers(0, base.config.vocab_size, size=5).tolist()
        width = int(rng.integers(1, 9))
        length = int(rng.integers(1, 6))
        cache = base.new_cache()
        ctx = base.forward_context(prompt, cache)
        root = int(rng.integers(base.config.vocab_size))
        tree = RnnProposer(params, base.token_embeddings).propose(ctx.hidden[-1], root,
                                                                  width, length)
        out, _ = base.forward_packed(tree, cache)
        for i in range(tree.n):
            path = np.flatnonzero(tree.mask[i])
            replay = base.forward_context(prompt + tree.tokens[path].tolist(), base.new_cache())
            tree_worst = max(tree_worst, float(np.max(np.abs(out.logits[i] - replay.logits[-1]))))

    cached_worst = 0.0
    for _ in range(20):
        seq = rng.integers(0, base.config.vocab_size, size=12).tolist()
        block = base.forward_context(seq, base.new_cache())
        cache = base.new_cache()
        rows = [base.forward_context([t], cache).logits[0] for t in seq]
        cached_worst = max(cached_worst,
                           float(np.max(np.abs(block.logits - np.stack(rows)))))
    report(4, worst <= 1e-5 and tree_worst <= 1e-5 and cached_worst <= 1e-5,
           f"packed-vs-replay max abs {worst:.2e}, beam-tree-vs-replay max abs "
           f"{tree_worst:.2e}, cached-vs-uncached max abs {cached_worst:.2e} (tolerance 1e-5)")


def test_criterion_5_gradient_correctness(float64_drafter):
    rng = np.random.default_rng(6)
    eps = 1e-3
    worst = 0.0
    for _ in range(10):
        params = float64_drafter(rng, 4, 6)
        emb = rng.normal(size=(6, 4))
        h = rng.normal(size=4)
        teacher = rng.integers(0, 6, size=5)
        s0 = emb[[int(rng.integers(6))]]
        args = (emb, h[None, :], s0, teacher[None, :])
        _, grads = batch_loss(params, *args)
        grad_by_name = dict(grads.flat_arrays())
        for name, arr in params.flat_arrays():
            g = grad_by_name[name]
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + eps
                lp, _ = batch_loss(params, *args)
                arr[idx] = orig - eps
                lm, _ = batch_loss(params, *args)
                arr[idx] = orig
                fd = (lp - lm) / (2 * eps)
                # denominator floors at 1e-4: below that scale the central
                # difference's own eps^2 truncation noise (~1e-8 absolute)
                # dominates, so the comparison becomes absolute there
                rel = abs(fd - g[idx]) / max(1e-4, abs(fd), abs(g[idx]))
                worst = max(worst, rel)
    report(5, worst < 1e-4,
           f"worst finite-difference relative error {worst:.2e} over 10 "
           f"instances, horizon 5 (tolerance 1e-4)")


def test_criterion_6_distillation_efficacy(trained_setup):
    base, init, distilled, ground_truth = trained_setup
    untrained = tokens_per_step(base, init, [4])[0]
    dist = tokens_per_step(base, distilled, [1, 4])
    gt = tokens_per_step(base, ground_truth, [1, 4])
    ok = (dist[1] >= 2.0 and untrained <= 1.3
          and dist[0] >= gt[0] and dist[1] >= gt[1])
    report(6, ok,
           f"tokens/step at width 4: trained {dist[1]:.2f} (>= 2.0), "
           f"untrained {untrained:.2f} (<= 1.3); distilled vs ground-truth "
           f"at widths 1,4: {dist[0]:.2f}/{gt[0]:.2f}, {dist[1]:.2f}/{gt[1]:.2f}")


def test_criterion_7_tokens_per_step_monotone_in_width(trained_setup):
    base, _, distilled, _ = trained_setup
    tps = tokens_per_step(base, distilled, [1, 2, 4, 8])
    diffs = np.diff(tps)
    report(7, bool(np.all(diffs >= 0)),
           "mean tokens/step over widths 1,2,4,8: "
           + ", ".join(f"{t:.3f}" for t in tps))


def test_criterion_8_mirror_drafter_reaches_upper_bound():
    base = SyntheticMarkovModel(order=2, vocab_size=32, seed=11)
    length = 5
    cfg = DecodeConfig(beam_width=1, beam_length=length,
                       max_new_tokens=3 * (length + 1))
    greedy = decode.autoregressive_generate(base, [1, 2, 3], cfg)
    tokens, reports = decode.speculative_generate(base, MirrorProposer(greedy),
                                                  [1, 2, 3], cfg)
    tps = len(tokens) / len(reports)
    exact = tokens == greedy
    report(8, tps == length + 1 and exact,
           f"mirror drafter tokens/step {tps} == beam_length + 1 = {length + 1}, "
           f"output equals greedy: {exact}")


def test_criterion_9_round_trip_and_report_determinism(tmp_path):
    base = TinyTransformer.random(SMALL_TRANSFORMER_CONFIG, seed=7)
    weights.save_base_model(base, str(tmp_path / "base"))
    loaded = weights.load_base_model(str(tmp_path / "base"))
    weights_ok = all(np.array_equal(loaded.weights[k], v)
                     for k, v in base.weights.items())

    params = DrafterParams.random(np.random.default_rng(8), 16, 16)
    weights.save_drafter(params, 5, str(tmp_path / "drafter"))
    reloaded, _ = weights.load_drafter(str(tmp_path / "drafter"))
    weights.save_drafter(reloaded, 5, str(tmp_path / "drafter2"))
    drafter_ok = ((tmp_path / "drafter.bin").read_bytes()
                  == (tmp_path / "drafter2.bin").read_bytes())

    argv = ["verify-equivalence", "--base", "markov", "--seed", "5",
            "--widths", "1,4", "--lengths", "2,5", "--n-prompts", "2",
            "--prompt-len", "4", "--max-new-tokens", "12"]
    assert cli.main(argv + ["--csv", str(tmp_path / "a.csv")]) == 0
    assert cli.main(argv + ["--csv", str(tmp_path / "b.csv")]) == 0
    import csv as csv_mod
    timing = {"wall_ms_spec", "wall_ms_ar", "speedup"}
    with open(tmp_path / "a.csv", newline="") as fa, \
            open(tmp_path / "b.csv", newline="") as fb:
        rows_a = list(csv_mod.DictReader(fa))
        rows_b = list(csv_mod.DictReader(fb))
    stable = [c for c in cli.CSV_COLUMNS if c not in timing]
    reports_ok = ([{c: r[c] for c in stable} for r in rows_a]
                  == [{c: r[c] for c in stable} for r in rows_b])
    report(9, weights_ok and drafter_ok and reports_ok,
           f"weight round trip bitwise: base {weights_ok}, drafter {drafter_ok}; "
           f"same-seed non-timing report columns identical: {reports_ok}")


def test_kl_divergence_collapses_after_distillation(trained_setup):
    """Exact next-token divergence from the base model drops by >= 10x."""
    base, init, distilled, _ = trained_setup
    rng = np.random.default_rng(31)
    # each probe ends with its guaranteed token, as the decode loop drafts from
    probes = []
    for _ in range(30):
        prefix = rng.integers(0, 32, size=8).tolist()
        probes.append(prefix + decode.autoregressive_generate(
            base, prefix, DecodeConfig(beam_width=1, beam_length=1, max_new_tokens=1)))
    before = float(empirical_kl(base, init, probes, 1)[0])
    after = float(empirical_kl(base, distilled, probes, 1)[0])
    assert before / max(after, 1e-12) >= 10.0, (before, after)


def test_headline_drafter_keeps_its_acceptance_floor():
    """The configuration that decodes faster than greedy keeps its
    acceptance: a drafter distilled on the base's own greedy text (75
    prompts of 8-16 tokens, each continued by 30 greedy tokens) over the
    CLI's default transformer, decoding 40 fixed requests at width 2 and
    length 4.  Tokens per step and base rows forwarded per emitted token are
    counts, so no timing noise enters.  Both kernel lanes measured T 2.916
    and 2.305 rows per token; each bound sits ~6% beyond, a margin for
    another BLAS build's drafter bits.  A drafter distilled on a Markov
    sample of that base (60 x 32 tokens) measured 2.540 and 2.609, outside
    both bounds."""
    base = TinyTransformer.random(cli.TRANSFORMER_CONFIG, seed=1)
    vocab = base.config.vocab_size
    rng = np.random.default_rng(0)
    prompts = [rng.integers(0, vocab, int(rng.integers(8, 17))).tolist() for _ in range(75)]
    dataset = distill.build_distill_dataset(base, distill.greedy_corpus(base, prompts, 30), 4)
    cfg = distill.TrainConfig(horizon=4, learning_rate=3e-3, epochs=20, batch_size=64, seed=3)
    params, _ = distill.train_drafter(
        dataset, DrafterParams.random(np.random.default_rng(2), base.config.d_model, vocab),
        cfg, base.token_embeddings)

    proposer = RnnProposer(params, base.token_embeddings)
    decode_cfg = DecodeConfig(beam_width=2, beam_length=4, max_new_tokens=32)
    rng = np.random.default_rng(5)
    tokens = steps = rows = 0
    for _ in range(40):
        prompt = rng.integers(0, vocab, int(rng.integers(8, 17))).tolist()
        out, reports = decode.speculative_generate(base, proposer, prompt, decode_cfg)
        assert out == decode.autoregressive_generate(base, prompt, decode_cfg)
        tokens += len(out)
        steps += len(reports)
        # a step with no base forward verified nothing
        rows += sum(r.packed_size for r in reports if r.llm_calls)
    per_step, rows_per_token = tokens / steps, rows / tokens
    report("floor", per_step >= 2.75 and rows_per_token <= 2.45,
           f"headline drafter tokens/step {per_step:.3f} (>= 2.75), base rows per "
           f"emitted token {rows_per_token:.3f} (<= 2.45)")
