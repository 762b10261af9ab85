"""Turn request outcomes and spans into the benchmark's metrics.

End-to-end metrics come from untraced passes only.  Per-layer metrics come
from traced passes over the same requests.  Times ending in ``_per_step`` are
self times (a span's duration minus its wrapped callees) of completed
speculative requests, so the layers add up to the speculative decode time
without double counting.  ``model.*`` and ``kernels.*`` call times cover every
base-model call, speculative and greedy.
"""

import resource
import statistics
from collections import Counter, defaultdict

import numpy as np

from loop import averaged
from tracing import END, INFO, NAME, PARENT, REQUEST, ROOT, START

F32_BYTES = 4
SPEC = "decode.speculative_generate"
FORWARDS = ("model.forward_context", "model.forward_packed")
MAX_DEPTH = 5
TIME_UNITS = ("s", "ms", "us")

# Unit of every per-layer metric, in the order they are reported.
LAYER_UNITS = {
    "decode.speedup": "x",
    "decode.tokens_per_step": "tok/step",
    **{f"decode.accept_ge_d{d}": "frac" for d in range(1, MAX_DEPTH + 1)},
    "decode.base_forwards_per_token": "fwd/tok",
    "decode.useful_frac": "frac",
    "decode.self_ms_per_step": "ms",
    "decode.verify_ms_per_step": "ms",
    "beam.search_ms_per_step": "ms",
    "beam.dedup_ms_per_step": "ms",
    "beam.dedup_calls_per_step": "calls/step",
    "beam.pack_ms_per_step": "ms",
    "beam.packed_nodes": "nodes/step",
    "beam.compression": "x",
    "drafter.head_ms_per_step": "ms",
    "drafter.step_ms_per_step": "ms",
    "drafter.head_calls_per_step": "calls/step",
    "model.prefill_ms": "ms",
    "model.prefill_rows": "rows",
    "model.ctx_fwd_ms": "ms",
    "model.packed_fwd_ms": "ms",
    "model.packed_rows": "rows",
    "model.commit_ms": "ms",
    "model.qkv_ms": "ms",
    "model.wo_ms": "ms",
    "model.mlp_ms": "ms",
    "model.logits_ms": "ms",
    "model.attend_ms": "ms",
    "kernels.matmul_calls_per_fwd": "calls/fwd",
    "kernels.matmul_us": "us",
    "kernels.attend_us": "us",
    "kernels.flops_per_token": "flop/tok",
    "kernels.bytes_per_token": "B/tok",
    "distill.dataset_s": "s",
    "distill.train_s": "s",
    "distill.examples": "count",
    "weights.save_ms": "ms",
    "weights.load_ms": "ms",
    "trace.overhead_frac": "frac",
}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(outcomes, setup_seconds, slowdown):
    """End-to-end metrics as name -> (value, unit); times divided by ``slowdown``."""
    ok = [o for o in outcomes if o.ok]
    latencies = [o.spec_s * 1e3 / slowdown for o in ok]
    done_ar = [o for o in outcomes if o.ar_tokens is not None]
    spec_s = sum(o.spec_s for o in outcomes) / slowdown
    ar_s = sum(o.ar_s for o in outcomes) / slowdown
    return {
        "spec_tok_s": (sum(len(o.spec_tokens) for o in ok) / spec_s, "tok/s"),
        "ar_tok_s": (sum(len(o.ar_tokens) for o in done_ar) / ar_s, "tok/s"),
        "spec_ms_p50": (float(np.percentile(latencies, 50)), "ms"),
        "spec_ms_p90": (float(np.percentile(latencies, 90)), "ms"),
        "ok_frac": (len(ok) / len(outcomes), "frac"),
        "setup_s": (statistics.median(setup_seconds) / slowdown, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def step_counts(outcomes):
    """Exact counts from the StepReports of the completed speculative requests."""
    reports = [r for o in outcomes if o.ok for r in o.reports]
    steps = len(reports)
    tokens = sum(len(o.spec_tokens) for o in outcomes if o.ok)
    accepted = [r.accepted_draft_tokens for r in reports]
    packed = sum(r.packed_size for r in reports)
    out = {
        "decode.tokens_per_step": tokens / steps,
        "decode.useful_frac": sum(accepted) / packed,
        "beam.packed_nodes": packed / steps,
        "beam.compression": float(np.mean([r.compression_ratio for r in reports])),
    }
    for d in range(1, MAX_DEPTH + 1):
        out[f"decode.accept_ge_d{d}"] = sum(a >= d for a in accepted) / steps
    return out, steps, tokens


def _span_tables(spans):
    """Per span: its root span's index and its self time."""
    roots = [0] * len(spans)
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        roots[i] = i if p == ROOT else roots[p]  # parents precede children
        if p != ROOT:
            child[p] += s[END] - s[START]
    self_s = [s[END] - s[START] - c for s, c in zip(spans, child)]
    return roots, self_s


def _kernel_cost(s):
    """Flops and bytes moved, computed from operand shapes (not measured)."""
    if s[NAME] == "kernels.matmul":
        m, k, n, _ = s[INFO]
        return 2 * m * k * n, F32_BYTES * (m * k + k * n + m * n)
    n, m, d = s[INFO]  # query rows, keys, width; q.k^T and p.v over all heads
    return 4 * n * m * d, F32_BYTES * (2 * n * d + 2 * m * d + n * m)


# a weight's name after its first "_" (l0_wq -> wq, w_out -> out) -> its group
WEIGHT_GROUPS = {"wq": "qkv", "wk": "qkv", "wv": "qkv", "wo": "wo", "w1": "mlp", "w2": "mlp",
                 "out": "logits"}


def weight_classes(base):
    """id of each weight array -> its group; a matmul is classified by the
    identity of its weight operand."""
    return {id(arr): WEIGHT_GROUPS[name.partition("_")[2]]
            for name, arr in getattr(base, "weights", {}).items()
            if name.partition("_")[2] in WEIGHT_GROUPS}


def per_layer(spans, traced_passes, untraced_passes, setup_spans, examples, classes,
              slowdown):
    """Per-layer metrics as name -> (value, unit), plus the share of speculative
    decode time each span name spends in itself.

    ``spans`` cover every traced pass; counts and times are per step, per call
    or per token over all of them.  Speedup and tracing overhead compare the
    times of each request averaged over its passes.  Times are divided by
    ``slowdown``, as in ``end_to_end``.
    """
    traced = [o for p in traced_passes for o in p]
    out, steps, tokens = step_counts(traced)
    ok_rids = {o.request.rid for o in traced if o.ok}
    roots, self_s = _span_tables(spans)

    total = defaultdict(float)      # spec scope: self time per span name
    calls = Counter()
    flops = moved = 0
    model_ms = defaultdict(list)    # every decode request: call durations in ms
    model_rows = defaultdict(list)
    kernel_s = defaultdict(float)
    matmul_calls = attend_calls = forwards = 0
    seen_prefill = set()
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        root = spans[roots[i]]
        if root[NAME] == SPEC and root[REQUEST] in ok_rids:
            total[name] += self_s[i]
            calls[name] += 1
            if name.startswith("kernels."):
                f, b = _kernel_cost(s)
                flops += f
                moved += b
        if name == "model.forward_context":
            kind = "ctx" if roots[i] in seen_prefill else "prefill"
            seen_prefill.add(roots[i])
            model_ms[kind].append(dur * 1e3)
            model_rows[kind].append(s[INFO])
        elif name == "model.forward_packed":
            model_ms["packed"].append(dur * 1e3)
            model_rows["packed"].append(s[INFO])
        elif name == "model.commit_accepted":
            model_ms["commit"].append(dur * 1e3)
        elif name == "kernels.matmul":
            kernel_s[classes.get(s[INFO][3], "other")] += dur
            kernel_s["matmul"] += dur
            matmul_calls += 1
        elif name == "kernels.attend":
            kernel_s["attend"] += dur
            attend_calls += 1
        forwards += name in FORWARDS

    def per_step(name):
        return total[name] * 1e3 / steps

    def mean(xs):
        return float(np.mean(xs)) if xs else 0.0

    untraced = averaged(untraced_passes)
    ratios = [o.ar_s / o.spec_s for o in untraced if o.ok]
    traced_s = sum(o.spec_s + o.ar_s for o in averaged(traced_passes))
    untraced_s = sum(o.spec_s + o.ar_s for o in untraced)
    out.update({
        "decode.speedup": statistics.median(ratios),
        "decode.base_forwards_per_token": sum(calls[n] for n in FORWARDS) / tokens,
        "decode.self_ms_per_step": per_step(SPEC),
        "decode.verify_ms_per_step": per_step("decode.verify_greedy"),
        "beam.search_ms_per_step": per_step("beam.beam_search"),
        "beam.dedup_ms_per_step": per_step("beam.dedup_prefix"),
        "beam.dedup_calls_per_step": calls["beam.dedup_prefix"] / steps,
        "beam.pack_ms_per_step": per_step("beam.pack_beam"),
        "drafter.head_ms_per_step": per_step("drafter.head_logp_batch"),
        "drafter.step_ms_per_step": per_step("drafter.step_batch"),
        "drafter.head_calls_per_step": calls["drafter.head_logp_batch"] / steps,
        "model.prefill_ms": mean(model_ms["prefill"]),
        "model.prefill_rows": mean(model_rows["prefill"]),
        "model.ctx_fwd_ms": mean(model_ms["ctx"]),
        "model.packed_fwd_ms": mean(model_ms["packed"]),
        "model.packed_rows": mean(model_rows["packed"]),
        "model.commit_ms": mean(model_ms["commit"]),
        "kernels.matmul_calls_per_fwd": matmul_calls / forwards,
        "kernels.matmul_us": kernel_s["matmul"] * 1e6 / max(1, matmul_calls),
        "kernels.attend_us": kernel_s["attend"] * 1e6 / max(1, attend_calls),
        "kernels.flops_per_token": flops / tokens,
        "kernels.bytes_per_token": moved / tokens,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    for group in ("qkv", "wo", "mlp", "logits", "attend"):
        out[f"model.{group}_ms"] = kernel_s[group] * 1e3 / forwards

    setup = defaultdict(float)
    for s in setup_spans:
        setup[s[NAME]] += s[END] - s[START]
    out.update({
        "distill.dataset_s": setup["distill.build_distill_dataset"],
        "distill.train_s": setup["distill.train_drafter"],
        "distill.examples": examples,
        "weights.save_ms": (setup["weights.save_base_model"] + setup["weights.save_drafter"]) * 1e3,
        "weights.load_ms": (setup["weights.load_base_model"] + setup["weights.load_drafter"]) * 1e3,
    })
    spec_total = sum(total.values())
    shares = {name: round(t / spec_total, 4) for name, t in
              sorted(total.items(), key=lambda kv: -kv[1])}
    return {name: (out[name] / slowdown if unit in TIME_UNITS else out[name], unit)
            for name, unit in LAYER_UNITS.items()}, shares
