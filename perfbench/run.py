"""Decode benchmark: speculative against greedy decoding, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload tt-short --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up, runs a closed loop of at least 200
requests for at least ``--seconds``, and prints the end-to-end metrics.
``--trace 1`` alternates untraced passes with passes that wrap every layer
boundary, and prints the per-layer metrics and the tracing overhead.  Decode times are scaled to a reference machine speed (see
``loop.py``); the raw figures are in the environment line.

The last line of standard output is the result JSON; the line before it
stamps the environment.  Results and spans are also written under
``perfbench/out/``.  The exit code is 1 when a speculative stream differs
from the greedy one or a check fails, 2 when the library cannot be found.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

MIN_REQUESTS = 200         # p90 then has 20 samples beyond it; more prompts, less seed noise
MIN_TRACED_REQUESTS = 20
MAX_PASS_S = 70.0          # keeps a run well inside its time limit


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_rev():
    if not (ROOT / ".git").exists():  # do not let git search the parent directories
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "redrafter").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, kernels, numpy):
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "backend": kernels.BACKEND, "numba": kernels.HAVE_NUMBA,
            "nproc": os.cpu_count(), "numpy": numpy.__version__,
            "python": platform.python_version(), "git_rev": git_rev(),
            "src_sha256": src_digest()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "redrafter" / "__init__.py").is_file():
        print(f"error: the redrafter sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy
    from redrafter import kernels
    import loop
    import report
    import workloads
    from tracing import SETUP_TARGETS, Tracer, decode_targets, write_spans

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = environment(args, kernels, numpy)

    if args.trace == 0:
        setups = [workloads.set_up(wl, OUT) for _ in range(wl.setup_repeats)]
        base, params = setups[-1].base, setups[-1].params
        stream = workloads.requests(wl, args.seed, base.config.vocab_size)
        ref = loop.Reference()
        outcomes = loop.first_pass(base, params, stream, ref, args.seconds, MIN_REQUESTS,
                                   MAX_PASS_S)
        setup_seconds = [s.seconds for s in setups]
        metrics = report.end_to_end(outcomes, setup_seconds, ref.slowdown())
        raw = report.end_to_end(outcomes, setup_seconds, 1.0)
        # every set-up must produce the same drafter, bit for bit
        drafters = [[a.tobytes() for _, a in s.params.flat_arrays()] for s in setups]
        checks = {"roundtrip_exact": all(s.roundtrip_exact for s in setups),
                  "setups_identical": all(d == drafters[0] for d in drafters)}
        extra = {"setup_s_each": setup_seconds,
                 "tokens_per_step": report.step_counts(outcomes)[0]["decode.tokens_per_step"],
                 "raw": {name: value for name, (value, _) in raw.items()}}
    else:
        t0 = perf_counter()
        with Tracer().patched(SETUP_TARGETS) as setup_tracer:
            setup = workloads.set_up(wl, OUT)
        base, params = setup.base, setup.params
        stream = workloads.requests(wl, args.seed, base.config.vocab_size)
        tracer = Tracer()
        ref = loop.Reference()

        def traced_pass():
            with tracer.patched(decode_targets(type(base))):
                return loop.replay(base, params, first, ref, tracer)

        # untraced and traced passes alternate over the same requests
        first = loop.first_pass(base, params, stream, ref, args.seconds / 4,
                                MIN_TRACED_REQUESTS, MAX_PASS_S / 2)
        traced = [traced_pass()]
        untraced = [first, loop.replay(base, params, first, ref)]
        traced.append(traced_pass())
        spans, setup_spans = tracer.spans, setup_tracer.spans
        metrics, shares = report.per_layer(spans, traced, untraced, setup_spans,
                                           setup.examples, report.weight_classes(base),
                                           ref.slowdown())
        outcomes = untraced[0]
        checks = {"roundtrip_exact": setup.roundtrip_exact,
                  "traced_equals_untraced": all(loop.same_streams(outcomes, p)
                                                for p in untraced + traced)}
        extra = {"decode_self_time_shares": shares, "spans": len(spans)}
        write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.json", t0,
                    setup_spans + spans)

    mismatches = sum(o.mismatch for o in outcomes)
    errors = dict(sorted(Counter(o.error for o in outcomes if o.error).items()))
    failed = sum(not o.ok for o in outcomes)
    correct = mismatches == 0 and all(checks.values())
    stamp.update({"slowdown": ref.slowdown(), "reference_samples": len(ref.times),
                  "requests": len(outcomes), "latency_samples": len(outcomes) - failed,
                  "mismatches": mismatches, "errors_by_type": errors, "checks": checks,
                  **extra})
    result = {"correct": correct, "attempted": len(outcomes), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": stamp, "result": result}, fh, indent=1)
    print(json.dumps({"env": stamp}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
