"""Tracing must not change the program, and the exact counts must repeat.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import loop  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from redrafter.model import TinyTransformer  # noqa: E402

EXACT = ("decode.base_forwards_per_token", "decode.tokens_per_step", "beam.packed_nodes")
N_REQUESTS = 6
SEED = 3


def small(name):
    """The named workload with a drafter distilled from a tiny corpus."""
    wl = workloads.WORKLOADS[name]
    recipe = dataclasses.replace(wl.recipe, n_sequences=4, seq_len=12, epochs=2)
    return dataclasses.replace(wl, recipe=recipe)


def traced_pass(setup, untraced):
    ref = loop.Reference()
    with tracing.Tracer().patched(tracing.decode_targets(type(setup.base))) as tracer:
        traced = loop.replay(setup.base, setup.params, untraced, ref, tracer)
    metrics, _ = report.per_layer(tracer.spans, [traced], [untraced], [], setup.examples,
                                  report.weight_classes(setup.base), ref.slowdown())
    return traced, {name: metrics[name][0] for name in EXACT}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_and_counts_repeat(name, tmp_path):
    wl = small(name)
    with tracing.Tracer().patched(tracing.SETUP_TARGETS) as setup_tracer:
        setup = workloads.set_up(wl, tmp_path)
    assert setup.roundtrip_exact
    assert {s[tracing.NAME] for s in setup_tracer.spans} >= {
        "distill.build_distill_dataset", "distill.train_drafter", "weights.save_drafter",
        "weights.load_drafter"}
    stream = workloads.requests(wl, SEED, setup.base.config.vocab_size)
    untraced = loop.first_pass(setup.base, setup.params, stream, loop.Reference(), 0.0,
                               N_REQUESTS, float("inf"))
    assert len(untraced) == N_REQUESTS
    first, counts = traced_pass(setup, untraced)
    second, counts_again = traced_pass(setup, untraced)

    assert loop.same_streams(untraced, first)  # tokens, StepReports and errors
    assert loop.same_streams(first, second)
    assert counts == counts_again
    untraced_counts, _, _ = report.step_counts(untraced)
    assert counts["decode.tokens_per_step"] == untraced_counts["decode.tokens_per_step"]
    assert counts["beam.packed_nodes"] == untraced_counts["beam.packed_nodes"]


class Inherits(TinyTransformer):
    """Takes every model method from its parent."""


def test_patched_restores_every_attribute():
    targets = tracing.SETUP_TARGETS + tracing.decode_targets(TinyTransformer) \
        + tracing.decode_targets(Inherits)
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in targets]
    with pytest.raises(RuntimeError):
        with tracing.Tracer().patched(targets):
            assert all(getattr(owner, attr) is not orig for owner, attr, orig in before
                       if orig is not None)
            raise RuntimeError("leave the block early")
    for owner, attr, orig in before:
        assert vars(owner).get(attr) is orig, f"{owner.__name__}.{attr} not restored"


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tt-short",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
