"""Span tracing from outside the library.

The benchmark wraps public functions of each layer for the length of a
``with`` block.  A span records name, start, end, parent span and request id,
plus a small shape record for the calls whose cost depends on shape.  Spans
stay in memory and are written out once, at the end of the run.  On exit
every wrapped attribute is set back to the object it held before.
"""

import contextlib
import functools
import json
from time import perf_counter

from redrafter import beam, decode, distill, drafter, kernels, weights

NAME, START, END, PARENT, REQUEST, INFO = range(6)
ROOT = -1


# (owner, attribute, span name, info(args) or None)
SETUP_TARGETS = [
    (distill, "sample_markov_corpus", "distill.sample_markov_corpus", None),
    (distill, "build_distill_dataset", "distill.build_distill_dataset", None),
    (distill, "train_drafter", "distill.train_drafter", None),
    (weights, "save_base_model", "weights.save_base_model", None),
    (weights, "load_base_model", "weights.load_base_model", None),
    (weights, "save_drafter", "weights.save_drafter", None),
    (weights, "load_drafter", "weights.load_drafter", None),
]


def decode_targets(base_cls):
    """Layer boundaries crossed while decoding with a base model of ``base_cls``."""
    return [
        (decode, "speculative_generate", "decode.speculative_generate", None),
        (decode, "autoregressive_generate", "decode.autoregressive_generate", None),
        (decode, "verify_greedy", "decode.verify_greedy", None),
        (beam, "beam_search", "beam.beam_search", None),
        (beam, "dedup_prefix", "beam.dedup_prefix", None),
        (beam, "pack_beam", "beam.pack_beam", None),
        (drafter, "head_logp_batch", "drafter.head_logp_batch", None),
        (drafter, "step_batch", "drafter.step_batch", None),
        (base_cls, "forward_context", "model.forward_context", lambda a: len(a[1])),
        (base_cls, "forward_packed", "model.forward_packed", lambda a: a[1].n),
        (base_cls, "commit_accepted", "model.commit_accepted", lambda a: len(a[4])),
        # (a, b) operands: m, k, n plus the weight's identity for classification
        (kernels, "matmul", "kernels.matmul",
         lambda a: (a[0].shape[0], a[0].shape[1], a[1].shape[1], id(a[1]))),
        # (q, keys, vals, bias, n_heads, scale): query rows, keys, width
        (kernels, "attend", "kernels.attend",
         lambda a: (a[0].shape[0], a[1].shape[0], a[0].shape[1])),
    ]


class Tracer:
    """Collects spans in memory; ``patched`` installs wrappers for a block.

    Spans are kept column-wise in flat lists of numbers and strings, so the
    trace adds no container objects for the garbage collector to scan.
    """

    def __init__(self):
        self.request = None
        self._cols = ([], [], [], [], [], [])   # NAME .. INFO
        self._stack = []

    @property
    def spans(self):
        """One (name, start, end, parent, request, info) tuple per span."""
        return list(zip(*self._cols))

    def _wrap(self, name, fn, info):
        names, starts, ends, parents, requests, infos = self._cols
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else ROOT)
            requests.append(self.request)
            infos.append(info(args) if info else None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute) for the block, then put back exactly
        what was there: the original object, or nothing for an inherited one."""
        saved = []
        try:
            for owner, attr, name, info in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, self._wrap(name, original, info))
            yield self
        finally:
            for owner, attr, original, own in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)


def write_spans(path, t0, spans):
    """Write spans as JSON, times in microseconds from ``t0``."""
    rows = [[s[NAME], round((s[START] - t0) * 1e6, 1), round((s[END] - t0) * 1e6, 1),
             s[PARENT], s[REQUEST], s[INFO][:3] if s[NAME] == "kernels.matmul" else s[INFO]]
            for s in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_us", "end_us", "parent", "request", "info"],
                   "spans": rows}, fh, separators=(",", ":"))
