"""The load: one caller in one process, sending each request when the previous
one returns (a closed loop), decoding every prompt speculatively and greedily.

On a 2-vCPU VM on a shared host (Xeon, 2.1 GHz) the time of a fixed numpy
loop swung by up to 2.5x within seconds and by about 1.5x between quarter
hours, as neighbours loaded the host, and the decode slowed with it.  So the loop
also times a fixed reference computation at regular intervals
(``Reference``), and the benchmark divides the decode times by how much
slower the reference ran than its nominal time: a neighbour slows both, a
slower program slows only the decode.
"""

import dataclasses
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from redrafter import decode
from redrafter.errors import RedrafterError


@dataclass
class Outcome:
    request: object
    spec_s: float
    ar_s: float
    spec_tokens: Optional[list]
    reports: Optional[list]
    ar_tokens: Optional[list]
    error: Optional[str]       # type of the exception a decode raised

    @property
    def ok(self):
        """Both decodes returned and the speculative stream equals greedy."""
        return self.error is None and self.spec_tokens == self.ar_tokens

    @property
    def mismatch(self):
        return self.error is None and self.spec_tokens != self.ar_tokens


class Reference:
    """A fixed piece of numpy work that shares no code with the library.

    Each round does float32 work in the style of the numpy kernel lane
    (sequential-k products, a softmax) and float64 work in the style of the
    drafter's beam search (small matrix products, a stable sort).  ``tick``
    times it whenever ``INTERVAL_S`` has passed since the last sample, so the
    samples spread evenly over the measured time.  ``slowdown`` is their mean
    over ``NOMINAL_S``, the reference's time on that VM while its host was
    quiet.
    """

    NOMINAL_S = 0.0059
    INTERVAL_S = 0.1
    ROUNDS = 40

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(16, 32)).astype(np.float32)
        self.b = rng.normal(size=(32, 32)).astype(np.float32)
        self.c = rng.normal(size=(8, 64))
        self.d = rng.normal(size=(64, 64))
        self.times = []
        self._last = float("-inf")  # the first tick always samples

    def tick(self):
        if perf_counter() - self._last < self.INTERVAL_S:
            return
        a, b, c, d = self.a, self.b, self.c, self.d
        t0 = perf_counter()
        for _ in range(self.ROUNDS):
            out = np.zeros((16, 32), np.float32)
            for k in range(32):
                out += a[:, k, None] * b[None, k, :]
            e = np.exp(out - out.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
            for _ in range(4):
                np.argsort(-np.tanh(c @ d).ravel(), kind="stable")
        self._last = perf_counter()
        self.times.append(self._last - t0)

    def slowdown(self):
        return float(np.mean(self.times)) / self.NOMINAL_S


def run_request(base, proposer, req, tracer=None):
    """Speculative then greedy decoding of one prompt, back to back, so both
    see the same machine state."""
    if tracer is not None:
        tracer.request = req.rid
    spec = reports = ar = error = None
    t0 = perf_counter()
    try:
        spec, reports = decode.speculative_generate(base, proposer, req.prompt, req.cfg)
    except RedrafterError as exc:
        error = type(exc).__name__
    t1 = perf_counter()
    try:
        ar = decode.autoregressive_generate(base, req.prompt, req.cfg)
    except RedrafterError as exc:
        error = error or type(exc).__name__
    t2 = perf_counter()
    return Outcome(req, t1 - t0, t2 - t1, spec, reports, ar, error)


def first_pass(base, params, stream, ref, seconds, min_requests, max_seconds):
    """Draw requests from ``stream`` until ``seconds`` have passed and
    ``min_requests`` are done, or until ``max_seconds`` regardless."""
    proposer = decode.RnnProposer(params, base.token_embeddings)
    outcomes = []
    start = perf_counter()
    for req in stream:
        outcomes.append(run_request(base, proposer, req))
        ref.tick()
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(outcomes) >= min_requests) or elapsed >= max_seconds:
            break
    return outcomes


def replay(base, params, outcomes, ref, tracer=None):
    """Another pass over the requests of an earlier pass, in the same order."""
    proposer = decode.RnnProposer(params, base.token_embeddings)
    out = []
    for o in outcomes:
        out.append(run_request(base, proposer, o.request, tracer))
        ref.tick()
    return out


def same_streams(a, b):
    """Token streams, StepReports and raised errors agree request by request."""
    return len(a) == len(b) and all(
        x.request.rid == y.request.rid and x.spec_tokens == y.spec_tokens
        and x.reports == y.reports and x.ar_tokens == y.ar_tokens and x.error == y.error
        for x, y in zip(a, b))


def averaged(passes):
    """Each request of the first pass with its speculative and greedy times
    averaged over all passes.  The caller checks that the passes agree."""
    return [dataclasses.replace(o, spec_s=sum(p[i].spec_s for p in passes) / len(passes),
                                ar_s=sum(p[i].ar_s for p in passes) / len(passes))
            for i, o in enumerate(passes[0])]
