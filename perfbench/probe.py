"""Host speed probe: scales timed work to a nominal machine speed.

The shared VM the benchmark was tuned on drifts in speed by a third and more
over minutes, with no change in the work done. While a timed section runs, a
SIGALRM handler times a short fixed snippet of interpreter and small-array
work every ``INTERVAL_S`` seconds; a few more samples are taken just before
and after it. A section's net time excludes the handler's time, and its
scale factor is the snippet's nominal time over the median sampled time, so
net time x scale is the section's time at the snippet's nominal speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.25
BRACKET = 5  # samples taken just before and just after each section
SNIPPET_ROUNDS = 300
# The snippet's median time on the 2-vCPU Xeon VM the bounds were set on.
NOMINAL_S = 0.0015

_MATRIX = np.arange(64.0).reshape(8, 8) / 64.0


def snippet_s() -> float:
    """Wall time of a fixed mix of interpreter and small-array work."""
    table = {}
    start = time.perf_counter()
    for i in range(SNIPPET_ROUNDS):
        product = _MATRIX @ _MATRIX
        table[i % 97] = (i, float(product[0, 0]))
        sum(x * x for x in range(20))
    return time.perf_counter() - start


class SpeedProbe:
    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        snippet_s()  # warm-up: the first call pays one-time NumPy costs

    @contextmanager
    def watching(self):
        """Sample around and during the block; yields a dict that, on exit,
        holds ``samples``, ``overhead_s`` (handler time inside the block) and
        ``scale``."""
        window = {"samples": [snippet_s() for _ in range(BRACKET)], "overhead_s": 0.0}

        def handler(signum, frame):
            took = snippet_s()
            window["samples"].append(took)
            window["overhead_s"] += took

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield window
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            window["samples"] += [snippet_s() for _ in range(BRACKET)]
            window["scale"] = NOMINAL_S / statistics.median(window["samples"])
