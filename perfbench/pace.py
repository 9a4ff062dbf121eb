"""Host-speed reference sampled through the measuring window.

The benchmark host is a small shared VM: neighbours slow it by up to 1.5x
for seconds to minutes at a time, and CPU time rises with wall time, so the
raw median of identical work differs by 30% between runs minutes apart. A
fixed reference kernel that does not use fasris (small complex matrix
products and solves, the library's own mix of numpy calls) is timed from a
SIGALRM handler every `INTERVAL_S` seconds while the run sets up and
measures. On the host it slows with the library ops: their time ratio to
the kernel stayed within 1.0-1.15 while raw times swung from 11 to 22 ms.
`span()` times a block without the time spent in the handler, and
`normalized()` scales it by `REFERENCE_S / mean(kernel time)` over the
samples taken while the block ran (widened to `WINDOW_S` for short blocks):
the block's time at the host speed where the kernel takes `REFERENCE_S`.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.2
WINDOW_S = 2.0
OUTLIER = 2.0
REFERENCE_S = 2e-3
_N = 24
_REPS = 35


@dataclass
class Span:
    start: float
    end: float
    seconds: float      # wall time minus the time spent sampling


class Pace:
    """Context manager sampling the reference kernel on a real-time timer."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((_N, _N)) \
            + 1j * rng.standard_normal((_N, _N))
        self.samples: list[tuple[float, float]] = []   # (time, kernel s)
        self.spent = 0.0
        self._previous = None

    def kernel(self):
        A = self._A
        for _ in range(_REPS):
            B = np.linalg.solve(A @ A.conj().T + np.eye(_N), A)
        return B

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @contextlib.contextmanager
    def span(self, spans: list):
        """Append the `Span` of the enclosed block to `spans`."""
        t0, spent = time.perf_counter(), self.spent
        try:
            yield
        finally:
            t1 = time.perf_counter()
            spans.append(Span(t0, t1, t1 - t0 - (self.spent - spent)))

    def normalized(self, span: Span) -> float:
        """The span's seconds at the reference host speed."""
        mid = 0.5 * (span.start + span.end)
        lo = min(span.start, mid - 0.5 * WINDOW_S)
        hi = max(span.end, mid + 0.5 * WINDOW_S)
        near = [dt for t, dt in self.samples if lo <= t <= hi] \
            or [dt for _, dt in self.samples]
        # The span's time integrates the host speed, so average it; drop
        # samples hit by a preemption (over twice the median), which would
        # otherwise weigh a short span's few samples.
        typical = statistics.median(near)
        kept = [dt for dt in near if dt <= OUTLIER * typical]
        return span.seconds * REFERENCE_S / statistics.fmean(kept)

    @property
    def scale(self) -> float:
        """Reference speed over the whole run's median host speed."""
        return REFERENCE_S / statistics.median(dt for _, dt in self.samples)
