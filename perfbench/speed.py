"""Op times at a reference speed.

The host's speed drifts: one fixed P-II integration took 0.146-0.229 s
(medians of 3 s windows) within 90 s on a 2-vCPU Xeon virtual machine shared
with other guests, and identical 2 s ops spread by 20 % inside one run. Two
causes mix. While the hypervisor runs another guest, wall time passes but the
process gets no CPU time; in 3 s windows the median wall time of that
integration reached 2x its CPU time. And the CPU itself runs slower or faster
(contention, clock changes), which moves CPU time as well: the same
integration's CPU time alone spread 13 % across runs.

So an op is timed in process CPU time, which excludes the first cause, and
scaled to a reference speed for the second: a fixed pure-Python kernel is
timed, in CPU time too, between ops and, every CAL_INTERVAL seconds, inside
them, and each op's CPU time (less the kernel timings inside it) is
multiplied by CAL_REF_S over the median kernel time measured during the op
and within CAL_SPAN seconds of it. The benchmark is one thread and does no
I/O inside ops, so on an idle machine its CPU time is its wall time. The
kernel does not use painleve, so a change to the program cannot move it.
"""

from __future__ import annotations

import contextlib
import math
import statistics
from time import perf_counter, process_time

from workloads import patched

CAL_REF_S = 5e-3
CAL_SPAN = 0.5
CAL_INTERVAL = 0.5


def kernel_seconds() -> float:
    """CPU time of a fixed loop of complex arithmetic and calls, like a stepper's."""
    def f(t, y, v):
        return v, 2.0 * y * y * y + t * y
    c0 = process_time()
    t, y, v, h = 0.0, 0.3 + 0.1j, 0.2 - 0.05j, 1e-3
    for _ in range(4000):
        a, b = f(t, y, v)
        c, d = f(t + 0.5 * h, y + 0.5 * h * a, v + 0.5 * h * b)
        y, v, t = y + h * c, v + h * d, t + h
    return process_time() - c0


class Clock:
    """Times a sequence of calls and the kernel before, between and (through
    ``tick``) inside them."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (when, kernel CPU s)
        # (start, end, wall s less kernel, CPU s less kernel)
        self.calls: list[tuple[float, float, float, float]] = []
        self._inside = (0.0, 0.0)
        self._next = math.inf
        self._sample()

    def _sample(self) -> tuple[float, float]:
        """Time the kernel; return the wall and CPU time it took."""
        t0, c0 = perf_counter(), process_time()
        self.samples.append((t0, kernel_seconds()))
        return perf_counter() - t0, process_time() - c0

    def tick(self) -> None:
        """Time the kernel if CAL_INTERVAL has passed in the current call."""
        if perf_counter() >= self._next:
            wall, cpu = self._sample()
            self._inside = (self._inside[0] + wall, self._inside[1] + cpu)
            self._next = perf_counter() + CAL_INTERVAL

    def __call__(self, fn, *args):
        self._inside = (0.0, 0.0)
        start, c0 = perf_counter(), process_time()
        self._next = start + CAL_INTERVAL
        out = fn(*args)
        end, c1 = perf_counter(), process_time()
        self._next = math.inf
        self.calls.append((start, end, end - start - self._inside[0], c1 - c0 - self._inside[1]))
        self._sample()
        return out

    def seconds(self) -> list[float]:
        """Wall time of each call."""
        return [wall for _, _, wall, _ in self.calls]

    def reference_seconds(self) -> list[float]:
        """CPU time of each call at the reference speed."""
        out = []
        for start, end, _, cpu in self.calls:
            near = [k for t, k in self.samples if start - CAL_SPAN <= t <= end + CAL_SPAN]
            out.append(cpu * CAL_REF_S / statistics.median(near))
        return out


@contextlib.contextmanager
def sampling(clock: Clock, names):
    """Let ``clock`` time the kernel before the calls of ``names``, a list
    of (namespace, attribute) pairs."""
    def with_tick(fn):
        def call(*args, **kwargs):
            clock.tick()
            return fn(*args, **kwargs)
        return call

    with patched([(ns, attr, with_tick(getattr(ns, attr))) for ns, attr in names]):
        yield
