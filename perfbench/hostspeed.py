"""How much slower than uncontended the host ran while something was timed.

The sandbox this benchmark was defined on is a 2-vCPU virtual machine whose
neighbours slow the same code by 1.4-1.9x, switching between fast and slow
within seconds and staying mostly slow or mostly fast for minutes.  Raw
pass times then differ between runs by far more than any bound a benchmark
can hold.

:class:`Sampler` times a small fixed reference kernel 50 times a second
from a ``SIGALRM`` handler while a pass (or set-up) runs.  The mean kernel
time over the uncontended one is the slowdown the timed code shared; the
pass time minus the handler's own time, divided by that slowdown, reads as
host seconds on the uncontended sandbox.  On the sandbox this cut the
pass-to-pass variation of every workload from 6-13 % to 2-5 %.  No thread is
started: the handler runs in the main thread between bytecodes.

The kernel shares the program's core and caches, and contention does not
slow all code alike, so the correction can absorb part of a change the
program itself makes.  The README's "Measuring on a shared host" gives the
measured size of that effect; raw times are kept beside corrected ones.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between samples.
INTERVAL_S = 0.02
#: The kernel's time on the uncontended sandbox (its 5th percentile over
#: 3000 runs; the minimum was 308.5 us).
UNCONTENDED_S = 310e-6


def kernel() -> int:
    """Interpreter arithmetic and dict traffic, about 0.3 ms uncontended."""
    total = 0
    counts: dict[int, int] = {}
    for i in range(1500):
        total += i * i % 7
        key = (i * 2654435761) % 4099
        counts[key] = counts.get(key, 0) + 1
    return total


class Sampler:
    """Samples the reference kernel while the ``with`` block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Seconds spent in the handler, to subtract from the timed block.
        self.spent = 0.0
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - begin
        self.samples.append(elapsed)
        self.spent += elapsed

    @property
    def slowdown(self) -> float:
        """Mean kernel time over its uncontended time (1.0 if never sampled).

        Samples are capped at three times their median first.  Contention
        slows the kernel by under 2x, but on the sandbox about one set-up in
        twenty read a slowdown two to three times too high; a single long
        sample among the twenty or so taken during set-up does that."""
        if not self.samples:
            return 1.0
        cap = 3.0 * statistics.median(self.samples)
        capped = [min(sample, cap) for sample in self.samples]
        return sum(capped) / len(capped) / UNCONTENDED_S

    def host_seconds(self, elapsed: float) -> float:
        """``elapsed`` seconds of the timed block, less the handler's time,
        at uncontended host speed."""
        return (elapsed - self.spent) / self.slowdown
