"""Host speed probe: scales measured times to a reference host speed.

The per-core speed of a small shared VM swings with the load other tenants
put on the same physical cores: a fixed kernel's time varies by up to 2x
from one second to the next, and set medians of the same workload minutes
apart differed by a quarter, while process CPU time keeps pace with wall
time.  Times taken at different moments are therefore compared after
scaling by the speed the host had while they were taken.

``Probe`` times a fixed pure-Python kernel every ``INTERVAL_S`` of wall time
from a SIGALRM handler, on the thread that runs the workload, so the kernel
samples the same cores at the same moments as the work it is interleaved
with.  The benchmark reports

    scaled time = (wall time - time spent in the handler)
                  x REFERENCE_KERNEL_S / mean kernel time over that interval

The kernel is the benchmark's own code, so a change to strongdrive cannot
change it; a slower strongdrive still reads slower.  Work that the library
moves onto other threads or processes would slow the kernel too and is not
seen this way; the raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Wall time between two kernel samples.
INTERVAL_S = 0.025
#: Loop trips of the kernel: about 0.9 ms on the reference host, so the
#: probe takes about 4% of the wall time, which is subtracted.
KERNEL_TRIPS = 10_000
#: Kernel time that defines the reference speed: a fixed constant, near the
#: kernel's median on the 2-vCPU x86-64 VM (Python 3.11) of baseline.json
#: (0.72 to 1.1 ms there), so scaled times read close to that host's seconds.
REFERENCE_KERNEL_S = 0.9e-3
#: Share of samples dropped at each end before averaging, against samples
#: that caught a page fault or garbage collection.
TRIM = 0.05


def kernel() -> int:
    s = 0
    for i in range(KERNEL_TRIPS):
        s += i * i % 7
    return s


class Probe:
    """Kernel samples and the time spent taking them, since ``start``."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.handler_s += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.handler_s

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """(handler time, trimmed mean kernel time) since ``mark``."""
        n, handler_s = mark
        return self.handler_s - handler_s, trimmed_mean(self.samples[n:])


def trimmed_mean(samples) -> float:
    xs = sorted(samples)
    if not xs:
        raise ValueError("no kernel samples: the interval was shorter than the probe's")
    k = int(len(xs) * TRIM)
    return statistics.fmean(xs[k:len(xs) - k])


def scaled(wall_s: float, handler_s: float, kernel_s: float) -> float:
    """Wall time without the probe's share, at the reference host speed."""
    return (wall_s - handler_s) * REFERENCE_KERNEL_S / kernel_s
