"""CPU time of an operation, scaled to a fixed host speed sampled beside it.

The benchmark shares its machine with other load that comes and goes in
phases of seconds to minutes.  The CPU time of one and the same run
moved by up to 2x with it, so raw CPU seconds taken an hour apart do not
compare.  A small fixed interpreter kernel, timed on a background thread
*while* the operation runs, on the same CPU, slows down with the same
phases.  It mixes interpreter work with random reads over a table
larger than a core's L2 cache, as the simulator does; in a 150-second
trial of 0.5-second traced TCM runs whose CPU time varied by 16%
(coefficient of variation), its time correlated 0.93 with theirs.  It
swings harder than the simulator, though: the simulator's CPU time
moves by ``ELASTICITY`` times as much as the kernel's, in logs.  So
CPU seconds are scaled to a fixed reference speed as

    cpu_s = raw CPU seconds x (REFERENCE_KERNEL_S / median kernel time)
                              ** ELASTICITY

The kernel is part of the benchmark, not of the program, so a change to
the program cannot move it.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List

#: Nominal CPU time of one :func:`kernel` call, the reference speed
#: every CPU time is scaled to (about its time on a quiet host).
REFERENCE_KERNEL_S = 0.0014
#: Slope of log(program CPU time) on log(kernel time), fitted within
#: runs so that differences between seeds drop out: 0.51-0.63 over 550
#: operations of the three workloads, 0.58-0.81 over 133 set-up probes.
ELASTICITY = 0.6
#: Entries of the kernel's read table: 4 MB of pointers.
TABLE_SIZE = 1 << 19
#: Pause between two samples; one sample costs about 1.4 ms of CPU.
PERIOD_S = 0.02
#: Samples taken in the foreground if the operation was too short.
MIN_SAMPLES = 9


_READS: List[int] = []


def kernel(n: int = 3000) -> float:
    """Thread CPU seconds of a fixed integer, dict and table-read loop."""
    if not _READS:  # built by the first caller, the sampler thread
        _READS.extend(i & 255 for i in range(TABLE_SIZE))
    reads, mask = _READS, TABLE_SIZE - 1
    t0 = time.thread_time()
    state, table, total = 0, {}, 0
    for i in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        table[state & 1023] = i
        total += reads[state & mask]
    return time.thread_time() - t0


def factor(samples: List[float]) -> float:
    """Scale from raw CPU seconds to CPU seconds at the reference speed."""
    return (REFERENCE_KERNEL_S / statistics.median(samples)) ** ELASTICITY


class CpuClock:
    """CPU time of the calling thread over a block, at the reference speed.

    After the block: ``raw_s`` is the thread's CPU seconds (its own only:
    ``process_time`` would count the sampler too), ``samples`` the kernel
    times of the sampler thread, ``factor`` the scale they give and
    ``cpu_s`` the scaled time.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.samples.append(kernel())

    def __enter__(self) -> "CpuClock":
        self._sampler.start()
        self._t0 = time.thread_time()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = time.thread_time() - self._t0
        self._stop.set()
        self._sampler.join()
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(kernel())
        self.factor = factor(self.samples)
        self.cpu_s = self.raw_s * self.factor
