"""Synthetic address-stream generation.

Substitutes for the paper's Pin-captured SPEC CPU2006 traces.  A stream
is parameterised by a :class:`~repro.workloads.spec.BenchmarkSpec` and
produces, per miss, a (channel, bank, row) target such that the
*measured* row-buffer locality and bank-level parallelism of the thread
converge to the spec's targets:

* **RBL**: each access to a bank reuses the thread's previous row in
  that bank with probability ``rbl`` — precisely the shadow row-buffer
  hit rate the paper's monitors measure.
* **BLP**: misses rotate over a *spread* of banks resampled around the
  BLP target (floor/ceil with matching mean) within a contiguous bank
  window, so the number of banks holding the thread's outstanding
  requests tracks the target.

The bank window *drifts*: every row change advances it by one bank,
the way a sequential walk crosses from one row into the next bank.
A streaming thread (RBL ~= 0.99) therefore dwells ~100 misses on one
bank and then moves on — sweeping the whole memory system and
temporarily denying service to any thread sharing its current bank
(the paper's §2.4 hostility).  A random-access thread's window slides
almost every miss, scattering its requests bank-wide.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.config import SimConfig
from repro.engine.rng import BufferedPCG64
from repro.workloads.spec import BenchmarkSpec


class AddressStream:
    """Generates DRAM targets for one thread's cache misses.

    The generator it is given is wrapped in a
    :class:`~repro.engine.rng.BufferedPCG64`, which hands out the very
    draws the generator's scalar ``random()`` / ``integers(n)`` calls
    would, in the same order, without a numpy call per draw.  From then
    on the stream owns the generator's position.
    """

    __slots__ = (
        "spec", "config", "_rng", "_window", "_base", "_reuse_prob",
        "_last_row", "_spread", "_pos", "accesses", "row_reuses",
        "drifts", "_num_banks", "_num_rows", "_banks_per_channel",
        "_spread_lo", "_spread_hi", "_spread_frac",
    )

    def __init__(
        self,
        spec: BenchmarkSpec,
        config: SimConfig,
        rng: np.random.Generator,
    ):
        self.spec = spec
        self.config = config
        self._rng = BufferedPCG64(rng)
        num_banks = config.num_banks
        self._num_banks = num_banks
        self._num_rows = config.num_rows
        self._banks_per_channel = config.banks_per_channel
        self._window = min(num_banks, max(1, math.ceil(spec.blp)))
        self._base = self._rng.integers(num_banks)
        # The first access after drifting onto a bank can never reuse a
        # row, so the per-access reuse probability is raised such that
        # the *measured* reuse rate (hits / all accesses, first touches
        # included) converges to exactly ``rbl``:
        #   measured = p / (2 - p)  =>  p = 2*rbl / (1 + rbl)
        self._reuse_prob = 2.0 * spec.rbl / (1.0 + spec.rbl)
        self._last_row = {}  # global bank id -> last row accessed
        # How many banks each rotation of misses covers: the BLP target
        # clamped to the window, resampled as floor/ceil with its mean.
        target = max(1.0, min(spec.blp, float(self._window)))
        self._spread_lo = math.floor(target)
        self._spread_hi = math.ceil(target)
        self._spread_frac = target - self._spread_lo
        self._spread = self._sample_spread()
        self._pos = 0
        self.accesses = 0
        self.row_reuses = 0
        self.drifts = 0

    # ------------------------------------------------------------------

    def _sample_spread(self) -> int:
        """How many banks the next rotation of misses covers."""
        if self._spread_lo == self._spread_hi:
            return self._spread_lo
        if self._rng.random() < self._spread_frac:
            return self._spread_hi
        return self._spread_lo

    def next_location(self) -> Tuple[int, int, int]:
        """DRAM target of the thread's next cache miss.

        Each access to a bank reuses the thread's previous row there
        with probability ``_reuse_prob``.  The first touch of a bank
        opens a fresh row but is not an exhaustion, otherwise every
        post-drift access would cascade into another drift; a re-visited
        bank that switches rows walks to the next row (streams read
        memory in address order; prefetchers can predict this) and
        slides the bank window by one, like a walk crossing a row end.
        The expected drift rate is ``(1 - rbl) / 2`` per access.
        """
        pos = self._pos
        if pos >= self._spread:
            pos = 0
            self._spread = self._sample_spread()
        gbank = (self._base + pos) % self._num_banks
        self._pos = pos + 1
        self.accesses += 1
        last_row = self._last_row
        last = last_row.get(gbank)
        if last is None:
            row = self._rng.integers(self._num_rows)
            last_row[gbank] = row
        elif self._rng.random() < self._reuse_prob:
            self.row_reuses += 1
            row = last
        else:
            row = (last + 1) % self._num_rows
            last_row[gbank] = row
            last_row.pop(self._base, None)
            self._base = (self._base + 1) % self._num_banks
            self.drifts += 1
        banks_per_channel = self._banks_per_channel
        return gbank // banks_per_channel, gbank % banks_per_channel, row

    def next_locations(self, count: int) -> List[Tuple[int, int, int]]:
        """Convenience: the next ``count`` miss targets."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return [self.next_location() for _ in range(count)]

    def release(self) -> None:
        """Drop the pre-drawn words; the stream itself is unchanged."""
        self._rng.release()

    @property
    def measured_reuse_rate(self) -> float:
        """Fraction of accesses that reused the previous row (sanity stat)."""
        if self.accesses == 0:
            return 0.0
        return self.row_reuses / self.accesses
