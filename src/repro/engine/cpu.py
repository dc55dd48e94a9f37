"""Struct-of-arrays CPU model — the fast backend's thread layer.

The reference :class:`~repro.cpu.thread.ThreadModel` keeps each
hardware context's sliding-window state in its own object (a deque of
``(issue id, credit)`` pairs, a completed-id set).  This module
restructures that state into one :class:`CpuBatch` holding **parallel
arrays indexed by thread id** — the MLP window as flat credit/mask
arrays, issue and retire bookkeeping as columns — fed, like the
reference, from block-buffered bit-exact RNG streams
(:mod:`repro.engine.rng`):

* the issue-gap jitter stream is pre-drawn in vectorized
  ``uniform(0.9, 1.1)`` blocks (numpy fills a batch from the same bit
  stream as sequential scalar calls);
* the address stream is the reference
  :class:`~repro.workloads.synthetic.AddressStream`, whose
  interleaved ``random()`` / ``integers(n)`` draws already come from
  a :class:`~repro.engine.rng.BufferedPCG64` over raw 64-bit blocks.

Because issue ids are consecutive per thread, the reference's
``(deque of ids, completed set)`` collapses into a head id, a length,
and a *completion bitmask* relative to the window head — ``popleft
while head completed`` becomes mask shifts.

:class:`FastThreadModel` is a view over one ``CpuBatch`` column
implementing the exact ``ThreadModel`` interface (``try_issue`` /
``issue_gap`` / ``on_request_completed`` / ``finalize`` plus the
telemetry surface), so the observed engine path, the monitor, the
epoch sampler and the profiler drive fast threads unchanged.  The
bare fast loop (:mod:`repro.engine.fast`) reaches past the views and
works on the arrays directly.

Semantics are line-for-line those of the reference model — same
branch structure, same float operations in the same order — which the
cross-backend parity matrix then pins bit-identical.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.config import SimConfig
from repro.cpu.stats import ThreadStats
from repro.cpu.thread import MAX_OUTSTANDING_MISSES
from repro.engine.rng import BufferedUniform
from repro.workloads.spec import BenchmarkSpec
from repro.workloads.synthetic import AddressStream


class CpuBatch:
    """All threads' sliding-window state as parallel per-tid columns.

    Hot integer/float scalars live in plain Python lists (fastest
    per-element access in CPython); the MLP window's retirement
    credits live in one flat row-major array of
    ``MAX_OUTSTANDING_MISSES`` slots per thread, addressed as a ring.
    RNG state is one buffered jitter stream and one buffered address
    stream per thread.
    """

    __slots__ = (
        "config", "specs", "weights", "stats", "streams",
        "issued", "head_id", "rob_len", "completed_mask",
        "pending_credit", "gap_carry", "instr_credit", "program_time",
        "last_issue_time", "current_ipm", "instrs_per_miss",
        "max_outstanding", "window_blocked", "phase_end",
        "phase_multiplier", "credits", "jitter", "addr", "phase_rng",
        "ipc_peak", "window_size", "phase_mean",
    )

    def __init__(
        self,
        specs: List[BenchmarkSpec],
        config: SimConfig,
        seed: int,
        weights: List[int],
        streams: List[int],
    ):
        n = len(specs)
        for spec in specs:
            if spec.mpki <= 0:
                raise ValueError(
                    f"benchmark {spec.name} must have positive MPKI"
                )
        for weight in weights:
            if weight < 1:
                raise ValueError("thread weight must be >= 1")
        self.config = config
        self.specs = list(specs)
        self.weights = list(weights)
        self.streams = list(streams)
        self.stats = [ThreadStats() for _ in range(n)]
        self.ipc_peak = config.ipc_peak
        self.window_size = config.window_size
        self.phase_mean = config.phase_mean_cycles
        self.issued = [0] * n
        self.head_id = [1] * n          # issue id at the window head
        self.rob_len = [0] * n
        self.completed_mask = [0] * n   # bit k: head_id + k completed
        self.instrs_per_miss = [1000.0 / s.mpki for s in specs]
        self.current_ipm = list(self.instrs_per_miss)
        self.pending_credit = list(self.instrs_per_miss)
        self.gap_carry = [0.0] * n
        self.instr_credit = [0.0] * n
        self.program_time = [0] * n
        self.last_issue_time = [0] * n
        self.window_blocked = [False] * n
        self.phase_end = [0] * n
        self.phase_multiplier = [1.0] * n
        self.max_outstanding = [
            self._window_limit(tid) for tid in range(n)
        ]
        # MLP window: per-thread ring of retirement credits
        self.credits = [0.0] * (n * MAX_OUTSTANDING_MISSES)
        # RNG streams — same seeding tuples as the reference model
        self.jitter = [
            BufferedUniform(
                np.random.default_rng((seed, stream, 0x7E)), 0.9, 1.1
            )
            for stream in streams
        ]
        self.phase_rng = [
            np.random.default_rng((seed, stream, 0xF5))
            for stream in streams
        ]
        self.addr = [
            AddressStream(
                spec, config, np.random.default_rng((seed, stream, 0xAD))
            )
            for spec, stream in zip(specs, streams)
        ]

    def _window_limit(self, tid: int) -> int:
        return max(
            1,
            min(
                MAX_OUTSTANDING_MISSES,
                int(self.window_size // max(1.0, self.current_ipm[tid])),
            ),
        )

    # -- the model, one operation per column ---------------------------
    # These are the reference ThreadModel's methods with `self.x`
    # replaced by `column[tid]`; the bare fast loop inlines the same
    # accesses against cached locals.

    def maybe_change_phase(self, tid: int, now: int) -> None:
        mean = self.phase_mean
        if mean <= 0 or now < self.phase_end[tid]:
            return
        rng = self.phase_rng[tid]
        self.phase_multiplier[tid] = multiplier = float(
            rng.choice((0.5, 1.0, 2.0))
        )
        self.current_ipm[tid] = self.instrs_per_miss[tid] / multiplier
        self.max_outstanding[tid] = self._window_limit(tid)
        self.phase_end[tid] = now + max(1, int(rng.exponential(mean)))

    def try_issue(self, tid: int, now: int) -> Optional[Tuple[int, int, int]]:
        self.maybe_change_phase(tid, now)
        if self.rob_len[tid] >= self.max_outstanding[tid]:
            self.window_blocked[tid] = True
            return None
        self.window_blocked[tid] = False
        issued = self.issued[tid] + 1
        self.issued[tid] = issued
        length = self.rob_len[tid]
        if length == 0:
            self.head_id[tid] = issued
        # ids in the window are consecutive, so id % window is a
        # collision-free ring slot
        self.credits[
            tid * MAX_OUTSTANDING_MISSES + issued % MAX_OUTSTANDING_MISSES
        ] = self.pending_credit[tid]
        self.rob_len[tid] = length + 1
        self.last_issue_time[tid] = now
        return self.addr[tid].next_location()

    def issue_gap(self, tid: int) -> int:
        gap = self.current_ipm[tid] / self.ipc_peak
        gap *= self.jitter[tid].next()
        gap += self.gap_carry[tid]
        cycles = int(gap)
        if cycles < 1:
            cycles = 1
        self.gap_carry[tid] = gap - cycles
        self.pending_credit[tid] = cycles * self.ipc_peak
        self.program_time[tid] += cycles
        return cycles

    def on_request_completed(self, tid: int, issue_id: int) -> bool:
        length = self.rob_len[tid]
        if not length:
            raise RuntimeError(
                f"thread {tid} completion with no outstanding misses"
            )
        head = self.head_id[tid]
        mask = self.completed_mask[tid] | (1 << (issue_id - head))
        freed = 0
        if mask & 1:
            credits = self.credits
            base = tid * MAX_OUTSTANDING_MISSES
            credit_acc = self.instr_credit[tid]
            stats = self.stats[tid]
            while mask & 1:
                credit_acc += credits[
                    base + (head + freed) % MAX_OUTSTANDING_MISSES
                ]
                mask >>= 1
                freed += 1
                instrs = int(credit_acc)
                credit_acc -= instrs
                stats.retire(instrs, 1)
            self.head_id[tid] = head + freed
            self.rob_len[tid] = length - freed
            self.instr_credit[tid] = credit_acc
        self.completed_mask[tid] = mask
        was_blocked = self.window_blocked[tid] and freed > 0
        if freed:
            self.window_blocked[tid] = False
        return was_blocked

    def finalize(self, tid: int, now: int) -> None:
        self.jitter[tid].release()
        self.addr[tid].release()
        if self.rob_len[tid]:
            return
        elapsed = now - self.last_issue_time[tid]
        if elapsed < 0:
            elapsed = 0
        instrs = min(
            int(elapsed * self.ipc_peak), int(self.pending_credit[tid])
        )
        if instrs > 0:
            self.stats[tid].retire(instrs, 0)


class FastThreadModel:
    """One thread's view over a :class:`CpuBatch` column.

    Implements the reference ``ThreadModel`` interface so the observed
    engine path, monitor, sampler, profiler and results assembly work
    unchanged on the fast backend.
    """

    def __init__(self, batch: CpuBatch, tid: int):
        self._batch = batch
        self.thread_id = tid
        self.spec = batch.specs[tid]
        self.config = batch.config
        self.weight = batch.weights[tid]
        self.stats = batch.stats[tid]
        self.instrs_per_miss = batch.instrs_per_miss[tid]
        self._addr = batch.addr[tid]

    # -- reference-interface properties --------------------------------

    @property
    def issued(self) -> int:
        return self._batch.issued[self.thread_id]

    @property
    def outstanding(self) -> int:
        return self._batch.rob_len[self.thread_id]

    @property
    def window_blocked(self) -> bool:
        return self._batch.window_blocked[self.thread_id]

    @property
    def max_outstanding(self) -> int:
        return self._batch.max_outstanding[self.thread_id]

    @property
    def phase_multiplier(self) -> float:
        return self._batch.phase_multiplier[self.thread_id]

    @property
    def program_time(self) -> int:
        return self._batch.program_time[self.thread_id]

    def register_metrics(self, registry) -> None:
        labels = {"tid": self.thread_id}
        self.stats.register_metrics(registry, labels)
        registry.register(
            "cpu.outstanding_misses",
            lambda: self._batch.rob_len[self.thread_id], labels,
        )
        registry.register(
            "cpu.issued_misses",
            lambda: self._batch.issued[self.thread_id], labels,
        )

    # -- reference-interface operations --------------------------------

    def try_issue(self, now: int) -> Optional[Tuple[int, int, int]]:
        return self._batch.try_issue(self.thread_id, now)

    def issue_gap(self) -> int:
        return self._batch.issue_gap(self.thread_id)

    def on_request_completed(self, issue_id: int) -> bool:
        return self._batch.on_request_completed(self.thread_id, issue_id)

    def finalize(self, now: int) -> None:
        self._batch.finalize(self.thread_id, now)


def build_cpu_batch(
    specs, config: SimConfig, seed: int, weights, streams
) -> Tuple[CpuBatch, List[FastThreadModel]]:
    """The fast backend's thread layer for one system."""
    batch = CpuBatch(list(specs), config, seed, list(weights), list(streams))
    return batch, [FastThreadModel(batch, tid) for tid in range(len(specs))]
