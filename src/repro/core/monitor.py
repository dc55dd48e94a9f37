"""Monitoring of per-thread memory access behaviour (paper §3.4).

Implements the three monitors of Table 2:

* **Memory intensity** — L2 MPKI, computed from the cores' retired
  instruction and miss counters each quantum.
* **Row-buffer locality** — a *shadow row-buffer index* per thread per
  bank tracks the row that would be open had the thread run alone; RBL
  is the shadow hit rate over the quantum.
* **Bank-level parallelism** — the time-weighted average number of
  banks holding at least one outstanding request of the thread, while
  the thread has any outstanding request (a continuous version of the
  paper's periodic sampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import SimConfig
from repro.dram.request import MemoryRequest


@dataclass(frozen=True)
class ThreadMetrics:
    """One thread's monitored behaviour over a quantum."""

    mpki: float
    bw_usage: int      # memory service time: bank-busy cycles attributed
    blp: float         # average banks with outstanding requests
    rbl: float         # shadow row-buffer hit rate


@dataclass(frozen=True)
class QuantumSnapshot:
    """All threads' metrics for one quantum, plus aggregates."""

    quantum_index: int
    metrics: Tuple[ThreadMetrics, ...]

    @property
    def total_bw_usage(self) -> int:
        return sum(m.bw_usage for m in self.metrics)

    @property
    def num_threads(self) -> int:
        return len(self.metrics)


class BehaviorMonitor:
    """Continuously tracks BW usage, shadow-RBL and BLP per thread.

    One instance serves the whole system; internally statistics are
    still attributable per channel (service cycles and shadow rows are
    kept per channel) mirroring the paper's per-controller monitors
    whose results the meta-controller aggregates.
    """

    def __init__(self, config: SimConfig, num_threads: int):
        self.config = config
        self.num_threads = num_threads
        self._banks_per_channel = config.banks_per_channel
        nch = config.num_channels
        # per-channel service cycles: [channel][thread]
        self.service_cycles: List[List[int]] = [
            [0] * num_threads for _ in range(nch)
        ]
        # shadow row-buffer index per (channel, thread, bank)
        self._shadow_rows: List[List[Dict[int, int]]] = [
            [dict() for _ in range(num_threads)] for _ in range(nch)
        ]
        self.shadow_hits: List[List[int]] = [[0] * num_threads for _ in range(nch)]
        self.shadow_accesses: List[List[int]] = [
            [0] * num_threads for _ in range(nch)
        ]
        # BLP accounting (global across banks, per thread)
        self._bank_outstanding: List[Dict[int, int]] = [
            dict() for _ in range(num_threads)
        ]
        self._active_banks: List[int] = [0] * num_threads
        self._outstanding: List[int] = [0] * num_threads
        self._last_update: List[int] = [0] * num_threads
        self._blp_integral: List[float] = [0.0] * num_threads
        self._busy_time: List[int] = [0] * num_threads
        # lifetime copies (for end-of-run reporting)
        self.lifetime_service_cycles: List[int] = [0] * num_threads
        self.lifetime_shadow_hits: List[int] = [0] * num_threads
        self.lifetime_shadow_accesses: List[int] = [0] * num_threads
        self.lifetime_blp_integral: List[float] = [0.0] * num_threads
        self.lifetime_busy_time: List[int] = [0] * num_threads

    def register_metrics(self, registry) -> None:
        """Expose lifetime monitor counters as polled providers."""
        for tid in range(self.num_threads):
            labels = {"tid": tid}
            registry.register(
                "monitor.service_cycles",
                lambda t=tid: self.lifetime_service_cycles[t], labels,
            )
            registry.register(
                "monitor.shadow_hits",
                lambda t=tid: self.lifetime_shadow_hits[t], labels,
            )
            registry.register(
                "monitor.shadow_accesses",
                lambda t=tid: self.lifetime_shadow_accesses[t], labels,
            )
            registry.register(
                "monitor.rbl", lambda t=tid: self.lifetime_rbl(t), labels
            )
            registry.register(
                "monitor.blp", lambda t=tid: self.lifetime_blp(t), labels
            )

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------

    def _advance_blp(self, tid: int, now: int) -> None:
        dt = now - self._last_update[tid]
        if dt > 0 and self._outstanding[tid] > 0:
            self._blp_integral[tid] += self._active_banks[tid] * dt
            self._busy_time[tid] += dt
            self.lifetime_blp_integral[tid] += self._active_banks[tid] * dt
            self.lifetime_busy_time[tid] += dt
        self._last_update[tid] = now

    def on_request_arrival(self, request: MemoryRequest, now: int) -> None:
        """Track shadow row-buffer and BLP at request arrival."""
        tid = request.thread_id
        ch = request.channel_id
        bank_id = request.bank_id
        row = request.row
        shadow = self._shadow_rows[ch][tid]
        self.shadow_accesses[ch][tid] += 1
        self.lifetime_shadow_accesses[tid] += 1
        if shadow.get(bank_id) == row:
            self.shadow_hits[ch][tid] += 1
            self.lifetime_shadow_hits[tid] += 1
        shadow[bank_id] = row

        self._advance_blp(tid, now)
        gbank = ch * self._banks_per_channel + bank_id
        counts = self._bank_outstanding[tid]
        count = counts.get(gbank, 0) + 1
        counts[gbank] = count
        if count == 1:
            self._active_banks[tid] += 1
        self._outstanding[tid] += 1

    def on_request_service(
        self, request: MemoryRequest, busy_cycles: int
    ) -> None:
        """Attribute bank-busy cycles (memory service time) to the thread."""
        tid = request.thread_id
        self.service_cycles[request.channel_id][tid] += busy_cycles
        self.lifetime_service_cycles[tid] += busy_cycles

    def on_request_complete(self, request: MemoryRequest, now: int) -> None:
        """Track BLP at request completion."""
        tid = request.thread_id
        self._advance_blp(tid, now)
        gbank = request.channel_id * self._banks_per_channel + request.bank_id
        counts = self._bank_outstanding[tid]
        count = counts[gbank] - 1
        if count:
            counts[gbank] = count
        else:
            del counts[gbank]
            self._active_banks[tid] -= 1
        self._outstanding[tid] -= 1

    # ------------------------------------------------------------------
    # quantum accounting
    # ------------------------------------------------------------------

    def quantum_metrics(
        self, thread_mpki: List[float], now: int
    ) -> List[ThreadMetrics]:
        """Per-thread metrics for the quantum ending at ``now``."""
        metrics = []
        for tid in range(self.num_threads):
            self._advance_blp(tid, now)
            bw = sum(self.service_cycles[ch][tid] for ch in range(len(self.service_cycles)))
            accesses = sum(
                self.shadow_accesses[ch][tid]
                for ch in range(len(self.shadow_accesses))
            )
            hits = sum(
                self.shadow_hits[ch][tid] for ch in range(len(self.shadow_hits))
            )
            rbl = hits / accesses if accesses else 0.0
            busy = self._busy_time[tid]
            blp = self._blp_integral[tid] / busy if busy else 0.0
            metrics.append(
                ThreadMetrics(
                    mpki=thread_mpki[tid], bw_usage=bw, blp=blp, rbl=rbl
                )
            )
        return metrics

    def reset_quantum(self) -> None:
        """Clear per-quantum counters (shadow/row state is retained)."""
        for ch in range(len(self.service_cycles)):
            self.service_cycles[ch] = [0] * self.num_threads
            self.shadow_hits[ch] = [0] * self.num_threads
            self.shadow_accesses[ch] = [0] * self.num_threads
        self._blp_integral = [0.0] * self.num_threads
        self._busy_time = [0] * self.num_threads

    # ------------------------------------------------------------------
    # lifetime reporting
    # ------------------------------------------------------------------

    def lifetime_rbl(self, tid: int) -> float:
        """Whole-run shadow row-buffer hit rate for ``tid``."""
        acc = self.lifetime_shadow_accesses[tid]
        return self.lifetime_shadow_hits[tid] / acc if acc else 0.0

    def lifetime_blp(self, tid: int) -> float:
        """Whole-run average bank-level parallelism for ``tid``."""
        busy = self.lifetime_busy_time[tid]
        return self.lifetime_blp_integral[tid] / busy if busy else 0.0
