"""Replaying recorded traces as workload threads.

Replay preserves the trace's *structure* — the compute gaps between
misses and the exact DRAM coordinates — while the memory system's
response is simulated live, so the same trace can be replayed under any
scheduler and any level of contention (this is exactly how the paper
uses its Pin traces).  Traces shorter than the run loop around.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.config import SimConfig
from repro.cpu.thread import ThreadModel
from repro.schedulers.base import Scheduler
from repro.sim import System
from repro.trace.format import TraceEvent, read_trace
from repro.workloads.mixes import Workload, workload_from_specs
from repro.workloads.spec import BenchmarkSpec


class TraceSpec:
    """A parsed trace plus the behavioural statistics derived from it."""

    def __init__(self, events: List[TraceEvent], benchmark: str = "replay"):
        if not events:
            raise ValueError("trace is empty")
        self.events = events
        self.benchmark = benchmark

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "TraceSpec":
        reader_events = read_trace(path)
        name = Path(path).stem
        return cls(reader_events, benchmark=name)

    @property
    def span_cycles(self) -> int:
        return self.events[-1].cycle - self.events[0].cycle

    def mean_gap(self, ipc_peak: float = 3.0) -> float:
        if len(self.events) < 2:
            return 1000.0
        return max(1.0, self.span_cycles / (len(self.events) - 1))

    def to_benchmark_spec(self, config: SimConfig) -> BenchmarkSpec:
        """Summarise the trace as a (MPKI, RBL, BLP) spec.

        Only used for bookkeeping (workload labels, intensity
        classification); replay itself uses the raw events.
        """
        gap = self.mean_gap(config.ipc_peak)
        mpki = max(0.01, 1000.0 / (gap * config.ipc_peak))
        last_row = {}
        hits = 0
        banks = set()
        for event in self.events:
            gbank = event.channel * config.banks_per_channel + event.bank
            banks.add(gbank)
            if last_row.get(gbank) == event.row:
                hits += 1
            last_row[gbank] = event.row
        rbl = min(1.0, hits / len(self.events))
        blp = float(max(1, min(len(banks), config.num_banks)))
        return BenchmarkSpec(
            name=self.benchmark, mpki=min(1000.0, mpki), rbl=rbl, blp=blp
        )


class _ReplayAddressSource:
    """Feeds recorded coordinates, looping when exhausted."""

    def __init__(self, events: List[TraceEvent]):
        self._events = events
        self._index = 0

    def next_location(self) -> Tuple[int, int, int]:
        event = self._events[self._index]
        self._index = (self._index + 1) % len(self._events)
        return event.channel, event.bank, event.row

    def release(self) -> None:
        """Nothing is pre-drawn: the recorded events are the stream."""


class ReplayThread(ThreadModel):
    """A thread whose misses follow a recorded trace.

    Compute gaps are the recorded inter-miss cycle deltas; addresses
    are the recorded coordinates.  Window semantics (in-order retire,
    MSHR bound) are inherited from :class:`ThreadModel`.
    """

    def __init__(
        self,
        thread_id: int,
        trace: TraceSpec,
        config: SimConfig,
        seed: int,
        weight: int = 1,
        stream: Optional[int] = None,
    ):
        spec = trace.to_benchmark_spec(config)
        # Phases come from the trace itself; disable the synthetic ones.
        super().__init__(
            thread_id,
            spec,
            config.with_(phase_mean_cycles=0),
            seed,
            weight=weight,
            stream=stream,
        )
        self.trace = trace
        self._addr = _ReplayAddressSource(trace.events)
        self._gaps = self._compute_gaps(trace.events)
        self._gap_index = 0

    @staticmethod
    def _compute_gaps(events: List[TraceEvent]) -> List[int]:
        gaps = [
            max(1, b.cycle - a.cycle)
            for a, b in zip(events, events[1:])
        ]
        # wrap-around gap when the trace loops: reuse the mean gap
        mean = max(1, int(sum(gaps) / len(gaps))) if gaps else 1000
        return (gaps or [1000]) + [mean]

    def issue_gap(self) -> int:
        gap = self._gaps[self._gap_index]
        self._gap_index = (self._gap_index + 1) % len(self._gaps)
        self._pending_credit = gap * self.config.ipc_peak
        self.program_time += gap
        return gap


def replay_workload(
    traces: Sequence[Union[TraceSpec, str, Path]],
    scheduler: Scheduler,
    config: Optional[SimConfig] = None,
    seed: int = 0,
    name: str = "replay",
) -> System:
    """Build a System whose threads replay the given traces.

    Returns the (not yet run) system; call ``.run()`` on it.
    """
    config = config or SimConfig()
    specs: List[TraceSpec] = [
        t if isinstance(t, TraceSpec) else TraceSpec.from_file(t)
        for t in traces
    ]
    workload = workload_from_specs(
        name, tuple(s.to_benchmark_spec(config) for s in specs)
    )
    system = System(workload, scheduler, config, seed=seed)
    system.threads = [
        ReplayThread(tid, trace, config, seed, stream=tid)
        for tid, trace in enumerate(specs)
    ]
    return system
