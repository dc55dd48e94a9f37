"""The benchmark's workloads: inputs made from a seed, one operation each.

Every workload is a closed batch.  ``op()`` runs it once through the
library's public entry points with library defaults (one process,
``workers=1``, ``REPRO_BACKEND`` unset) and returns what it cost and
what it produced.  Passing a :class:`layers.LayerClock` runs the same
operation with the layer timers installed.

Sizes are fixed here so that every seed does the same amount of work at
the same size; the seed picks the inputs.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.campaign import execute_plan, preset_plan
from repro.campaign.hashing import alone_key, stable_hash
from repro.campaign.plan import config_from_dict, config_to_dict
from repro.campaign.store import KIND_ALONE, CampaignStore
from repro.config import SimConfig
from repro.experiments import runner
from repro.sim.system import System
from repro.telemetry import Telemetry
from repro.workloads.mixes import MEMORY_INTENSIVE, Workload

from layers import Patches
from speed import CpuClock

#: fig4-cold: one workload per intensity class (50/75/100%) under the
#: five evaluated schedulers, 6 quanta each.
FIG4_PER_CATEGORY = 1
FIG4_CYCLES = 300_000
#: tcm-heavy / tcm-traced: 24 quanta of one 24-thread all-intensive mix.
HEAVY_CYCLES = 1_200_000
HEAVY_THREADS = 24

#: The paper's Figure 4 numbers for TCM against ATLAS.
PAPER_WS_VS_ATLAS_PCT = 4.6
PAPER_MS_CUT_VS_ATLAS_PCT = 38.6

#: Observer slots of ``System`` and the name each is reported under.
_OBSERVER_SLOTS = (
    ("_tracer", "tracer"), ("_sampler", "sampler"), ("_spans", "spans"),
    ("_prof", "profiler"), ("_probe", "probe"), ("_explain", "explain"),
    ("trace_recorder", "trace_recorder"),
)


def loop_of(system) -> str:
    """Name of the event loop ``system`` runs (same rule as the engine)."""
    if system.backend != "fast":
        return "reference-heap"
    from repro.engine.fast import bare_eligible

    return "fast-bare" if bare_eligible(system) else "fast-observed"


def config_key(config: SimConfig) -> str:
    return hashlib.sha256(repr(config.cache_key()).encode()).hexdigest()[:16]


class SystemLog:
    """Records every finished ``System``: provenance and work counters.

    A class-level wrapper on ``System.finish_run``, called once per run,
    so it leaves the loop choice and the per-event path untouched.
    """

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._patches = Patches()

    def __enter__(self) -> "SystemLog":
        original = System.__dict__["finish_run"]
        records = self.records

        def finish_run(system, horizon):
            result = original(system, horizon)
            records.append(describe_system(system))
            return result

        self._patches.put(System, "finish_run", finish_run)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()


def describe_system(system) -> dict:
    """Provenance and deterministic counters of one finished run."""
    pending = (len(system._wheel) if system._wheel is not None
               else len(system._events))
    banks = [b for ch in system.channels for b in ch.banks]
    hits = sum(b.row_hits for b in banks)
    return {
        "backend": system.backend,
        "requested_backend": system.config.backend,
        "loop": loop_of(system),
        "observers": [label for slot, label in _OBSERVER_SLOTS
                      if getattr(system, slot) is not None],
        "scheduler": system.scheduler.name,
        "seed": system.seed,
        "config_key": config_key(system.config),
        "events": system._seq - pending,
        "decisions": system.sched_decisions,
        "quanta": system.quantum_count,
        "requests": sum(ch.serviced_requests for ch in system.channels),
        "row_hits": hits,
        "row_total": hits + sum(b.row_conflicts + b.row_closed
                                for b in banks),
    }


COUNTERS = ("events", "decisions", "quanta", "requests", "row_hits")


def counters(systems: List[dict]) -> Dict[str, int]:
    return {k: sum(s[k] for s in systems) for k in COUNTERS}


@dataclass
class Op:
    """One operation: its CPU time, its checks and its outputs."""

    #: CPU seconds at the reference speed, and as measured
    cpu_s: float
    raw_cpu_s: float
    attempted: int
    failed: int
    #: output compared between operations of one invocation
    outcome: object
    systems: List[dict]
    points: int = 0
    trace_mb: float = 0.0
    report: object = None
    problems: List[str] = field(default_factory=list)


def _in_range(ws: float, ms: float, hs: float, threads: int) -> bool:
    values = (ws, ms, hs)
    return (all(math.isfinite(v) and v > 0 for v in values)
            and ws <= 1.1 * threads and hs <= 1.1 and ms >= 1 / 1.1)


class Fig4Cold:
    """The ``fig4`` preset campaign into an empty store, alone cache cleared."""

    name = "fig4-cold"
    observed = False

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.config = SimConfig(run_cycles=FIG4_CYCLES)
        self.plan = self._plan()
        self.alone_keys = {
            alone_key(spec, p.config, p.seed)
            for p in self.plan for spec in p.workload.specs
        }

    def _plan(self):
        return preset_plan("fig4", per_category=FIG4_PER_CATEGORY,
                           config=self.config, base_seed=self.seed)

    @property
    def key(self) -> str:
        return stable_hash(self.plan.keys)

    def op(self, clock=None) -> Op:
        runner.clear_alone_cache()
        store = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        try:
            with SystemLog() as log:
                if clock is None:
                    plan = self.plan
                    with CpuClock() as cpu:
                        report = execute_plan(plan, store=store, workers=1)
                else:
                    plan = clock.span("campaign.plan", self._plan)
                    with CpuClock() as cpu:
                        report = clock.span("campaign.execute", execute_plan,
                                            plan, store=store, workers=1)
            with CampaignStore(store) as opened:
                stored = set(opened.keys(KIND_ALONE))
        finally:
            shutil.rmtree(store, ignore_errors=True)
        problems = []
        bad_points = 0
        for r in report.results:
            if not r.ok:
                bad_points += 1
                problems.append(f"{r.key}: {r.error}")
            elif not _in_range(r.weighted_speedup, r.maximum_slowdown,
                               r.harmonic_speedup,
                               r.point.workload.num_threads):
                bad_points += 1
                problems.append(f"{r.key}: WS/MS/HS out of range")
        missing = len(self.alone_keys - stored)
        if missing:
            problems.append(f"{missing} alone runs missing from the store")
        return Op(
            cpu_s=cpu.cpu_s,
            raw_cpu_s=cpu.raw_s,
            attempted=len(plan) + len(self.alone_keys),
            failed=bad_points + missing,
            outcome=[(r.key, r.status, r.payload) for r in report.results],
            systems=log.records,
            points=len(plan),
            report=report,
            problems=problems,
        )

    def fidelity(self, op: Op) -> Dict[str, Optional[float]]:
        """TCM against ATLAS over the campaign's workloads (suite means)."""
        def mean(scheduler: str, metric: str) -> float:
            values = [getattr(r, metric) for r in op.report.results
                      if r.ok and r.point.scheduler == scheduler]
            return sum(values) / len(values)

        ws, ms = "weighted_speedup", "maximum_slowdown"
        if any(not r.ok for r in op.report.results):
            # the check has already failed the run; compare no partial suite
            return {"tcm_ws_vs_atlas_pct": None,
                    "tcm_ms_cut_vs_atlas_pct": None}
        return {
            "tcm_ws_vs_atlas_pct":
                100 * (mean("tcm", ws) / mean("atlas", ws) - 1),
            "tcm_ms_cut_vs_atlas_pct":
                100 * (1 - mean("tcm", ms) / mean("atlas", ms)),
        }


def heavy_mix(seed: int) -> Workload:
    """A 24-thread mix of memory-intensive benchmarks only.

    Every intensive benchmark runs once and the seed picks which ten run
    twice, and the order.  Drawing with replacement instead (as
    ``make_intensity_workload`` does) changes the amount of memory
    traffic by about 12% from seed to seed, which would swamp the bound
    this benchmark places on CPU time.
    """
    names = list(MEMORY_INTENSIVE)
    order = np.random.default_rng((seed, 0x4EA7)).permutation(len(names))
    picked = [names[i] for i in order]
    picked = (picked * 2)[:HEAVY_THREADS]
    return Workload(name=f"heavy-100pct-s{seed}",
                    benchmark_names=tuple(picked))


class TcmHeavy:
    """One long TCM run of the heavy mix, no observers, no campaign."""

    name = "tcm-heavy"
    observed = False

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.config = SimConfig(run_cycles=HEAVY_CYCLES)
        self.workload = heavy_mix(seed)

    @property
    def key(self) -> str:
        return config_key(self.config)

    def _telemetry(self, path: str):
        return None

    def op(self, clock=None) -> Op:
        trace = os.path.join(self.scratch, f"trace-{self.seed}.jsonl")
        telemetry = self._telemetry(trace)
        try:
            with SystemLog() as log, CpuClock() as cpu:
                result = runner.run_shared(self.workload, "tcm", self.config,
                                           seed=self.seed,
                                           telemetry=telemetry)
                if telemetry is not None:
                    telemetry.close()
            trace_mb = (os.path.getsize(trace) / 1e6
                        if telemetry is not None else 0.0)
        finally:
            if telemetry is not None:
                telemetry.close()  # idempotent; covers an interrupted run
                os.remove(trace)
        problems = []
        expected_quanta = self.config.run_cycles // self.config.quantum_cycles
        if (result.total_requests <= 0
                or result.quantum_count != expected_quanta
                or not all(math.isfinite(t.ipc) and t.ipc > 0
                           for t in result.threads)):
            problems.append("implausible RunResult")
        return Op(cpu_s=cpu.cpu_s, raw_cpu_s=cpu.raw_s, attempted=1,
                  failed=len(problems),
                  outcome=result, systems=log.records, trace_mb=trace_mb,
                  problems=problems)


class TcmTraced(TcmHeavy):
    """``tcm-heavy`` with the observers a traced campaign point attaches."""

    name = "tcm-traced"
    observed = True

    def _telemetry(self, path: str):
        # what repro.campaign.engine builds for a point run with trace_dir
        return Telemetry.tracing(jsonl_path=path)


WORKLOADS = {w.name: w for w in (Fig4Cold, TcmHeavy, TcmTraced)}


def backend_survives_plan_json() -> bool:
    """Whether a plan written to JSON and read back keeps its backend."""
    config = SimConfig(backend="fast")
    return config_from_dict(config_to_dict(config)).backend == "fast"
