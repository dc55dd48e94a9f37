"""Layer timers installed from outside the program.

Every timer is a wrapper put on a *class* (or, for the runner's
free functions, on the module), never on an instance.  The engine picks
its loop by looking for per-instance overrides
(``repro.engine.fast.bare_eligible``), so class-level wrappers leave
that choice exactly as in an untimed run: the split is taken on the
loop that really runs.

Timers keep a stack of open frames.  A frame's inclusive time is its
``perf_counter`` interval; its self time is that minus the inclusive
time of the timed frames nested in it.  A layer's ``*_self_s`` is the
sum of its frames' self times.  Coarse spans (campaign, runner calls,
``System.run``) are also kept in memory with their parent, and written
out as JSONL when the benchmark ends; per-event calls are only summed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer of every timed metric name (the prefix before the first dot).
LAYERS = ("campaign", "runner", "sim", "cpu", "dram", "sched", "monitor",
          "telemetry")

#: Layers each non-reference loop runs inline, so no wrapper can see
#: them there.  Their metrics are reported as not attributable.
INLINED_BY_LOOP = {
    "fast-bare": ("cpu", "dram", "monitor"),
    # the observed fast loop runs the CPU model as repro.engine.cpu
    # batch views, which carry no timers
    "fast-observed": ("cpu",),
}

_SCHED_HOOKS = ("on_request_arrival", "on_request_scheduled",
                "on_request_complete", "on_timer")
_MONITOR_HOOKS = ("on_request_arrival", "on_request_service",
                  "on_request_complete")

#: Metrics whose every call is kept as a span; the per-event ones are
#: only summed, which keeps a traced run's memory flat.
SPANNED = frozenset((
    "campaign.plan", "campaign.execute", "campaign.store_put",
    "runner.alone", "runner.shared", "runner.score", "sim.run",
))


class Patches:
    """Attributes replaced on classes or modules, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def put(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class LayerClock:
    """Counts, inclusive and self time per timed metric, plus coarse spans."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_: Dict[str, float] = defaultdict(float)
        #: extra deterministic counts (candidates scanned, full windows...)
        self.counts: Dict[str, int] = defaultdict(int)
        #: open frames: [metric, child time, id of the nearest kept span]
        self.stack: List[list] = []
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self._patches = Patches()

    # -- frames ---------------------------------------------------------

    def span(self, metric: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside one timed frame of ``metric``."""
        stack = self.stack
        if stack and stack[-1][0] == metric:
            # a subclass method calling super(): one call, one frame
            return fn(*args, **kwargs)
        parent = stack[-1][2] if stack else None
        kept = metric in SPANNED
        if kept:
            span_id = len(self.spans)
            self.spans.append(None)  # placeholder keeps ids in call order
        else:
            span_id = parent
        frame = [metric, 0.0, span_id]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            dt = t1 - t0
            stack.pop()
            self.calls[metric] += 1
            self.incl[metric] += dt
            self.self_[metric] += dt - frame[1]
            if stack:
                stack[-1][1] += dt
            if kept:
                self.spans[span_id] = (span_id, parent, metric, t0, t1)

    # -- installing wrappers -------------------------------------------

    def _timed(self, owner, name: str, metric: str) -> None:
        fn = owner.__dict__[name]
        span = self.span

        def timed(*args, **kwargs):
            return span(metric, fn, *args, **kwargs)

        self._patches.put(owner, name, timed)

    def _counted(self, owner, name: str, metric: str) -> None:
        fn = owner.__dict__[name]
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        self._patches.put(owner, name, counted)

    def install(self) -> "LayerClock":
        """Wrap every layer's public entry points; undo with :meth:`remove`."""
        from repro.campaign.store import CampaignStore
        from repro.core.meta import MetaController
        from repro.core.monitor import BehaviorMonitor
        from repro.cpu.thread import ThreadModel
        from repro.dram.channel import Channel
        from repro.dram.request import MemoryRequest
        from repro.experiments import runner
        from repro.schedulers.base import Scheduler
        from repro.sim.system import System
        from repro.telemetry.sampler import EpochSampler
        from repro.telemetry.tracer import Tracer
        from repro.workloads.synthetic import AddressStream

        self._timed(CampaignStore, "put", "campaign.store_put")
        self._install_runner(runner)
        self._timed(System, "run", "sim.run")
        self._install_cpu(ThreadModel)
        self._counted(AddressStream, "next_location", "cpu.next_location")
        self._timed(Channel, "enqueue", "dram.enqueue")
        self._timed(Channel, "start_service", "dram.start_service")
        self._counted(MemoryRequest, "__eq__", "dram.request_eq")
        for cls in _subclasses(Scheduler):
            self._install_scheduler(cls)
        for name in _MONITOR_HOOKS:
            self._timed(BehaviorMonitor, name, "monitor.hook")
        self._timed(MetaController, "end_quantum", "monitor.end_quantum")
        self._timed(Tracer, "emit", "telemetry.emit")
        self._timed(EpochSampler, "sample", "telemetry.sample")
        return self

    def remove(self) -> None:
        self._patches.undo()

    def __enter__(self) -> "LayerClock":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def _install_runner(self, runner) -> None:
        span, counts = self.span, self.counts
        alone_ipc = runner.__dict__["alone_ipc"]
        runs = self.calls

        def timed_alone_ipc(*args, **kwargs):
            before = runs["sim.run"]
            try:
                return span("runner.alone", alone_ipc, *args, **kwargs)
            finally:
                if runs["sim.run"] != before:
                    counts["runner.alone_runs"] += 1

        self._patches.put(runner, "alone_ipc", timed_alone_ipc)
        self._timed(runner, "run_shared", "runner.shared")
        self._timed(runner, "score_run", "runner.score")

    def _install_cpu(self, ThreadModel) -> None:
        span, counts = self.span, self.counts
        try_issue = ThreadModel.__dict__["try_issue"]

        def timed_try_issue(*args):
            location = span("cpu.try_issue", try_issue, *args)
            if location is None:
                counts["cpu.window_full"] += 1
            return location

        self._patches.put(ThreadModel, "try_issue", timed_try_issue)
        self._timed(ThreadModel, "issue_gap", "cpu.issue_gap")
        self._timed(ThreadModel, "on_request_completed", "cpu.retire")

    def _install_scheduler(self, cls) -> None:
        span, counts, stack = self.span, self.counts, self.stack
        own = cls.__dict__
        if "select" in own:
            select = own["select"]

            def timed_select(sched, channel, bank_id, now):
                if not (stack and stack[-1][0] == "sched.select"):
                    # not a subclass's super().select(): a new selection
                    counts["sched.candidates"] += len(
                        channel.queues[bank_id])
                return span("sched.select", select, sched, channel, bank_id,
                            now)

            self._patches.put(cls, "select", timed_select)
        if "priority" in own:
            self._timed(cls, "priority", "sched.priority")
        for name in _SCHED_HOOKS:
            if name in own:
                self._timed(cls, name, "sched.hook")
        if "on_quantum" in own:
            self._timed(cls, "on_quantum", "sched.on_quantum")

    # -- output ---------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_.items() if k.startswith(prefix))

    def write_spans(self, fh, op: int) -> None:
        """Write the kept spans as JSONL, times relative to the first."""
        spans = [s for s in self.spans if s is not None]
        origin = spans[0][3] if spans else 0.0
        for span_id, parent, name, t0, t1 in spans:
            fh.write(json.dumps({
                "op": op, "id": span_id, "parent": parent, "name": name,
                "start_s": t0 - origin, "end_s": t1 - origin,
            }) + "\n")


def _subclasses(cls) -> List[type]:
    """``cls`` and every subclass currently imported, each once."""
    from repro.core.tcm import TCMScheduler  # noqa: F401 (registers it)
    import repro.schedulers.registry  # noqa: F401

    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


def layer_metrics(clock: LayerClock, systems: List[dict], points: int,
                  loops: List[str]) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one timed operation.

    ``systems`` are the per-``System`` records of the operation (see
    ``workloads.SystemLog``), ``points`` its campaign-point count.  A
    layer a loop inlines maps every metric to None.
    """
    calls, incl, counts = clock.calls, clock.incl, clock.counts

    def ratio(num, den):
        return num / den if den else 0.0

    dram_total = sum(s["row_total"] for s in systems)
    out: Dict[str, Optional[float]] = {
        "campaign.plan_s": incl["campaign.plan"],
        "campaign.self_s_per_point": ratio(clock.layer_self("campaign"),
                                           points),
        "campaign.store_put_calls": calls["campaign.store_put"],
        "campaign.store_put_s": incl["campaign.store_put"],
        "runner.alone_calls": calls["runner.alone"],
        "runner.alone_runs": counts["runner.alone_runs"],
        "runner.alone_hit_ratio": ratio(
            calls["runner.alone"] - counts["runner.alone_runs"],
            calls["runner.alone"]),
        "runner.alone_s": incl["runner.alone"],
        "runner.shared_s": incl["runner.shared"],
        "sim.run_s": incl["sim.run"],
        "sim.events": sum(s["events"] for s in systems),
        "sim.decisions": sum(s["decisions"] for s in systems),
        "sim.quanta": sum(s["quanta"] for s in systems),
        "cpu.try_issue_calls": calls["cpu.try_issue"],
        "cpu.try_issue_s": incl["cpu.try_issue"],
        "cpu.window_full_ratio": ratio(counts["cpu.window_full"],
                                       calls["cpu.try_issue"]),
        "cpu.issue_gap_s": incl["cpu.issue_gap"],
        "cpu.retire_s": incl["cpu.retire"],
        "cpu.next_location_calls": counts["cpu.next_location"],
        "dram.enqueue_s": incl["dram.enqueue"],
        "dram.start_service_calls": calls["dram.start_service"],
        "dram.start_service_s": incl["dram.start_service"],
        "dram.row_hit_ratio": ratio(sum(s["row_hits"] for s in systems),
                                    dram_total),
        "dram.request_eq_calls": counts["dram.request_eq"],
        "sched.select_calls": calls["sched.select"],
        "sched.select_s": incl["sched.select"],
        "sched.candidates_per_select": ratio(counts["sched.candidates"],
                                             calls["sched.select"]),
        "sched.priority_calls": calls["sched.priority"],
        "sched.hooks_s": incl["sched.hook"],
        "sched.on_quantum_s": incl["sched.on_quantum"],
        "monitor.hook_calls": calls["monitor.hook"],
        "monitor.hooks_s": incl["monitor.hook"],
        "monitor.end_quantum_s": incl["monitor.end_quantum"],
        "telemetry.emit_calls": calls["telemetry.emit"],
        "telemetry.emit_s": incl["telemetry.emit"],
        "telemetry.sample_s": incl["telemetry.sample"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = clock.layer_self(layer)
    for loop in set(loops):
        for layer in INLINED_BY_LOOP.get(loop, ()):
            for name in out:
                if name.startswith(layer + "."):
                    out[name] = None
    return out
