"""Tracer sinks: JSONL, in-memory, and Chrome/Perfetto trace_event.

The JSONL stream (one event object per line, schema in
:mod:`repro.telemetry.schema`) is the canonical format; the Perfetto
sink — and the :func:`jsonl_to_perfetto` converter — render the same
events into the Chrome ``trace_event`` JSON that https://ui.perfetto.dev
and ``chrome://tracing`` open directly:

* each DRAM bank is a thread-track of the "DRAM" process: ``dram_cmd``
  events become duration slices named by their row-buffer outcome;
* scheduler decisions are thread-scoped instants on the same tracks;
* policy events (clustering, shuffles, rankings, batches) land on a
  "policy" process;
* epoch samples become per-thread counter tracks (MPKI / BLP / RBL),
  which Perfetto plots as time series.

Simulation cycles are written as microseconds (1 cycle = 1us) since
trace_event timestamps are always in microseconds.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional


def _open_creating_dirs(path, mode: str = "w"):
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, mode, encoding="utf-8")

#: trace_event pids for the synthetic processes.
_PID_DRAM = 1
_PID_POLICY = 2
_PID_THREADS = 3
_PID_SERVE = 4


class Sink:
    """Base class: receives schema'd event dicts from the tracer."""

    def write(self, event: dict) -> None:
        raise NotImplementedError

    def write_grant(self, ts: int, ch: int, bank: int, tid: int,
                    queued: int, kind: str, row: int, end: int) -> None:
        """Receive one read grant (see :meth:`Tracer.emit_grant`).

        The default writes the two event dicts :meth:`Tracer.emit`
        would build, so a sink that only implements :meth:`write` sees
        no difference.
        """
        self.write({"ev": "sched_decision", "ts": ts, "ch": ch,
                    "bank": bank, "tid": tid, "queued": queued,
                    "row_hit": kind == "hit"})
        self.write({"ev": "dram_cmd", "ts": ts, "ch": ch, "bank": bank,
                    "row": row, "tid": tid, "kind": kind, "start": ts,
                    "end": end})

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class MemorySink(Sink):
    """Collect events into a list (tests, report rendering)."""

    def __init__(self) -> None:
        self.events: List[dict] = []

    def write(self, event: dict) -> None:
        self.events.append(event)


#: ``json.dumps(obj, separators=(",", ":"))`` without building a new
#: encoder on every call.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode

#: One read grant's two lines, byte-identical to ``_compact_json`` of
#: the dicts :meth:`Sink.write_grant` builds.  Valid because every
#: number at the grant site is a plain ``int`` (``%d`` renders it as
#: JSON does) and ``kind`` is ``hit``/``closed``/``conflict``, which
#: needs no escaping; the bool is passed as ``true``/``false``.
_GRANT_LINES = (
    '{"ev":"sched_decision","ts":%d,"ch":%d,"bank":%d,"tid":%d,'
    '"queued":%d,"row_hit":%s}\n'
    '{"ev":"dram_cmd","ts":%d,"ch":%d,"bank":%d,"row":%d,"tid":%d,'
    '"kind":"%s","start":%d,"end":%d}\n'
)


class JsonlSink(Sink):
    """Append events to a JSONL file, one compact object per line."""

    def __init__(self, path) -> None:
        self.path = path
        self._file = _open_creating_dirs(path)

    def write(self, event: dict) -> None:
        self._file.write(_compact_json(event) + "\n")

    def write_grant(self, ts: int, ch: int, bank: int, tid: int,
                    queued: int, kind: str, row: int, end: int) -> None:
        self._file.write(_GRANT_LINES % (
            ts, ch, bank, tid, queued,
            "true" if kind == "hit" else "false",
            ts, ch, bank, row, tid, kind, ts, end,
        ))

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class PerfettoSink(Sink):
    """Buffer events and write a Perfetto-loadable JSON file on close."""

    def __init__(self, path) -> None:
        self.path = path
        self._events: List[dict] = []

    def write(self, event: dict) -> None:
        self._events.append(event)

    def close(self) -> None:
        if self._events is None:
            return
        with _open_creating_dirs(self.path) as f:
            json.dump(events_to_perfetto(self._events), f)
        self._events = None


# ----------------------------------------------------------------------
# trace_event conversion
# ----------------------------------------------------------------------


def _meta(pid: int, name: str, tid: Optional[int] = None,
          thread_name: Optional[str] = None) -> List[dict]:
    out = [{"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": name}}]
    if tid is not None:
        out = [{"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                "args": {"name": thread_name}}]
    return out


def events_to_perfetto(events: Iterable[dict],
                       banks_per_channel: Optional[int] = None) -> dict:
    """Convert schema'd events to a Chrome trace_event JSON object."""
    trace: List[dict] = []
    bank_tracks: Dict[tuple, int] = {}
    thread_tracks: set = set()
    if banks_per_channel is None:
        banks_per_channel = 64  # track ids only need to be distinct

    def bank_tid(ch: int, bank: int) -> int:
        key = (ch, bank)
        if key not in bank_tracks:
            tid = ch * banks_per_channel + bank
            bank_tracks[key] = tid
            trace.extend(_meta(_PID_DRAM, "", tid=tid,
                               thread_name=f"ch{ch} bank{bank}"))
        return bank_tracks[key]

    def thread_tid(tid: int) -> int:
        if tid not in thread_tracks:
            thread_tracks.add(tid)
            trace.extend(_meta(_PID_THREADS, "", tid=tid,
                               thread_name=f"thread {tid}"))
        return tid

    trace.extend(_meta(_PID_DRAM, "DRAM"))
    trace.extend(_meta(_PID_POLICY, "policy"))
    trace.extend(_meta(_PID_THREADS, "threads"))
    serve_meta_done = False
    shard_tracks: set = set()
    # running explain counters: cumulative disagreements per shadow
    disagreements: Dict[str, int] = {}

    def serve_pid() -> int:
        nonlocal serve_meta_done
        if not serve_meta_done:
            serve_meta_done = True
            trace.extend(_meta(_PID_SERVE, "serve"))
        return _PID_SERVE

    def shard_tid(shard: int) -> int:
        # tid 0 holds the async job tracks; shard slices start at 1
        tid = shard + 1
        if tid not in shard_tracks:
            shard_tracks.add(tid)
            trace.extend(_meta(_PID_SERVE, "", tid=tid,
                               thread_name=f"shard {shard}"))
        return tid

    for event in events:
        ev, ts = event["ev"], event["ts"]
        if ev == "dram_cmd":
            trace.append({
                "ph": "X", "pid": _PID_DRAM,
                "tid": bank_tid(event["ch"], event["bank"]),
                "ts": event["start"],
                "dur": max(1, event["end"] - event["start"]),
                "name": event["kind"],
                "args": {"thread": event["tid"], "row": event["row"],
                         "write": event.get("write", False)},
            })
        elif ev == "sched_decision":
            trace.append({
                "ph": "i", "s": "t", "pid": _PID_DRAM,
                "tid": bank_tid(event["ch"], event["bank"]),
                "ts": ts, "name": f"pick t{event['tid']}",
                "args": {"queued": event["queued"],
                         "row_hit": event["row_hit"]},
            })
        elif ev == "cluster":
            for tid in event["latency"]:
                trace.append({
                    "ph": "C", "pid": _PID_THREADS, "tid": 0, "ts": ts,
                    "name": f"cluster t{tid}", "args": {"latency": 1},
                })
            for tid in event["bandwidth"]:
                trace.append({
                    "ph": "C", "pid": _PID_THREADS, "tid": 0, "ts": ts,
                    "name": f"cluster t{tid}", "args": {"latency": 0},
                })
            trace.append({
                "ph": "i", "s": "p", "pid": _PID_POLICY, "tid": 0,
                "ts": ts, "name": "cluster",
                "args": {"latency": event["latency"],
                         "bandwidth": event["bandwidth"]},
            })
        elif ev == "epoch":
            for row in event["threads"]:
                tid = thread_tid(row["tid"])
                for metric in ("mpki", "blp", "rbl"):
                    if metric in row:
                        trace.append({
                            "ph": "C", "pid": _PID_THREADS, "tid": tid,
                            "ts": ts, "name": f"{metric} t{row['tid']}",
                            "args": {metric: row[metric]},
                        })
        elif ev == "explain":
            # disagreement instants on the granting bank's track, plus
            # cumulative per-shadow disagreement counters on the policy
            # process (Perfetto plots them as staircase time series)
            if event["disagree"]:
                trace.append({
                    "ph": "i", "s": "t", "pid": _PID_DRAM,
                    "tid": bank_tid(event["ch"], event["bank"]),
                    "ts": ts, "name": "disagree",
                    "args": {"thread": event["tid"],
                             "shadows": event["disagree"],
                             "component": event["component"]},
                })
            for label in event["disagree"]:
                disagreements[label] = disagreements.get(label, 0) + 1
                trace.append({
                    "ph": "C", "pid": _PID_POLICY, "tid": 0, "ts": ts,
                    "name": f"disagreements {label}",
                    "args": {"count": disagreements[label]},
                })
        elif ev == "starvation":
            trace.append({
                "ph": "i", "s": "p", "pid": _PID_POLICY, "tid": 0,
                "ts": ts, "name": f"starvation t{event['tid']}",
                "args": {"tid": event["tid"], "age": event["age"],
                         "pending": event["pending"]},
            })
        elif ev in ("quantum", "shuffle", "rank", "batch", "stfm_eval",
                    "run_begin", "run_end"):
            args = {k: v for k, v in event.items() if k not in ("ev", "ts")}
            trace.append({
                "ph": "i", "s": "p", "pid": _PID_POLICY, "tid": 0,
                "ts": ts, "name": ev, "args": args,
            })
        elif ev == "job_span":
            # serve-layer job stage spans: async b/e pairs keyed by the
            # job's content hash (async tracks tolerate the overlap of
            # concurrent jobs); execute spans additionally land as
            # duration slices on per-shard thread tracks, which never
            # overlap (a shard runs one task at a time)
            pid = serve_pid()
            stage = event["stage"]
            key = event["key"]
            dur = max(0.0, event.get("dur", 0.0))
            args = {"lane": event.get("lane"),
                    "status": event.get("status")}
            if stage == "job":
                args["hits"] = event.get("hits", 0)
                args["attempts"] = event.get("attempts", 0)
                name = f"job {key[:10]}"
            else:
                name = stage
            trace.append({"ph": "b", "cat": "job", "id": key, "pid": pid,
                          "tid": 0, "ts": ts, "name": name, "args": args})
            trace.append({"ph": "e", "cat": "job", "id": key, "pid": pid,
                          "tid": 0, "ts": ts + dur, "name": name})
            if stage == "execute" and event.get("shard") is not None:
                trace.append({
                    "ph": "X", "pid": pid,
                    "tid": shard_tid(event["shard"]),
                    "ts": ts, "dur": max(1.0, dur),
                    "name": f"execute {key[:10]}",
                    "args": args,
                })
        elif ev == "serve_sample":
            pid = serve_pid()
            for lane, depth in sorted(event.get("depths", {}).items()):
                trace.append({
                    "ph": "C", "pid": pid, "tid": 0, "ts": ts,
                    "name": f"queue {lane}", "args": {"depth": depth},
                })
            trace.append({
                "ph": "C", "pid": pid, "tid": 0, "ts": ts,
                "name": "shards busy",
                "args": {"busy": event.get("shards_busy", 0)},
            })
            trace.append({
                "ph": "C", "pid": pid, "tid": 0, "ts": ts,
                "name": "burn rate",
                "args": {"fast": event.get("burn_fast", 0.0)},
            })
        # unknown events are dropped from the visual trace on purpose:
        # the JSONL stream remains the lossless record

    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def rebase_trace_events(doc: dict, ts_scale: float = 1.0,
                        ts_offset: float = 0.0, pid_base: int = 0,
                        process_prefix: str = "") -> dict:
    """Rebase a converted trace document in place (and return it).

    Timestamps map as ``ts * ts_scale + ts_offset`` (durations scale
    only) and every pid shifts by ``pid_base`` — which is how a
    per-point simulation trace is nested into the service-side
    ``execute`` window of the job that ran it, with a unique pid block
    per job so bank/thread tracks never collide.  ``process_prefix``
    labels the relocated processes in the Perfetto UI.
    """
    for entry in doc["traceEvents"]:
        entry["pid"] = entry.get("pid", 0) + pid_base
        if "ts" in entry:
            entry["ts"] = entry["ts"] * ts_scale + ts_offset
        if "dur" in entry:
            entry["dur"] = max(entry["dur"] * ts_scale, 0.001)
        if (process_prefix and entry.get("ph") == "M"
                and entry.get("name") == "process_name"):
            entry["args"]["name"] = (
                f"{process_prefix}{entry['args'].get('name', '')}")
    return doc


def jsonl_to_perfetto(src_path, dst_path) -> int:
    """Convert a JSONL trace file to Perfetto JSON; returns event count."""
    events = []
    with open(src_path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    with _open_creating_dirs(dst_path) as f:
        json.dump(events_to_perfetto(events), f)
    return len(events)
