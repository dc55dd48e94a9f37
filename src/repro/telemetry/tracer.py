"""Event tracer: fan events out to pluggable sinks.

The tracer is designed so a *disabled* tracer costs exactly one branch
at each emit site: the system binds ``self._tracer`` to ``None`` when
tracing is off and the hot path does ``if tr is not None: tr.emit(...)``.
An *enabled* tracer hands every event to each sink.  A read grant, the
bulk of a traced run, is one positional :meth:`Tracer.emit_grant` call
that reaches each sink's :meth:`~repro.telemetry.sinks.Sink.write_grant`
without building a dict (``JsonlSink`` formats both lines from one
template); every other event is one dict built by :meth:`Tracer.emit`.
Events are validated against the schema only when ``validate=True``
(tests and CI), not on the production path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.telemetry.schema import validate_event
from repro.telemetry.sinks import MemorySink, Sink


class Tracer:
    """Fan-out of schema'd events to sinks, with an emit counter."""

    def __init__(self, sinks: Optional[Sequence[Sink]] = None,
                 validate: bool = False) -> None:
        self.sinks: List[Sink] = list(sinks or [])
        self.validate = validate
        self.events_emitted = 0

    @property
    def enabled(self) -> bool:
        return bool(self.sinks)

    def add_sink(self, sink: Sink) -> Sink:
        self.sinks.append(sink)
        return sink

    def emit(self, ev: str, ts: int, **fields) -> None:
        """Record one event at simulation cycle ``ts``."""
        event = {"ev": ev, "ts": ts}
        event.update(fields)
        if self.validate:
            validate_event(event)
        self.events_emitted += 1
        for sink in self.sinks:
            sink.write(event)

    def emit_grant(self, ts: int, ch: int, bank: int, tid: int,
                   queued: int, kind: str, row: int, end: int) -> None:
        """Record one read grant: a ``sched_decision`` and its ``dram_cmd``.

        Equivalent to ``emit("sched_decision", ...)`` followed by
        ``emit("dram_cmd", ...)``, with ``row_hit = kind == "hit"`` and
        ``start = ts``; sinks receive it through ``Sink.write_grant``.
        """
        if self.validate:
            self.emit("sched_decision", ts, ch=ch, bank=bank, tid=tid,
                      queued=queued, row_hit=kind == "hit")
            self.emit("dram_cmd", ts, ch=ch, bank=bank, row=row, tid=tid,
                      kind=kind, start=ts, end=end)
            return
        self.events_emitted += 2
        for sink in self.sinks:
            sink.write_grant(ts, ch, bank, tid, queued, kind, row, end)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def memory_tracer(validate: bool = True) -> "Tracer":
    """A tracer with one in-memory sink (convenient in tests)."""
    return Tracer([MemorySink()], validate=validate)
