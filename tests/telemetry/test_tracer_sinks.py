"""Tracer, schema validation and sink round-trips."""

import json

import pytest

from repro.telemetry import (
    JsonlSink,
    MemorySink,
    PerfettoSink,
    SchemaError,
    Sink,
    Tracer,
    events_to_perfetto,
    jsonl_to_perfetto,
    memory_tracer,
    validate_jsonl,
)

EVENTS = [
    ("run_begin", 0, dict(workload="w", scheduler="TCM", seed=0, threads=2)),
    ("sched_decision", 10, dict(ch=0, bank=1, tid=0, queued=2, row_hit=True)),
    ("dram_cmd", 10, dict(ch=0, bank=1, row=7, tid=0, kind="hit",
                          start=10, end=14)),
    ("cluster", 50, dict(quantum=0, latency=[1], bandwidth=[0])),
    ("shuffle", 60, dict(algo="random", order=[0])),
    ("run_end", 100, dict(requests=1, row_hits=1)),
]


def emit_all(tracer):
    for ev, ts, fields in EVENTS:
        tracer.emit(ev, ts, **fields)


class TestTracer:
    def test_disabled_without_sinks(self):
        tracer = Tracer([])
        assert not tracer.enabled
        tracer.emit("dram_cmd", 0, ch=0, bank=0, row=0, tid=0,
                    kind="hit", start=0, end=4)
        assert tracer.events_emitted == 1  # emit still counts if called

    def test_memory_sink_collects(self):
        tracer = memory_tracer()
        emit_all(tracer)
        events = tracer.sinks[0].events
        assert [e["ev"] for e in events] == [e for e, _, _ in EVENTS]
        assert events[1]["queued"] == 2

    def test_validation_rejects_unknown_event(self):
        tracer = memory_tracer(validate=True)
        with pytest.raises(SchemaError):
            tracer.emit("not_an_event", 0)

    def test_validation_rejects_bad_field_type(self):
        tracer = memory_tracer(validate=True)
        with pytest.raises(SchemaError):
            tracer.emit("sched_decision", 0, ch="zero", bank=0, tid=0,
                        queued=1, row_hit=False)

    def test_validation_rejects_negative_ts(self):
        tracer = memory_tracer(validate=True)
        with pytest.raises(SchemaError):
            tracer.emit("shuffle", -1, algo="random", order=[])

    def test_validation_rejects_bad_dram_kind(self):
        tracer = memory_tracer(validate=True)
        with pytest.raises(SchemaError):
            tracer.emit("dram_cmd", 0, ch=0, bank=0, row=0, tid=0,
                        kind="open", start=0, end=4)

    @pytest.mark.parametrize("kind, end", [("open", 14), ("hit", 9)],
                             ids=["bad-kind", "end-before-start"])
    def test_validation_rejects_bad_grant(self, kind, end):
        tracer = memory_tracer(validate=True)
        with pytest.raises(SchemaError):
            tracer.emit_grant(10, 0, 1, 0, 2, kind, 7, end)


class TestJsonlRoundTrip:
    def test_jsonl_write_validate_convert(self, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        tracer = Tracer([JsonlSink(jsonl)])
        emit_all(tracer)
        tracer.close()

        assert validate_jsonl(jsonl) == len(EVENTS)
        lines = jsonl.read_text().splitlines()
        assert len(lines) == len(EVENTS)
        assert json.loads(lines[0])["ev"] == "run_begin"

        perfetto = tmp_path / "run.json"
        count = jsonl_to_perfetto(jsonl, perfetto)
        assert count == len(EVENTS)
        doc = json.loads(perfetto.read_text())
        assert isinstance(doc["traceEvents"], list)

    def test_validate_jsonl_reports_line(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ev":"shuffle","ts":0,"algo":"x","order":[]}\n'
                       '{"ev":"bogus","ts":1}\n')
        with pytest.raises(SchemaError, match=r"bad\.jsonl:2:"):
            validate_jsonl(bad)


class TestPerfetto:
    def test_dram_cmd_becomes_slice(self):
        doc = events_to_perfetto(
            [dict(ev="dram_cmd", ts=10, ch=0, bank=1, row=7, tid=0,
                  kind="hit", start=10, end=14)]
        )
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(slices) == 1
        assert slices[0]["name"] == "hit"
        assert slices[0]["dur"] > 0

    def test_sched_decision_becomes_instant(self):
        doc = events_to_perfetto(
            [dict(ev="sched_decision", ts=5, ch=0, bank=0, tid=3,
                  queued=1, row_hit=False)]
        )
        instants = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
        assert any("t3" in e["name"] for e in instants)

    def test_cluster_becomes_counter_track(self):
        doc = events_to_perfetto(
            [dict(ev="cluster", ts=0, quantum=0, latency=[0, 1],
                  bandwidth=[2])]
        )
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert counters

    def test_sink_writes_on_close(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = PerfettoSink(path)
        sink.write(dict(ev="shuffle", ts=0, algo="random", order=[1, 0]))
        assert not path.exists()  # buffered until close
        sink.close()
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_memory_and_jsonl_agree(self, tmp_path):
        """The same events through either sink produce the same trace."""
        jsonl = tmp_path / "a.jsonl"
        mem = MemorySink()
        tracer = Tracer([JsonlSink(jsonl), mem])
        emit_all(tracer)
        tracer.close()
        from_mem = events_to_perfetto(mem.events)
        out = tmp_path / "a.json"
        jsonl_to_perfetto(jsonl, out)
        assert json.loads(out.read_text()) == from_mem


class _DumpsSink(Sink):
    """Each event as ``json.dumps`` renders it at the moment of writing."""

    def __init__(self):
        self.lines = []

    def write(self, event):
        self.lines.append(json.dumps(event, separators=(",", ":")))


def _traced_run(telemetry, scheduler="tcm", **config_fields):
    """A short 4-thread run of an all-intensive mix with ``telemetry``."""
    from repro.config import SimConfig
    from repro.schedulers import make_scheduler
    from repro.sim import System
    from repro.workloads.mixes import make_intensity_workload

    workload = make_intensity_workload(1.0, num_threads=4, seed=1)
    config = SimConfig(num_threads=4, run_cycles=30_000,
                       quantum_cycles=10_000, **config_fields)
    return System(workload, make_scheduler(scheduler), config,
                  telemetry=telemetry).run()


class TestJsonlBytes:
    """``JsonlSink`` writes exactly ``json.dumps(event, separators=...)``."""

    @pytest.mark.parametrize("scheduler, config_fields", [
        ("tcm", {}),
        ("tcm", {"model_writes": True}),
        ("parbs", {}),
    ], ids=["tcm", "tcm-writes", "parbs"])
    def test_traced_tcm_run_is_byte_identical(self, tmp_path, scheduler,
                                              config_fields):
        from repro.telemetry import Telemetry

        path = tmp_path / "run.jsonl"
        reference = _DumpsSink()
        telemetry = Telemetry.tracing(jsonl_path=path)
        telemetry.tracer.add_sink(reference)
        _traced_run(telemetry, scheduler, **config_fields)
        telemetry.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(reference.lines) > 100
        assert lines == reference.lines

    def test_non_ascii_floats_and_none(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        event = {"ev": "run_begin", "ts": 0, "workload": "mix-ü—✓",
                 "scheduler": None, "ipc": [0.1, 1e-300, 2.5e16, -0.0],
                 "nested": {"ratio": 1 / 3, "name": "naïve"}}
        sink = JsonlSink(path)
        sink.write(event)
        sink.close()
        assert path.read_bytes() == (
            json.dumps(event, separators=(",", ":")) + "\n"
        ).encode("utf-8")


class TestGrantFanOut:
    """A read grant reaches every sink as the two events ``emit`` builds."""

    def test_sinks_agree_on_a_traced_run(self, tmp_path):
        from repro.telemetry import Telemetry

        path = tmp_path / "run.jsonl"
        memory = MemorySink()
        telemetry = Telemetry.tracing(jsonl_path=path,
                                      perfetto_path=tmp_path / "run.json")
        telemetry.tracer.add_sink(memory)
        traced = _traced_run(telemetry)
        telemetry.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert memory.events == [json.loads(line) for line in lines]
        assert telemetry.tracer.events_emitted == len(lines)
        doc = json.loads((tmp_path / "run.json").read_text())
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(slices) == sum(e["ev"] == "dram_cmd" for e in memory.events)

        # the validating tracer takes the two-emit path: same events,
        # same key order, same simulated outcome
        checked = Telemetry.in_memory(validate=True)
        assert _traced_run(checked) == traced
        assert ([list(e.items()) for e in checked.events]
                == [list(e.items()) for e in memory.events])
