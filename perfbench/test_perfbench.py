"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Sizes are shrunk through the module constants so the whole file runs in
about a minute; the code paths are the ones the benchmark runs.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.validate.fingerprint import fingerprint_run  # noqa: E402


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.setattr(workloads, "FIG4_CYCLES", 100_000)
    monkeypatch.setattr(workloads, "HEAVY_CYCLES", 150_000)
    return str(tmp_path)


def fingerprint(outcome):
    """``repro.validate`` fingerprint of an operation's output."""
    if isinstance(outcome, list):
        return outcome  # campaign payloads are already plain data
    return fingerprint_run(outcome)


def timed_and_untimed(name, scratch, seed=3):
    workload = workloads.WORKLOADS[name](seed, scratch)
    untimed = workload.op()
    clock = layers.LayerClock()
    with clock:
        timed = workload.op(clock)
    return untimed, timed, clock


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_run_has_the_untimed_fingerprint(small, name):
    untimed, timed, _ = timed_and_untimed(name, small)
    assert not untimed.failed and not timed.failed
    assert fingerprint(timed.outcome) == fingerprint(untimed.outcome)
    assert (workloads.counters(timed.systems)
            == workloads.counters(untimed.systems))


def test_traced_result_equals_the_bare_result(small):
    bare = workloads.TcmHeavy(5, small).op()
    traced = workloads.TcmTraced(5, small).op()
    assert traced.outcome == bare.outcome
    assert fingerprint_run(traced.outcome) == fingerprint_run(bare.outcome)
    assert traced.trace_mb > 0
    assert [s["observers"] for s in traced.systems] == [["tracer", "sampler"]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_run_takes_the_untimed_loop(small, name):
    untimed, timed, _ = timed_and_untimed(name, small)
    assert run.loops(timed) == run.loops(untimed) == ["reference-heap"]


@pytest.mark.parametrize("name, loop", (("tcm-heavy", "fast-bare"),
                                        ("tcm-traced", "fast-observed")))
def test_timers_keep_the_fast_loops_and_say_what_they_hide(
        small, monkeypatch, name, loop):
    monkeypatch.setenv("REPRO_BACKEND", "fast")
    untimed, timed, clock = timed_and_untimed(name, small)
    assert run.loops(timed) == run.loops(untimed) == [loop]
    metrics = layers.layer_metrics(clock, timed.systems, 0, run.loops(timed))
    hidden = layers.INLINED_BY_LOOP[loop]
    for layer in layers.LAYERS:
        values = [v for k, v in metrics.items() if k.startswith(layer + ".")]
        if layer in hidden:
            assert all(v is None for v in values)
        else:
            assert None not in values
    # the inlined layers' timers saw no call on this loop ...
    assert clock.calls["cpu.try_issue"] == 0
    # ... and every layer not declared inlined did run through its timers
    visible = {"sched": "sched.select_calls", "dram": "dram.enqueue_s",
               "monitor": "monitor.hook_calls"}
    for layer, metric in visible.items():
        if layer not in hidden:
            assert metrics[metric] > 0
    assert metrics["sim.events"] > 0


def test_layer_counts_repeat_exactly(small):
    workload = workloads.TcmHeavy(2, small)
    counts = []
    for _ in range(2):
        clock = layers.LayerClock()
        with clock:
            op = workload.op(clock)
        metrics = layers.layer_metrics(clock, op.systems, 0, run.loops(op))
        counts.append({k: v for k, v in metrics.items()
                       if k not in run.TIMES})
    assert counts[0] == counts[1]
    assert counts[0]["sched.priority_calls"] > counts[0]["sched.select_calls"]
    assert counts[0]["dram.request_eq_calls"] > 0


def test_a_select_through_super_counts_its_candidates_once():
    from repro.schedulers.base import Scheduler

    class Inner(Scheduler):
        def select(self, channel, bank_id, now):
            return None

    class Outer(Inner):
        def select(self, channel, bank_id, now):
            return super().select(channel, bank_id, now)

    class Channel:
        queues = {0: ["a", "b", "c"]}

    clock = layers.LayerClock()
    with clock:
        Outer.__new__(Outer).select(Channel, 0, 0)
    assert clock.calls["sched.select"] == 1
    assert clock.counts["sched.candidates"] == 3


def test_timers_are_removed_after_use():
    from repro.sim.system import System

    before = dict(System.__dict__)
    with layers.LayerClock(), workloads.SystemLog():
        assert System.__dict__["run"] is not before["run"]
        assert System.__dict__["finish_run"] is not before["finish_run"]
    assert dict(System.__dict__) == before


def test_a_failed_check_fails_every_operation(
        small, monkeypatch):
    from repro.validate import goldens

    monkeypatch.setattr(goldens, "check_goldens", lambda: ["drifted"])
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    out = io.StringIO()
    with redirect_stdout(out):
        run.main(["--workload", "tcm-heavy", "--seed", "4",
                  "--seconds", "0", "--trace", "0"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    # the result line still holds a number for every metric
    assert result["metrics"]["cpu_s"]["value"] > 0


def test_cpu_clock_scales_to_the_reference_kernel():
    from speed import (ELASTICITY, MIN_SAMPLES, REFERENCE_KERNEL_S,
                       CpuClock, factor)

    assert factor([REFERENCE_KERNEL_S / 2] * 3) == 2 ** ELASTICITY
    with CpuClock() as clock:
        pass
    assert len(clock.samples) >= MIN_SAMPLES
    assert clock.cpu_s == clock.raw_s * factor(clock.samples)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_workload_and_metric():
    bench = benchmark_json()
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"])
                for m in bench["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"])
                for m in bench["per_layer"]}
    assert declared == run.PER_LAYER


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_command_prints_every_metric(small, monkeypatch, name, trace):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "4",
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    bench = benchmark_json()
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["golden_drifts"] == 0
    assert record["seed"] == 4 and record["key"]
    assert record["backend_survives_plan_json"] is False
    assert all(s["backend"] == "reference" for s in record["systems"])
    if name == "fig4-cold":
        assert set(record["fidelity"]) == set(run.FIDELITY)
        assert None not in [record["fidelity"][m]["simulated"]
                            for m in run.FIDELITY]
    else:
        assert "fidelity" not in record
    # the driver reads a number for every metric of the manifest
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][m]["value"] > 0
                   for m in run.END_TO_END)
        assert len(record["op_cpu_s"]) == len(record["op_raw_cpu_s"])


def test_fails_without_the_rest_of_the_repository(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tcm-heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode != 0
    assert done.stdout == ""
