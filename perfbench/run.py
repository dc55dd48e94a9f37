"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload fig4-cold --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached;
``--trace 1`` alternates untimed and layer-timed operations and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it is a JSON ``record`` with the provenance of the run.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: name -> (unit, better)
END_TO_END = {
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better)
PER_LAYER = {
    "campaign.plan_s": ("s", "lower"),
    "campaign.self_s": ("s", "lower"),
    "campaign.self_s_per_point": ("s/point", "lower"),
    "campaign.store_put_calls": ("count", "lower"),
    "campaign.store_put_s": ("s", "lower"),
    "runner.alone_calls": ("count", "lower"),
    "runner.alone_runs": ("count", "lower"),
    "runner.alone_hit_ratio": ("ratio", "higher"),
    "runner.alone_s": ("s", "lower"),
    "runner.shared_s": ("s", "lower"),
    "runner.self_s": ("s", "lower"),
    "sim.run_s": ("s", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "sim.decisions": ("count", "lower"),
    "sim.quanta": ("count", "lower"),
    "cpu.try_issue_calls": ("count", "lower"),
    "cpu.try_issue_s": ("s", "lower"),
    "cpu.window_full_ratio": ("ratio", "lower"),
    "cpu.issue_gap_s": ("s", "lower"),
    "cpu.retire_s": ("s", "lower"),
    "cpu.next_location_calls": ("count", "lower"),
    "cpu.self_s": ("s", "lower"),
    "dram.enqueue_s": ("s", "lower"),
    "dram.start_service_calls": ("count", "lower"),
    "dram.start_service_s": ("s", "lower"),
    "dram.row_hit_ratio": ("ratio", "higher"),
    "dram.request_eq_calls": ("count", "lower"),
    "dram.self_s": ("s", "lower"),
    "sched.select_calls": ("count", "lower"),
    "sched.select_s": ("s", "lower"),
    "sched.candidates_per_select": ("count/select", "lower"),
    "sched.priority_calls": ("count", "lower"),
    "sched.hooks_s": ("s", "lower"),
    "sched.on_quantum_s": ("s", "lower"),
    "sched.self_s": ("s", "lower"),
    "monitor.hook_calls": ("count", "lower"),
    "monitor.hooks_s": ("s", "lower"),
    "monitor.end_quantum_s": ("s", "lower"),
    "monitor.self_s": ("s", "lower"),
    "telemetry.emit_calls": ("count", "lower"),
    "telemetry.emit_s": ("s", "lower"),
    "telemetry.sample_s": ("s", "lower"),
    "telemetry.trace_mb": ("MB", "lower"),
    "telemetry.attached_ratio": ("ratio", "lower"),
    "telemetry.self_s": ("s", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
}

#: Figures of a whole campaign against the paper's (fig4-cold only).
#: They go into the record and the table, not the result line: the
#: result holds a number for every metric on every workload.
FIDELITY = ("tcm_ws_vs_atlas_pct", "tcm_ms_cut_vs_atlas_pct")

#: Time metrics of one timed operation (medians are taken over these);
#: every other per-layer metric is a count that must repeat exactly.
TIMES = {name for name, (unit, _) in PER_LAYER.items()
         if unit in ("s", "s/point")}

#: Fresh interpreters started per run to measure set-up time.
SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    backend_env = os.environ.pop("REPRO_BACKEND", None)
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        result = run(args, scratch, backend_env, cpu)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def pin_to_one_cpu():
    """Keep this process, its threads and its children on one CPU.

    So the speed sampler of ``speed.py`` measures the CPU the operation
    runs on, and no operation migrates between CPUs that the host runs
    at different speeds (on a shared 2-vCPU x86-64 virtual machine,
    set-up took 0.25 s on one and 0.17 s on the other within a minute).
    Set before any thread starts, so all of them inherit it.  Returns
    the CPU.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(args, scratch: str, backend_env, cpu) -> dict:
    import workloads
    from layers import LayerClock, layer_metrics
    from repro.validate.goldens import check_goldens

    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    # the unobserved twin of an observed workload: its result is what the
    # observed run must reproduce, its time the base of attached_ratio
    bare = (workloads.TcmHeavy(args.seed, scratch)
            if workload.observed else None)
    stripped = [bare.op()] if bare is not None else []
    setup = (measure_setup(args.workload, args.seed, scratch)
             if args.trace == 0 else [])

    untimed, timed, clocks = [], [], []
    deadline = time.monotonic() + args.seconds
    while True:
        untimed.append(workload.op())
        if args.trace:
            clock = LayerClock()
            with clock:
                timed.append(workload.op(clock))
            clocks.append(clock)
            if bare is not None:
                stripped.append(bare.op())
        enough = len(untimed) >= (2 if args.trace else 1)
        if enough and time.monotonic() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = untimed[0]
    reference = stripped[0] if stripped else first
    problems = check_ops(untimed + timed, reference.outcome, first)
    problems += check_ops(stripped, reference.outcome, reference)
    everything = untimed + timed + stripped
    drifts = check_goldens()
    if drifts:
        # the program no longer computes the committed model: no
        # operation of it counts as a timing
        problems += [f"golden drift: {d}" for d in drifts[:5]]
        for op in everything:
            op.failed = op.attempted

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "key": workload.key,
        "repro_backend_env": backend_env,
        "cpu": cpu,
        "backend_survives_plan_json": workloads.backend_survives_plan_json(),
        "systems": provenance(first.systems),
        "counters": workloads.counters(first.systems),
        "ops": len(untimed),
        "op_cpu_s": [op.cpu_s for op in untimed],
        "op_raw_cpu_s": [op.raw_cpu_s for op in untimed],
        "golden_drifts": len(drifts),
    }
    if args.trace == 0:
        metrics = {
            "cpu_s": median_ok(untimed),
            "setup_s": statistics.median(cpu_s for cpu_s, _ in setup),
            "peak_rss_mb": peak_rss_mb,
        }
        record["setup_probe_s"] = [cpu_s for cpu_s, _ in setup]
        record["setup_probe_raw_s"] = [raw for _, raw in setup]
        if isinstance(workload, workloads.Fig4Cold):
            record["fidelity"] = with_paper(workload.fidelity(first))
    else:
        metrics, unstable = combine_layers(
            [layer_metrics(c, op.systems, op.points, loops(op))
             for c, op in zip(clocks, timed)])
        if unstable:
            for op in timed:
                op.failed = op.attempted
            problems.append(f"per-layer counts differ between runs: "
                            f"{sorted(unstable)}")
        metrics["telemetry.trace_mb"] = statistics.median(
            op.trace_mb for op in timed)
        metrics["bench.trace_overhead_ratio"] = (
            median_ok(timed) / median_ok(untimed))
        metrics["telemetry.attached_ratio"] = (
            median_ok(untimed) / median_ok(stripped) if stripped else 1.0)
        if isinstance(workload, workloads.Fig4Cold):
            record["fidelity"] = with_paper(workload.fidelity(first))
        record["timed_ops"] = len(timed)
        record["timed_loops"] = sorted({x for op in timed for x in loops(op)})
        write_spans(args, clocks)
    record["problems"] = problems[:20]
    attempted = sum(op.attempted for op in everything)
    failed = sum(op.failed for op in everything)
    units = END_TO_END if args.trace == 0 else PER_LAYER
    report_lines(args, metrics, units, record)
    print(json.dumps({"record": record}))
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                    for name in units},
    }


def check_ops(ops, outcome, like) -> list:
    """Fail every operation whose output, work or loop differs from ``like``.

    Returns the problems found, the operations' own checks included.
    """
    import workloads

    problems = []
    for op in ops:
        problems += op.problems
        mismatch = []
        if op.outcome != outcome:
            mismatch.append("output differs from the first run")
        if workloads.counters(op.systems) != workloads.counters(like.systems):
            mismatch.append("work counters differ between runs")
        if loops(op) != loops(like):
            mismatch.append("ran on another loop")
        if mismatch:
            op.failed = op.attempted
            problems += mismatch
    return problems


def loops(op) -> list:
    return sorted({s["loop"] for s in op.systems})


def median_ok(ops):
    """Median CPU time of the operations that passed their checks.

    When none passed, the median of all of them: the result line must
    hold a number, and ``correct``/``failed`` already reject the run.
    """
    good = [op.cpu_s for op in ops if not op.failed]
    return statistics.median(good or [op.cpu_s for op in ops])


def combine_layers(per_op):
    """Median of each time over the timed operations; counts must agree."""
    combined, unstable = {}, set()
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        if None in values:
            combined[name] = None  # not attributable on this loop
        elif name in TIMES:
            combined[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                unstable.add(name)
            combined[name] = values[0]
    return combined, unstable


def measure_setup(workload: str, seed: int, scratch: str) -> list:
    """CPU seconds to the first simulated event, in fresh interpreters.

    One ``(at the reference speed, as measured)`` pair per interpreter.
    """
    probe = str(HERE / "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed), scratch],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        raw, factor = map(float, done.stdout.split()[-2:])
        samples.append((raw * factor, raw))
    return samples


def provenance(systems) -> list:
    """Distinct (backend, loop, observers, config) combinations run."""
    seen = {}
    for s in systems:
        key = (s["backend"], s["requested_backend"], s["loop"],
               tuple(s["observers"]), s["config_key"])
        seen[key] = seen.get(key, 0) + 1
    return [
        {"backend": b, "requested_backend": r, "loop": lp,
         "observers": list(obs), "config_key": ck, "runs": n}
        for (b, r, lp, obs, ck), n in seen.items()
    ]


def with_paper(fidelity: dict) -> dict:
    from workloads import PAPER_MS_CUT_VS_ATLAS_PCT, PAPER_WS_VS_ATLAS_PCT

    paper = {"tcm_ws_vs_atlas_pct": PAPER_WS_VS_ATLAS_PCT,
             "tcm_ms_cut_vs_atlas_pct": PAPER_MS_CUT_VS_ATLAS_PCT}
    return {name: {"simulated": value, "paper": paper[name]}
            for name, value in fidelity.items()}


def git_sha():
    """HEAD of the repository this file is in, or None outside git."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def src_digest() -> str:
    """SHA-256 over every source file of the package (git or not)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def write_spans(args, clocks) -> None:
    """Write the kept spans of every timed operation as JSONL."""
    out = ROOT / ".perfbench" / "spans"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-s{args.seed}.jsonl"
    with open(path, "w") as fh:
        for index, clock in enumerate(clocks):
            clock.write_spans(fh, op=index)


def report_lines(args, metrics: dict, units: dict, record: dict) -> None:
    """The human-readable table printed above the JSON lines."""
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['ops']} runs, loop "
          f"{'/'.join(sorted({s['loop'] for s in record['systems']}))}, "
          f"golden drifts {record['golden_drifts']}")
    fidelity = record.get("fidelity", {})
    for name, (unit, better) in units.items():
        value = metrics[name]
        shown = value
        if value is None:
            shown = "not attributable on this loop"
        print(f"  {name:30s} {shown!s:>24} {unit:12s} {better}")
    for name in fidelity:
        print(f"  {name:30s} {fidelity[name]['simulated']!s:>24} "
              f"{'%':12s} higher  paper {fidelity[name]['paper']:+}")

if __name__ == "__main__":
    sys.exit(main())
