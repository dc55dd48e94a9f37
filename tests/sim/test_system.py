"""Integration tests for the simulation system."""

import pytest

from repro.config import SimConfig
from repro.schedulers import make_scheduler
from repro.sim import System
from repro.workloads.mixes import Workload, make_intensity_workload

CFG = SimConfig(run_cycles=100_000)


def small_workload():
    return Workload(
        name="small",
        benchmark_names=("mcf", "libquantum", "povray", "hmmer"),
    )


class TestRunMechanics:
    def test_run_produces_results_for_all_threads(self):
        result = System(small_workload(), make_scheduler("frfcfs"), CFG, seed=0).run()
        assert len(result.threads) == 4
        assert result.cycles == CFG.run_cycles

    def test_all_threads_make_progress(self):
        result = System(small_workload(), make_scheduler("frfcfs"), CFG, seed=0).run()
        assert all(t.instructions > 0 for t in result.threads)
        assert all(t.ipc > 0 for t in result.threads)

    def test_quanta_counted(self):
        result = System(small_workload(), make_scheduler("tcm"), CFG, seed=0).run()
        assert result.quantum_count == CFG.run_cycles // CFG.quantum_cycles

    def test_requests_serviced(self):
        result = System(small_workload(), make_scheduler("frfcfs"), CFG, seed=0).run()
        assert result.total_requests > 100
        assert (
            result.row_hits + result.row_conflicts + result.row_closed
            == result.total_requests
        )

    def test_explicit_cycle_override(self):
        result = System(small_workload(), make_scheduler("frfcfs"), CFG, seed=0).run(
            cycles=20_000
        )
        assert result.cycles == 20_000

    def test_ipc_bounded_by_peak(self):
        result = System(small_workload(), make_scheduler("frfcfs"), CFG, seed=0).run()
        assert all(t.ipc <= CFG.ipc_peak + 1e-9 for t in result.threads)


class TestDeterminism:
    @pytest.mark.parametrize("sched", ["frfcfs", "stfm", "parbs", "atlas", "tcm"])
    def test_same_seed_same_result(self, sched):
        a = System(small_workload(), make_scheduler(sched), CFG, seed=7).run()
        b = System(small_workload(), make_scheduler(sched), CFG, seed=7).run()
        assert a.ipcs == b.ipcs
        assert a.total_requests == b.total_requests

    def test_different_seed_different_result(self):
        a = System(small_workload(), make_scheduler("frfcfs"), CFG, seed=7).run()
        b = System(small_workload(), make_scheduler("frfcfs"), CFG, seed=8).run()
        assert a.ipcs != b.ipcs


class TestBehaviouralConvergence:
    def test_measured_mpki_tracks_spec(self):
        cfg = SimConfig(run_cycles=200_000, phase_mean_cycles=0)
        result = System(small_workload(), make_scheduler("frfcfs"), cfg, seed=0).run()
        for thread in result.threads:
            if thread.misses > 500:
                spec = dict(
                    mcf=97.38, libquantum=50.0, povray=0.01, hmmer=5.66
                )[thread.benchmark]
                assert thread.mpki == pytest.approx(spec, rel=0.05)

    def test_light_thread_runs_near_peak_alone_ish(self):
        cfg = SimConfig(run_cycles=200_000, phase_mean_cycles=0)
        workload = Workload(name="solo", benchmark_names=("povray",))
        result = System(workload, make_scheduler("frfcfs"), cfg, seed=0).run()
        assert result.threads[0].ipc > 2.9

    def test_heavy_thread_is_memory_bound_alone(self):
        cfg = SimConfig(run_cycles=200_000, phase_mean_cycles=0)
        workload = Workload(name="solo", benchmark_names=("mcf",))
        result = System(workload, make_scheduler("frfcfs"), cfg, seed=0).run()
        assert result.threads[0].ipc < 1.0

    def test_streaming_thread_hits_rows_alone(self):
        cfg = SimConfig(run_cycles=200_000, phase_mean_cycles=0)
        workload = Workload(name="solo", benchmark_names=("libquantum",))
        result = System(workload, make_scheduler("frfcfs"), cfg, seed=0).run()
        assert result.row_hit_rate > 0.9

    def test_monitored_blp_tracks_spec_alone(self):
        cfg = SimConfig(run_cycles=300_000, phase_mean_cycles=0)
        workload = Workload(name="solo", benchmark_names=("mcf",))
        result = System(workload, make_scheduler("frfcfs"), cfg, seed=0).run()
        # mcf: BLP 6.20 of 16 banks, bounded by its 12-deep window
        assert result.threads[0].blp == pytest.approx(6.2, rel=0.25)

    def test_monitored_rbl_tracks_spec_shared(self):
        """Shadow RBL is interference-free: even in a shared run the
        monitored RBL should track the benchmark's inherent locality."""
        cfg = SimConfig(run_cycles=200_000, phase_mean_cycles=0)
        result = System(small_workload(), make_scheduler("frfcfs"), cfg, seed=0).run()
        lib = result.threads[1]
        assert lib.benchmark == "libquantum"
        assert lib.rbl == pytest.approx(0.9922, abs=0.03)


class TestContention:
    def test_shared_run_slower_than_alone(self):
        cfg = SimConfig(run_cycles=150_000, phase_mean_cycles=0)
        alone = System(
            Workload(name="solo", benchmark_names=("mcf",)),
            make_scheduler("frfcfs"), cfg, seed=0,
        ).run()
        shared = System(
            make_intensity_workload(1.0, num_threads=16, seed=0),
            make_scheduler("frfcfs"), cfg, seed=0,
        ).run()
        mcf_shared = [t for t in shared.threads if t.benchmark == "mcf"]
        if mcf_shared:
            assert mcf_shared[0].ipc < alone.threads[0].ipc

    def test_average_latency_grows_with_contention(self):
        cfg = SimConfig(run_cycles=150_000, phase_mean_cycles=0)
        alone = System(
            Workload(name="solo", benchmark_names=("lbm",)),
            make_scheduler("frfcfs"), cfg, seed=0,
        ).run()
        shared = System(
            make_intensity_workload(1.0, num_threads=24, seed=1),
            make_scheduler("frfcfs"), cfg, seed=1,
        ).run()
        lbm = [t for t in shared.threads if t.benchmark == "lbm"]
        if lbm:
            assert lbm[0].avg_latency > alone.threads[0].avg_latency


class TestTimers:
    def test_scheduler_timer_fires(self):
        fired = []

        from repro.schedulers.base import Scheduler

        class TimerScheduler(Scheduler):
            name = "timer-test"
            def on_attach(self):
                self.system.schedule_timer(1_000, "tick")
            def on_timer(self, now, key):
                fired.append((now, key))
            def priority(self, request, row_hit, now):
                return (row_hit, -request.arrival)

        System(small_workload(), TimerScheduler(), CFG, seed=0).run(cycles=5_000)
        assert fired == [(1_000, "tick")]


class TestFinishedSystemIsFreed:
    """A finished system is in no reference cycle: it is freed as soon
    as the last outside reference goes, without a garbage collection
    (a campaign would otherwise hold several dead systems at once)."""

    @pytest.mark.parametrize("sched", ["frfcfs", "stfm", "parbs", "atlas", "tcm"])
    @pytest.mark.parametrize("traced", [False, True])
    def test_freed_without_gc(self, sched, traced, tmp_path):
        import gc
        import weakref

        from repro.telemetry import Telemetry

        telemetry = (Telemetry.tracing(jsonl_path=tmp_path / "t.jsonl")
                     if traced else None)
        system = System(small_workload(), make_scheduler(sched), CFG,
                        seed=0, telemetry=telemetry)
        gc.disable()
        try:
            system.run(cycles=20_000)
            ref = weakref.ref(system)
            del system
            if telemetry is not None:
                # the bundle keeps its last system for summary()
                assert telemetry.summary()["requests"] > 0
                telemetry.close()
                del telemetry
            assert ref() is None
        finally:
            gc.enable()
