"""Tests for repro.cpu.thread — the sliding-window core model."""

import pytest

from repro.config import SimConfig
from repro.cpu.thread import MAX_OUTSTANDING_MISSES, ThreadModel
from repro.workloads.spec import BenchmarkSpec, benchmark


def make_thread(mpki=50.0, rbl=0.5, blp=2.0, config=None, seed=0, **kwargs):
    spec = BenchmarkSpec(name="synthetic", mpki=mpki, rbl=rbl, blp=blp)
    return ThreadModel(0, spec, config or SimConfig(), seed, **kwargs)


# stationary config for deterministic window sizes
CFG = SimConfig(phase_mean_cycles=0)


class TestWindowSizing:
    def test_intensive_thread_fills_mshrs(self):
        # mcf: 97.38 MPKI -> ~10 instrs/miss -> 12 misses in a 128 window
        thread = ThreadModel(0, benchmark("mcf"), CFG, seed=0)
        assert thread.max_outstanding == 12

    def test_mshr_cap_enforced(self):
        thread = make_thread(mpki=500.0, config=CFG)  # 2 instrs/miss
        assert thread.max_outstanding == MAX_OUTSTANDING_MISSES

    def test_light_thread_single_miss(self):
        # povray: 0.01 MPKI -> 100k instrs/miss >> window
        thread = ThreadModel(0, benchmark("povray"), CFG, seed=0)
        assert thread.max_outstanding == 1

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            make_thread(weight=0)


class TestIssue:
    def test_issue_returns_location(self):
        thread = make_thread(config=CFG)
        loc = thread.try_issue(0)
        assert loc is not None
        channel, bank, row = loc
        assert 0 <= channel < 4
        assert 0 <= bank < 4
        assert 0 <= row < CFG.num_rows

    def test_issue_until_window_full(self):
        thread = make_thread(mpki=500.0, config=CFG)
        for _ in range(thread.max_outstanding):
            assert thread.try_issue(0) is not None
        assert thread.try_issue(0) is None
        assert thread.window_blocked

    def test_outstanding_tracks_issues(self):
        thread = make_thread(mpki=500.0, config=CFG)
        thread.try_issue(0)
        thread.try_issue(0)
        assert thread.outstanding == 2

    def test_issue_gap_reflects_intensity(self):
        heavy = make_thread(mpki=100.0, config=CFG, seed=1)
        light = make_thread(mpki=1.0, config=CFG, seed=1)
        heavy_gap = sum(heavy.issue_gap() for _ in range(50)) / 50
        light_gap = sum(light.issue_gap() for _ in range(50)) / 50
        # 10 instrs/miss vs 1000 instrs/miss at 3 IPC
        assert heavy_gap == pytest.approx(10 / 3, rel=0.25)
        assert light_gap == pytest.approx(1000 / 3, rel=0.25)

    def test_issue_gap_positive(self):
        thread = make_thread(mpki=1000.0, config=CFG)
        assert all(thread.issue_gap() >= 1 for _ in range(20))


class TestInOrderRetirement:
    def test_in_order_completion_retires_immediately(self):
        thread = make_thread(mpki=500.0, config=CFG)
        thread.try_issue(0)
        thread.try_issue(0)
        thread.on_request_completed(1)
        assert thread.outstanding == 1
        assert thread.stats.misses == 1

    def test_out_of_order_completion_waits_for_head(self):
        """A younger miss completing does NOT free a window slot."""
        thread = make_thread(mpki=500.0, config=CFG)
        thread.try_issue(0)
        thread.try_issue(0)
        thread.try_issue(0)
        thread.on_request_completed(3)
        thread.on_request_completed(2)
        assert thread.outstanding == 3      # head (1) still outstanding
        assert thread.stats.misses == 0
        thread.on_request_completed(1)      # head completes -> all retire
        assert thread.outstanding == 0
        assert thread.stats.misses == 3

    def test_blocked_window_reports_unblock(self):
        thread = make_thread(mpki=500.0, config=CFG)
        ids = []
        while True:
            loc = thread.try_issue(0)
            if loc is None:
                break
            ids.append(thread.issued)
        assert thread.on_request_completed(ids[0]) is True

    def test_unblock_not_reported_when_head_still_stuck(self):
        thread = make_thread(mpki=500.0, config=CFG)
        while thread.try_issue(0) is not None:
            pass
        # completing a younger miss frees nothing
        assert thread.on_request_completed(thread.issued) is False

    def test_completion_without_outstanding_raises(self):
        thread = make_thread(config=CFG)
        with pytest.raises(RuntimeError):
            thread.on_request_completed(1)

    def test_instructions_track_mpki(self):
        thread = make_thread(mpki=50.0, config=CFG)  # 20 instrs/miss
        for i in range(100):
            thread.try_issue(0)
            thread.on_request_completed(i + 1)
        assert thread.stats.instructions == pytest.approx(2000, abs=2)
        assert thread.stats.lifetime_mpki() == pytest.approx(50.0, rel=0.01)


class TestPhases:
    def test_phases_disabled_keeps_ipm_constant(self):
        thread = make_thread(mpki=50.0, config=CFG)
        for _ in range(10):
            thread.try_issue(1_000_000)
        assert thread.phase_multiplier == 1.0

    def test_phases_change_multiplier(self):
        cfg = SimConfig(phase_mean_cycles=1_000)
        thread = make_thread(mpki=50.0, config=cfg, seed=3)
        seen = set()
        now = 0
        for _ in range(200):
            thread.try_issue(now)
            if thread.outstanding:
                thread.on_request_completed(thread.issued)
            now += 500
            seen.add(thread.phase_multiplier)
        assert len(seen) > 1
        assert seen <= {0.5, 1.0, 2.0}

    def test_phase_sequence_deterministic_per_stream(self):
        cfg = SimConfig(phase_mean_cycles=1_000)
        def multipliers(stream):
            thread = make_thread(mpki=50.0, config=cfg, seed=3, stream=stream)
            out = []
            for now in range(0, 100_000, 500):
                thread.try_issue(now)
                if thread.outstanding:
                    thread.on_request_completed(thread.issued)
                out.append(thread.phase_multiplier)
            return out
        assert multipliers(7) == multipliers(7)
        assert multipliers(7) != multipliers(8)

    def test_window_limit_follows_phase(self):
        cfg = SimConfig(phase_mean_cycles=100)
        thread = make_thread(mpki=100.0, config=cfg, seed=1)
        limits = set()
        for now in range(0, 50_000, 100):
            thread.try_issue(now)
            if thread.outstanding:
                thread.on_request_completed(thread.issued)
            limits.add(thread.max_outstanding)
        assert len(limits) > 1


class TestStreamIdentity:
    def test_same_stream_same_behaviour(self):
        a = make_thread(config=CFG, seed=5, stream=42)
        b = make_thread(config=CFG, seed=5, stream=42)
        locs_a = [a.try_issue(0) for _ in range(5)]
        locs_b = [b.try_issue(0) for _ in range(5)]
        assert locs_a == locs_b

    def test_different_stream_different_behaviour(self):
        a = make_thread(config=CFG, seed=5, stream=42)
        b = make_thread(config=CFG, seed=5, stream=43)
        locs_a = [a.try_issue(0) for _ in range(8)]
        locs_b = [b.try_issue(0) for _ in range(8)]
        assert locs_a != locs_b


class TestFinishedRunReleasesRng:
    """A finished run drops its threads' pre-drawn random numbers
    without moving any stream: the RNG snapshot is the same before and
    after ``finish_run``, and the buffers are empty."""

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_buffers_released_streams_kept(self, backend):
        from repro import System, make_scheduler
        from repro.diverge.probe import snapshot_rng
        from repro.workloads import make_intensity_workload

        workload = make_intensity_workload(1.0, num_threads=4, seed=3)
        config = SimConfig(run_cycles=5_000, backend=backend)
        system = System(workload, make_scheduler("tcm"), config, seed=3)
        system.start_run()
        system.advance(config.run_cycles)
        before = snapshot_rng(system)
        system.finish_run(config.run_cycles)
        assert snapshot_rng(system) == before
        for thread in system.threads:
            stream = thread._addr._rng
            assert stream._buf == () and stream._i == stream._n == 0
        if system._batch is None:
            assert all(t._jitter._buf == () for t in system.threads)
        else:
            assert all(j._buf == () for j in system._batch.jitter)
