"""Tests for repro.dram.channel — queues, bus serialisation, service."""

import pytest

from repro.config import SimConfig
from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest


def make_request(channel=0, bank=0, row=1, thread=0, arrival=0):
    return MemoryRequest(
        thread_id=thread, channel_id=channel, bank_id=bank, row=row,
        arrival=arrival,
    )


@pytest.fixture
def channel():
    return Channel(0, SimConfig())


class TestEnqueue:
    def test_enqueue_routes_to_bank_queue(self, channel):
        request = make_request(bank=2)
        channel.enqueue(request)
        assert channel.queues[2] == [request]
        assert channel.pending_requests() == 1

    def test_wrong_channel_rejected(self, channel):
        with pytest.raises(ValueError):
            channel.enqueue(make_request(channel=1))

    def test_has_request_from(self, channel):
        channel.enqueue(make_request(thread=3, bank=1))
        assert channel.has_request_from(3, 1)
        assert not channel.has_request_from(3, 0)
        assert not channel.has_request_from(2, 1)


class TestService:
    def test_start_service_removes_from_queue(self, channel):
        request = make_request()
        channel.enqueue(request)
        channel.start_service(request, now=0)
        assert channel.pending_requests() == 0
        assert channel.serviced_requests == 1

    def test_service_stamps_timing(self, channel):
        request = make_request()
        channel.enqueue(request)
        access, completion = channel.start_service(request, now=0)
        assert request.start_service == 0
        assert request.completion == completion
        assert completion == access.data_end + channel.config.timings.fixed_overhead

    def test_bus_serialises_across_banks(self, channel):
        r0 = make_request(bank=0, row=1)
        r1 = make_request(bank=1, row=1)
        channel.enqueue(r0)
        channel.enqueue(r1)
        a0, _ = channel.start_service(r0, now=0)
        a1, _ = channel.start_service(r1, now=0)
        # second burst cannot overlap the first on the shared data bus
        assert a1.data_start >= a0.data_end

    def test_start_service_dequeues_by_identity(self, channel):
        twin = MemoryRequest(thread_id=0, channel_id=0, bank_id=0, row=1,
                             arrival=0, request_id=-1)
        request = MemoryRequest(thread_id=0, channel_id=0, bank_id=0, row=1,
                                arrival=0, request_id=-1)
        assert twin == request  # field-wise equal, distinct objects
        channel.enqueue(twin)
        channel.enqueue(request)
        channel.start_service(request, now=0)
        assert channel.queues[0] == [twin]
        assert channel.queues[0][0] is twin

    def test_start_service_rejects_an_unqueued_request(self, channel):
        with pytest.raises(ValueError):
            channel.start_service(make_request(), now=0)

    def test_a_run_never_compares_requests(self, monkeypatch):
        """The engine dequeues by identity: no field-wise ``__eq__``."""
        from repro.schedulers import make_scheduler
        from repro.sim import System
        from repro.workloads.mixes import make_intensity_workload

        calls = []
        original = MemoryRequest.__dict__["__eq__"]

        def counted(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(MemoryRequest, "__eq__", counted)
        config = SimConfig(num_threads=8, run_cycles=40_000,
                           quantum_cycles=10_000)
        workload = make_intensity_workload(1.0, num_threads=8, seed=2)
        result = System(workload, make_scheduler("tcm"), config).run()
        assert result.total_requests > 100
        assert calls == []

    def test_row_hit_possible(self, channel):
        r0 = make_request(row=7)
        channel.enqueue(r0)
        channel.start_service(r0, now=0)
        r1 = make_request(row=7, arrival=1)
        assert channel.row_hit_possible(r1)
        r2 = make_request(row=8, arrival=1)
        assert not channel.row_hit_possible(r2)


class TestIdleBanks:
    def test_idle_banks_with_work(self, channel):
        channel.enqueue(make_request(bank=1))
        channel.enqueue(make_request(bank=3))
        assert channel.idle_banks_with_work(0) == [1, 3]

    def test_busy_bank_excluded(self, channel):
        request = make_request(bank=1)
        channel.enqueue(request)
        channel.enqueue(make_request(bank=1, arrival=1))
        channel.start_service(request, now=0)
        assert channel.idle_banks_with_work(1) == []
        assert channel.idle_banks_with_work(channel.banks[1].busy_until) == [1]

    def test_empty_queue_excluded(self, channel):
        assert channel.idle_banks_with_work(0) == []


class TestRequest:
    def test_latency_none_until_complete(self):
        request = make_request()
        assert request.latency is None
        request.completion = 500
        assert request.latency == 500

    def test_request_ids_unique(self):
        a, b = make_request(), make_request()
        assert a.request_id != b.request_id

    def test_repr_compact(self):
        text = repr(make_request(bank=2, row=9))
        assert "b2" in text and "r9" in text
