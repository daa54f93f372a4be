"""Tests for the discrete-event engine and capacity resources."""

from __future__ import annotations

import pytest

from repro.hpc.events import DiscreteEventSimulator
from repro.hpc.resources import CapacityResource, GpuDevice, NodeResources


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = DiscreteEventSimulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]
        assert sim.now == pytest.approx(2.0)

    def test_ties_broken_by_schedule_order(self):
        sim = DiscreteEventSimulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_nested_scheduling(self):
        sim = DiscreteEventSimulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(3.0, lambda: times.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert times == [1.0, 4.0]

    def test_negative_delay_rejected(self):
        sim = DiscreteEventSimulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until(self):
        sim = DiscreteEventSimulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_cannot_schedule_in_past(self):
        sim = DiscreteEventSimulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(ValueError):
            sim.run()


class TestCapacityResource:
    def test_grants_up_to_capacity_then_queues(self):
        sim = DiscreteEventSimulator()
        resource = CapacityResource(sim, capacity=2)
        granted = []
        for i in range(4):
            resource.acquire(lambda i=i: granted.append(i))
        sim.run()
        assert granted == [0, 1]
        resource.release()
        sim.run()
        assert granted == [0, 1, 2]
        resource.release()
        sim.run()
        assert granted == [0, 1, 2, 3]

    def test_release_without_acquire_rejected(self):
        sim = DiscreteEventSimulator()
        resource = CapacityResource(sim, capacity=1)
        with pytest.raises(RuntimeError):
            resource.release()

    def test_utilization_accounting(self):
        sim = DiscreteEventSimulator()
        resource = CapacityResource(sim, capacity=1)

        def hold():
            sim.schedule(10.0, resource.release)

        resource.acquire(hold)
        sim.run()
        assert resource.utilization(over_time=10.0) == pytest.approx(1.0, abs=1e-6)

    def test_second_request_waits_for_the_release(self):
        sim = DiscreteEventSimulator()
        resource = CapacityResource(sim, capacity=1)
        started = []

        def task():
            started.append(sim.now)
            sim.schedule(5.0, resource.release)

        resource.acquire(task)
        resource.acquire(task)
        sim.run()
        assert started == [0.0, 5.0]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CapacityResource(DiscreteEventSimulator(), capacity=0)


class TestNodeAndGpu:
    def test_round_robin_gpu_assignment(self):
        sim = DiscreteEventSimulator()
        node = NodeResources(sim, "node0", cpu_cores=4, n_gpus=2)
        picks = [node.any_gpu().gpu_id for _ in range(4)]
        assert picks == ["node0/gpu0", "node0/gpu1", "node0/gpu0", "node0/gpu1"]

    def test_gpu_busy_interval_recording(self):
        sim = DiscreteEventSimulator()
        gpu = GpuDevice(sim, "g0")
        gpu.record_busy(0.0, 5.0, "compute")
        gpu.record_busy(5.0, 5.0, "zero-length ignored")
        assert len(gpu.intervals) == 1
        assert gpu.utilization(over_time=10.0) == pytest.approx(0.5)

    def test_node_without_gpus(self):
        sim = DiscreteEventSimulator()
        node = NodeResources(sim, "node0", cpu_cores=4, n_gpus=0)
        with pytest.raises(RuntimeError):
            node.any_gpu()
        assert node.gpus == []
