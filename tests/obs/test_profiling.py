"""Unit tests of phase attribution."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import profiling
from repro.obs.profiling import PHASE_SECONDS_BUCKETS, PhaseTimer


class TestPhaseTimer:
    def test_single_phase_accumulates(self):
        timer = PhaseTimer()
        with timer.phase("work", n_bytes=128):
            time.sleep(0.01)
        table = timer.snapshot()
        assert set(table) == {"work"}
        row = table["work"]
        assert row["total_s"] >= 0.01
        assert row["self_s"] == pytest.approx(row["total_s"])
        assert row["calls"] == 1
        assert row["bytes"] == 128

    def test_nested_phase_subtracts_from_parent_self_time(self):
        timer = PhaseTimer()
        with timer.phase("outer"):
            time.sleep(0.005)
            with timer.phase("inner"):
                time.sleep(0.02)
        table = timer.snapshot()
        outer, inner = table["outer"], table["inner"]
        assert outer["total_s"] >= inner["total_s"]
        # outer's self time excludes inner's wall time entirely
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - inner["total_s"], abs=1e-6
        )
        assert outer["self_s"] < inner["total_s"]

    def test_self_seconds_sum_to_wall_without_double_counting(self):
        timer = PhaseTimer()
        started = time.perf_counter()
        with timer.phase("a"):
            time.sleep(0.005)
            with timer.phase("b"):
                time.sleep(0.005)
        with timer.phase("c"):
            time.sleep(0.005)
        wall = time.perf_counter() - started
        attributed = sum(row["self_s"] for row in timer.snapshot().values())
        assert attributed <= wall + 1e-6

    def test_record_charges_enclosing_phase(self):
        timer = PhaseTimer()
        with timer.phase("parse"):
            time.sleep(0.005)
            timer.record("cache.lookup", 0.004, calls=3)
        table = timer.snapshot()
        assert table["cache.lookup"]["calls"] == 3
        assert table["cache.lookup"]["self_s"] == pytest.approx(0.004)
        # the recorded leaf time is excluded from parse's self time
        assert table["parse"]["self_s"] == pytest.approx(
            table["parse"]["total_s"] - 0.004, abs=1e-6
        )

    def test_merge_table_folds_child_rows_and_charges_open_phase(self):
        child = PhaseTimer()
        with child.phase("parse.default"):
            time.sleep(0.005)
        parent = PhaseTimer()
        with parent.phase("parse"):
            time.sleep(0.02)
            parent.merge_table(child.snapshot())
        table = parent.snapshot()
        assert "parse.default" in table
        child_self = table["parse.default"]["self_s"]
        assert table["parse"]["self_s"] == pytest.approx(
            table["parse"]["total_s"] - child_self, abs=1e-6
        )

    def test_merge_table_accumulates_onto_existing_rows(self):
        timer = PhaseTimer()
        timer.record("x", 1.0, calls=2, n_bytes=10)
        timer.merge_table({"x": {"total_s": 2.0, "self_s": 2.0, "cpu_s": 0.5,
                                 "calls": 3, "bytes": 5}})
        row = timer.snapshot()["x"]
        assert row["total_s"] == pytest.approx(3.0)
        assert row["calls"] == 5
        assert row["bytes"] == 15

    def test_merge_empty_table_is_noop(self):
        timer = PhaseTimer()
        timer.merge_table({})
        assert timer.snapshot() == {}

    def test_threads_accumulate_into_one_table(self):
        timer = PhaseTimer()

        def work(name: str) -> None:
            with timer.phase(name):
                time.sleep(0.005)

        threads = [
            threading.Thread(target=work, args=(f"t{i % 2}",)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        table = timer.snapshot()
        assert set(table) == {"t0", "t1"}
        assert table["t0"]["calls"] + table["t1"]["calls"] == 8

    def test_snapshot_is_sorted_and_json_trivial(self):
        timer = PhaseTimer()
        timer.record("zeta", 0.1)
        timer.record("alpha", 0.1)
        table = timer.snapshot()
        assert list(table) == ["alpha", "zeta"]
        json.dumps(table)

    def test_clear(self):
        timer = PhaseTimer()
        timer.record("x", 1.0)
        timer.clear()
        assert timer.snapshot() == {}


class TestAmbientTimer:
    def test_module_phase_is_noop_without_timer(self):
        assert profiling.current_timer() is None
        with profiling.phase("anything"):
            pass  # must not raise, must not record anywhere

    def test_use_timer_binds_and_restores(self):
        timer = PhaseTimer()
        with profiling.use_timer(timer):
            assert profiling.current_timer() is timer
            with profiling.phase("work"):
                pass
            profiling.record("leaf", 0.01)
        assert profiling.current_timer() is None
        assert set(timer.snapshot()) == {"work", "leaf"}

    def test_phases_disabled_suppresses_recording(self):
        timer = PhaseTimer()
        profiling.set_phases_enabled(False)
        try:
            with profiling.use_timer(timer):
                with profiling.phase("work"):
                    pass
                profiling.record("leaf", 0.01)
        finally:
            profiling.set_phases_enabled(True)
        assert timer.snapshot() == {}

    def test_phase_buckets_are_sorted(self):
        assert list(PHASE_SECONDS_BUCKETS) == sorted(PHASE_SECONDS_BUCKETS)
