"""Tests for the operation counters and the per-view maintenance stats."""

from repro.instrument import OpCounter, maybe_count
from repro.ivm.views import MaintenanceStats


class TestOpCounter:
    def test_increment_and_get(self):
        counter = OpCounter()
        counter.increment("a")
        counter.increment("a", 4)
        assert counter.get("a") == 5
        assert counter.get("missing") == 0
        assert counter.total() == 5

    def test_merge_and_reset(self):
        left, right = OpCounter(), OpCounter()
        left.increment("x", 2)
        right.increment("x", 3)
        right.increment("y")
        left.merge(right)
        assert left.as_dict() == {"x": 5, "y": 1}
        left.reset()
        assert left.total() == 0

    def test_maybe_count_with_none(self):
        maybe_count(None, "anything")  # must not raise
        counter = OpCounter()
        maybe_count(counter, "x", 2)
        assert counter.get("x") == 2

    def test_items_sorted(self):
        counter = OpCounter()
        counter.increment("b")
        counter.increment("a")
        assert [name for name, _ in counter.items()] == ["a", "b"]


class TestMaintenanceStats:
    def test_recording(self):
        stats = MaintenanceStats()
        counter = OpCounter()
        counter.increment("work", 10)
        stats.record_init(0.5, counter)
        stats.record_update(0.1, counter)
        stats.record_update(0.2, counter)
        assert stats.updates_applied == 2
        assert stats.total_update_operations == 20
        assert stats.mean_update_operations == 10
        summary = stats.summary()
        assert summary["init_operations"] == 10

    def test_empty_stats(self):
        stats = MaintenanceStats()
        assert stats.mean_update_operations == 0.0
        assert stats.updates_applied == 0

