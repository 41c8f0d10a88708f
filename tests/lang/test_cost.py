"""Tests for the work-unit cost accounting."""

import pytest

from repro.lang.cost import CostCounter, charge, current_counter, scoped_counter


class TestCostCounter:
    def test_starts_empty(self):
        counter = CostCounter()
        assert counter.total == 0.0

    def test_charge_accumulates_total(self):
        counter = CostCounter()
        counter.charge(3.0)
        counter.charge(2.0)
        assert counter.total == pytest.approx(5.0)

    def test_negative_charge_rejected(self):
        counter = CostCounter()
        with pytest.raises(ValueError):
            counter.charge(-1.0)

    def test_merge_combines_counters(self):
        first = CostCounter()
        first.charge(2.0)
        second = CostCounter()
        second.charge(3.0)
        second.charge(1.0)
        first.merge(second)
        assert first.total == pytest.approx(6.0)

    def test_reset_clears_everything(self):
        counter = CostCounter()
        counter.charge(5.0)
        counter.reset()
        assert counter.total == 0.0

    def test_snapshot_and_since(self):
        counter = CostCounter()
        counter.charge(4.0)
        mark = counter.snapshot()
        counter.charge(6.0)
        assert counter.since(mark) == pytest.approx(6.0)

    def test_copy_is_independent(self):
        counter = CostCounter()
        counter.charge(1.0)
        clone = counter.copy()
        clone.charge(9.0)
        assert counter.total == pytest.approx(1.0)
        assert clone.total == pytest.approx(10.0)


class TestScopedCounter:
    def test_charge_outside_scope_is_dropped(self):
        assert current_counter() is None
        charge(100.0)  # must not raise
        assert current_counter() is None

    def test_charge_inside_scope_accumulates(self):
        with scoped_counter() as counter:
            charge(2.5)
            charge(1.5)
        assert counter.total == pytest.approx(4.0)

    def test_scope_restores_previous_counter(self):
        with scoped_counter() as outer:
            charge(1.0)
            with scoped_counter() as inner:
                charge(10.0)
            charge(2.0)
        assert inner.total == pytest.approx(10.0)
        assert outer.total == pytest.approx(3.0)
        assert current_counter() is None

    def test_scope_accepts_existing_counter(self):
        counter = CostCounter()
        counter.charge(1.0)
        with scoped_counter(counter):
            charge(2.0)
        assert counter.total == pytest.approx(3.0)

    def test_scope_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with scoped_counter():
                raise RuntimeError("boom")
        assert current_counter() is None
