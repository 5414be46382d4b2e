"""Tests for the shared metrics primitives."""

import pytest

from repro.runtime import Counter, Gauge, LatencyHistogram
from repro.runtime.metrics import KeyCounter


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter() == 0
        assert int(Counter()) == 0

    def test_inc_and_iadd(self):
        counter = Counter()
        counter.inc()
        counter += 2
        assert counter == 3

    def test_rejects_decrements(self):
        counter = Counter(5)
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_numeric_interop(self):
        counter = Counter(10)
        assert counter + 5 == 15
        assert 5 + counter == 15
        assert counter - 4 == 6
        assert 14 - counter == 4
        assert counter * 2 == 20
        assert counter / 4 == 2.5
        assert 100 / counter == 10.0
        assert counter > 9 and counter >= 10 and counter < 11 and counter <= 10
        assert float(counter) == 10.0
        assert [0] * 3 == [0, 0, 0][counter - 10 :]  # __index__ works in slices

    def test_compares_with_other_counters(self):
        assert Counter(3) == Counter(3)
        assert Counter(2) < Counter(3)

    def test_bool_and_str(self):
        assert not Counter(0)
        assert Counter(1)
        assert str(Counter(7)) == "7"
        assert f"{Counter(7):>4}" == "   7"

    def test_shared_by_reference(self):
        # The reason Counter exists: a component and its observer share
        # one live count.
        counter = Counter()
        holder = {"ops": counter}
        counter.inc(3)
        assert holder["ops"] == 3


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge()
        gauge.set(1.5)
        gauge.add(-0.5)
        assert gauge == 1.0
        assert float(gauge) == 1.0

    def test_compares_and_formats(self):
        assert Gauge(2.0) > 1.0 or not Gauge(2.0) < 1.0
        assert Gauge(2.0) == Counter(2)
        assert f"{Gauge(2.5):.1f}" == "2.5"


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(99) == 0.0
        assert histogram.summary()["count"] == 0

    def test_mean_and_percentiles(self):
        histogram = LatencyHistogram()
        for value in range(1, 101):
            histogram.record(float(value))
        assert histogram.count == 100
        assert histogram.mean == pytest.approx(50.5)
        assert histogram.percentile(50) == pytest.approx(50.5)
        assert histogram.percentile(95) == pytest.approx(95.05)

    def test_summary_keys(self):
        histogram = LatencyHistogram([1.0, 2.0, 3.0])
        assert set(histogram.summary()) == {"count", "mean", "p50", "p95", "p99"}

    def test_merge(self):
        a = LatencyHistogram([1.0, 2.0])
        b = LatencyHistogram([3.0])
        a.merge(b)
        assert a.count == 3
        assert a.mean == pytest.approx(2.0)

    def test_single_sample_every_percentile(self):
        histogram = LatencyHistogram([7.5])
        for q in (0, 1, 50, 95, 99, 100):
            assert histogram.percentile(q) == pytest.approx(7.5)
        summary = histogram.summary()
        assert summary["count"] == 1
        assert summary["mean"] == pytest.approx(7.5)
        assert summary["p50"] == summary["p99"] == pytest.approx(7.5)

    def test_merge_disjoint_ranges(self):
        low = LatencyHistogram([float(v) for v in range(1, 51)])
        high = LatencyHistogram([float(v) for v in range(1000, 1050)])
        low.merge(high)
        assert low.count == 100
        # The merged population spans both ranges: the median sits at the
        # boundary, the extremes belong to each source.
        assert low.percentile(0) == pytest.approx(1.0)
        assert low.percentile(100) == pytest.approx(1049.0)
        assert 50.0 <= low.percentile(50) <= 1000.0
        # Merging never mutates the source histogram.
        assert high.count == 50

    def test_merge_with_empty_is_identity(self):
        histogram = LatencyHistogram([1.0, 2.0, 3.0])
        histogram.merge(LatencyHistogram())
        assert histogram.count == 3
        assert histogram.percentile(50) == pytest.approx(2.0)
        empty = LatencyHistogram()
        empty.merge(histogram)
        assert empty.count == 3
        assert empty.mean == pytest.approx(2.0)


class TestKeyCounter:
    def test_empty(self):
        counter = KeyCounter()
        assert counter.total == 0
        assert counter.distinct == 0
        assert counter.top(5) == []

    def test_top_k_orders_ties_by_key(self):
        counter = KeyCounter()
        for key in ("kc", "ka", "kb"):
            counter.record(key, by=3)
        counter.record("hot", by=9)
        # Equal counts rank alphabetically — the view is a pure function
        # of the recorded multiset, independent of insertion order.
        assert counter.top(4) == [("hot", 9), ("ka", 3), ("kb", 3), ("kc", 3)]
        assert counter.top(2) == [("hot", 9), ("ka", 3)]

    def test_top_k_insertion_order_independent(self):
        a, b = KeyCounter(), KeyCounter()
        for key in ("k1", "k2", "k3"):
            a.record(key, by=2)
        for key in ("k3", "k1", "k2"):
            b.record(key, by=2)
        assert a.top(3) == b.top(3)

    def test_top_k_clamps_and_rejects_negative_by(self):
        counter = KeyCounter()
        counter.record("k", by=1)
        assert counter.top(0) == []
        assert counter.top(-1) == []
        with pytest.raises(ValueError):
            counter.record("k", by=-1)

    def test_merge_sums_counts(self):
        a, b = KeyCounter(), KeyCounter()
        a.record("shared", by=2)
        a.record("only-a")
        b.record("shared", by=5)
        b.record("only-b")
        a.merge(b)
        assert a.counts == {"shared": 7, "only-a": 1, "only-b": 1}
        assert a.top(1) == [("shared", 7)]
