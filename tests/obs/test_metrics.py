"""Metrics registry: counters, gauges, histogram quantiles, spans."""

import numpy as np
import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    get_metrics,
    set_metrics,
    use_metrics,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("flows").inc()
        registry.counter("flows").inc(4)
        assert registry.counter("flows").value == 5

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("progress").set(0.25)
        registry.gauge("progress").set(0.75)
        assert registry.gauge("progress").value == 0.75

    def test_instruments_are_cached_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")


class TestHistogramQuantiles:
    def test_exact_quantiles_small_sample(self):
        hist = Histogram("h")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.minimum == 1.0 and hist.maximum == 100.0
        assert hist.quantile(0.5) == pytest.approx(np.percentile(range(1, 101), 50))
        p = hist.percentiles()
        assert p["p50"] < p["p95"] < p["p99"]
        assert p["p95"] == pytest.approx(np.percentile(range(1, 101), 95))

    def test_thinned_reservoir_stays_accurate(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(1.0, 50_000)
        hist = Histogram("h", max_samples=2048)
        for value in values:
            hist.observe(float(value))
        assert hist.count == 50_000
        assert len(hist._samples) <= 2048
        # Thinning keeps quantiles within a few percent of the truth.
        for q in (0.5, 0.95, 0.99):
            truth = float(np.quantile(values, q))
            assert hist.quantile(q) == pytest.approx(truth, rel=0.1)
        assert hist.mean == pytest.approx(float(values.mean()))

    def test_quantile_bounds_checked(self):
        hist = Histogram("h")
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_empty_histogram_is_zero(self):
        hist = Histogram("h")
        assert hist.quantile(0.5) == 0.0
        assert hist.mean == 0.0


class TestSpan:
    def test_span_records_elapsed_seconds(self):
        registry = MetricsRegistry()
        with registry.span("work") as span:
            sum(range(1000))
        assert span.elapsed_s >= 0.0
        assert registry.histogram("work").count == 1
        assert "work" in registry.spans()

    def test_spans_exclude_data_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("sim.recovery_delay_s").observe(1.0)
        with registry.span("sim.flow"):
            pass
        assert set(registry.spans()) == {"sim.flow"}
        assert [name for name, _, _ in registry.slowest_spans()] == ["sim.flow"]


class TestReportSnapshot:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["p99"] == 3.0

    def test_report_lines(self):
        registry = MetricsRegistry()
        registry.counter("sim.flows").inc(7)
        lines = registry.report()
        assert any("sim.flows" in line and "7" in line for line in lines)

    def test_empty_report(self):
        assert MetricsRegistry().report() == ["(no metrics recorded)"]


class TestNullRegistry:
    def test_disabled_and_inert(self):
        assert NULL_METRICS.enabled is False
        NULL_METRICS.counter("x").inc(100)
        NULL_METRICS.gauge("x").set(5.0)
        NULL_METRICS.histogram("x").observe(1.0)
        with NULL_METRICS.span("x"):
            pass
        assert NULL_METRICS.counter("x").value == 0
        assert NULL_METRICS.histogram("x").percentiles() == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_null_span_is_shared(self):
        assert NULL_METRICS.span("a") is NULL_METRICS.span("b")


class TestGlobalRegistry:
    def test_default_is_null(self):
        assert get_metrics() is NULL_METRICS

    def test_set_and_clear(self):
        registry = MetricsRegistry()
        try:
            assert set_metrics(registry) is registry
            assert get_metrics() is registry
        finally:
            set_metrics(None)
        assert get_metrics() is NULL_METRICS

    def test_scoped_use(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert get_metrics() is registry
        assert get_metrics() is NULL_METRICS

    def test_ml_fit_predict_record_spans(self, trained_forest, main_dataset):
        rows = main_dataset.feature_matrix()[:5]
        registry = MetricsRegistry()
        with use_metrics(registry):
            trained_forest.predict(rows)
        # One fused walk over every tree: a forest-level span only.
        assert registry.histogram("ml.forest.predict").count == 1
        assert registry.histogram("ml.tree.predict").count == 0
        registry = MetricsRegistry()
        with use_metrics(registry):
            trained_forest.trees_[0].predict(rows)
        assert registry.histogram("ml.tree.predict").count == 1
        assert registry.histogram("ml.forest.predict").count == 0
