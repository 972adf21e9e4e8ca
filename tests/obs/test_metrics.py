"""Metrics-registry unit tests."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter, Gauge, Histogram, Timer


def test_counter_increments_and_rejects_negatives():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_last_value_wins():
    g = Gauge()
    g.set(3)
    g.set(1.5)
    assert g.value == 1.5


def test_timer_arithmetic():
    t = Timer()
    t.record(2.0)
    t.record(4.0)
    assert t.count == 2
    assert t.total == 6.0
    assert t.mean == 3.0
    assert t.min == 2.0 and t.max == 4.0
    with pytest.raises(ValueError):
        t.record(-0.1)


def test_timer_context_manager_records_elapsed():
    t = Timer()
    with t.time():
        pass
    assert t.count == 1 and t.total >= 0.0


def test_timer_to_dict_empty_is_finite():
    d = Timer().to_dict()
    assert d["count"] == 0 and d["mean"] == 0.0 and d["min"] == 0.0


def test_histogram_summary_and_quantiles():
    h = Histogram()
    for v in range(1, 101):
        h.observe(v)
    assert h.count == 100
    assert h.mean == pytest.approx(50.5)
    assert h.min == 1 and h.max == 100
    assert h.quantile(0.0) == 1
    assert h.quantile(1.0) == 100
    assert 45 <= h.quantile(0.5) <= 56
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_sample_window_is_bounded():
    h = Histogram()
    for v in range(10_000):
        h.observe(v)
    assert h.count == 10_000  # exact counts survive
    assert len(h._sample) <= 1024  # quantile window bounded


def test_registry_get_or_create_identity():
    m = MetricsRegistry()
    assert m.counter("a.b") is m.counter("a.b")
    assert m.gauge("g") is m.gauge("g")
    assert m.timer("t") is m.timer("t")
    assert m.histogram("h") is m.histogram("h")


def test_registry_time_shorthand():
    m = MetricsRegistry()
    with m.time("phase.x_s"):
        pass
    assert m.timer("phase.x_s").count == 1


def test_registry_export_roundtrips_through_json():
    m = MetricsRegistry()
    m.counter("campaign.tests").inc(12)
    m.gauge("prune.reduction").set(0.97)
    m.timer("phase.profile_s").record(0.5)
    m.histogram("campaign.point_error_rate").observe(0.25)
    d = json.loads(m.to_json())
    assert d == m.to_dict()
    assert d["counters"]["campaign.tests"] == 12
    assert d["gauges"]["prune.reduction"] == 0.97
    assert d["timers"]["phase.profile_s"]["count"] == 1
    assert d["histograms"]["campaign.point_error_rate"]["mean"] == 0.25


def test_from_dict_rebuilds_counters_gauges_and_timers():
    """A unit's metrics are stored as ``to_dict()`` JSON: reading them
    back and merging gives what merging the live registry gives."""
    m = MetricsRegistry()
    m.counter("campaign.tests").inc(12)
    m.gauge("snapshot.width").set(2)
    m.timer("exec.unit_s").record(0.5)
    m.timer("exec.unit_s").record(0.125)
    m.timer("snapshot.prefix_s")  # created, never recorded
    m.timer("sim.steps", unit="steps").record(40)
    back = MetricsRegistry.from_dict(json.loads(m.to_json()))
    assert back.to_dict() == m.to_dict()
    live, stored = MetricsRegistry(), MetricsRegistry()
    live.timer("exec.unit_s").record(1.0)
    stored.timer("exec.unit_s").record(1.0)
    live.merge(m)
    stored.merge(back)
    assert stored.to_dict() == live.to_dict()


def test_from_dict_refuses_histograms():
    """A histogram's quantile sample is not in ``to_dict()``."""
    m = MetricsRegistry()
    m.histogram("campaign.point_error_rate").observe(0.25)
    with pytest.raises(ValueError, match="histograms"):
        MetricsRegistry.from_dict(m.to_dict())
