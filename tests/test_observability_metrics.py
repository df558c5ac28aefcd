"""Unit tests of the metrics registry (counters, gauges, histograms)."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_states,
    get_registry,
    quantile_from_buckets,
    render_prometheus,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increments(self):
        c = Counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("x")
        g.set(10)
        g.inc(-3)
        assert g.value == 7.0

    def test_peak_is_a_high_water_mark(self):
        g = Gauge("x")
        g.set(10)
        g.set(4)
        g.inc(2)
        assert g.value == 6.0
        assert g.peak == 10.0
        g.inc(7)
        assert g.peak == 13.0

    def test_observe_is_an_alias_of_set(self):
        g = Gauge("x")
        g.observe(3.5)
        assert g.value == 3.5
        g.observe(1.0)
        assert (g.value, g.peak) == (1.0, 3.5)

    def test_dump_restore_round_trips_value_and_peak(self):
        g = Gauge("x")
        g.set(9)
        g.set(2)
        state = g._export()
        g.set(100)
        g._restore(state)
        assert (g.value, g.peak) == (2.0, 9.0)


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = Histogram("x_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)
        buckets = h.buckets()
        assert buckets[0.1] == 1
        assert buckets[1.0] == 2
        assert buckets[math.inf] == 3

    def test_mean_of_empty_histogram_is_nan(self):
        assert math.isnan(Histogram("x").mean)

    def test_rejects_non_ascending_buckets(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("x", buckets=())


class TestQuantiles:
    """ISSUE 10 satellite: bucket quantiles with linear interpolation."""

    def test_empty_histogram_is_nan(self):
        assert math.isnan(Histogram("x", buckets=(0.1, 1.0)).quantile(0.5))
        assert math.isnan(quantile_from_buckets((0.1, 1.0), [0, 0, 0], 0.9))

    def test_linear_interpolation_within_bucket(self):
        # 2 observations in (0, 0.1], 2 in (0.1, 1.0], none past 1.0.
        bounds, counts = (0.1, 1.0), [2, 2, 0]
        # rank 2.0 lands exactly on the first bucket's upper edge.
        assert quantile_from_buckets(bounds, counts, 0.5) == pytest.approx(0.1)
        # rank 3.0 is halfway through the second bucket: 0.1 + 0.9/2.
        assert quantile_from_buckets(bounds, counts, 0.75) == pytest.approx(
            0.55
        )
        assert quantile_from_buckets(bounds, counts, 1.0) == pytest.approx(1.0)

    def test_overflow_bucket_collapses_to_last_finite_bound(self):
        # All mass past the last finite bound: fixed buckets cannot
        # resolve the tail, so every quantile reports that bound.
        assert quantile_from_buckets((0.1, 1.0), [0, 0, 5], 0.99) == 1.0
        assert quantile_from_buckets((0.1, 1.0), [1, 0, 9], 0.99) == 1.0

    def test_histogram_quantile_delegates(self):
        h = Histogram("x_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        # rank 1.5: halfway through the (0.1, 1.0] bucket's single count.
        assert h.quantile(0.5) == pytest.approx(0.55)
        assert h.quantile(0.99) == 1.0

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            quantile_from_buckets((0.1,), [1, 1], 1.5)
        with pytest.raises(ValueError):
            quantile_from_buckets((0.1,), [1, 1], -0.1)
        with pytest.raises(ValueError):
            quantile_from_buckets((0.1, 1.0), [1, 1], 0.5)  # missing +inf


class TestPrometheusRender:
    """ISSUE 10 satellite: text exposition format 0.0.4 conformance."""

    def _state(self):
        r = MetricsRegistry()
        r.counter("c_total", "a counter").inc(3)
        r.gauge("g", "a gauge").set(1.5)
        h = r.histogram("h_seconds", "a histogram", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        return r.export_state()

    def test_help_and_type_headers(self):
        text = render_prometheus(self._state())
        assert "# HELP c_total a counter\n# TYPE c_total counter" in text
        assert "# HELP g a gauge\n# TYPE g gauge" in text
        assert (
            "# HELP h_seconds a histogram\n# TYPE h_seconds histogram" in text
        )

    def test_scalar_samples(self):
        text = render_prometheus(self._state())
        assert "\nc_total 3\n" in text
        assert "\ng 1.5\n" in text

    def test_histogram_buckets_are_cumulative_and_end_in_inf(self):
        text = render_prometheus(self._state())
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="1"} 2' in text
        assert 'h_seconds_bucket{le="+Inf"} 3' in text
        assert "h_seconds_sum 5.55" in text
        assert "h_seconds_count 3" in text
        # +Inf is the last bucket line, before _sum and _count.
        lines = text.splitlines()
        bucket_lines = [i for i, l in enumerate(lines) if "_bucket" in l]
        assert lines[bucket_lines[-1]].startswith('h_seconds_bucket{le="+Inf"')
        assert lines[bucket_lines[-1] + 1].startswith("h_seconds_sum")
        assert lines[bucket_lines[-1] + 2].startswith("h_seconds_count")

    def test_every_line_is_comment_or_sample(self):
        # Conformance: the exposition is line-oriented; each line is a
        # `# HELP`/`# TYPE` comment or a `name{labels} value` sample.
        text = render_prometheus(self._state())
        assert text.endswith("\n")
        for line in text.rstrip("\n").splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                name, value = line.rsplit(" ", 1)
                assert name
                float(value)  # every sample value parses as a float

    def test_empty_state_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            render_prometheus({"x": {"kind": "summary", "value": 1}})


class TestExportState:
    def test_export_is_json_safe_and_self_describing(self):
        import json

        r = MetricsRegistry()
        r.counter("c_total", "help c").inc(2)
        r.gauge("g").set(7)
        r.gauge("g").set(3)
        r.histogram("h", buckets=(1.0,)).observe(0.5)
        state = json.loads(json.dumps(r.export_state()))
        assert state["c_total"] == {
            "kind": "counter",
            "help": "help c",
            "value": 2.0,
        }
        assert state["g"]["kind"] == "gauge"
        assert (state["g"]["value"], state["g"]["peak"]) == (3.0, 7.0)
        assert state["h"] == {
            "kind": "histogram",
            "help": "",
            "bounds": [1.0],
            "counts": [1, 0],
            "sum": 0.5,
            "count": 1,
        }


    def test_restore_takes_a_strict_json_export(self):
        import json

        r = MetricsRegistry()
        c = r.counter("c_total")
        g = r.gauge("g")
        h = r.histogram("h", buckets=(1.0, 2.0))
        c.inc(4)
        g.set(9)
        g.set(-1)
        h.observe(0.5)
        h.observe(1.5)
        h.observe(7.0)
        text = json.dumps(r.export_state(), allow_nan=False)
        r.reset()
        r.restore_state(json.loads(text))
        assert c.value == 4.0
        assert (g.value, g.peak) == (-1.0, 9.0)
        assert h.buckets() == {1.0: 1, 2.0: 2, math.inf: 3}
        assert (h.count, h.sum) == (3, 9.0)

    def test_restore_rejects_a_histogram_of_another_shape(self):
        r = MetricsRegistry()
        r.histogram("h", buckets=(1.0, 2.0))
        state = r.export_state()
        state["h"]["counts"] = [0, 0]
        with pytest.raises(ValueError, match="buckets"):
            r.restore_state(state)


class TestSnapshot:
    """``snapshot()`` is read by benchmarks/layered: its dict is pinned."""

    def test_snapshot_is_pinned(self):
        r = MetricsRegistry()
        r.counter("b_total").inc(3)
        r.gauge("a").set(-2.5)
        h = r.histogram("h", buckets=(1.0,))
        h.observe(0.25)
        h.observe(4.0)
        r.histogram("empty")
        snap = r.snapshot()
        assert list(snap) == ["a", "b_total", "empty", "h"]
        assert snap["a"] == -2.5 and snap["b_total"] == 3.0
        assert snap["h"] == {"count": 2.0, "sum": 4.25, "mean": 2.125}
        assert snap["empty"]["count"] == 0.0 and snap["empty"]["sum"] == 0.0
        assert math.isnan(snap["empty"]["mean"])
        assert all(type(v) is float for v in snap["h"].values())

    def test_process_registry_snapshot_matches_live_metrics(self, clustered_data):
        from repro import MultiLevelBlockIndex

        from .conftest import small_mbi_config

        vectors, timestamps, queries = clustered_data
        index = MultiLevelBlockIndex(
            vectors.shape[1], "euclidean", small_mbi_config(leaf_size=100)
        )
        index.extend(vectors, timestamps)
        index.search(queries[0], 5, 10.0, 90.0)
        registry = get_registry()
        snap = registry.snapshot()
        assert list(snap) == sorted(registry.names())
        for name, value in snap.items():
            metric = registry.get(name)
            if isinstance(metric, Histogram):
                assert value["count"] == float(metric.count)
                assert value["sum"] == metric.sum
                assert value["mean"] == metric.mean or (
                    math.isnan(value["mean"]) and math.isnan(metric.mean)
                )
            else:
                assert value == metric.value


class TestAggregateStates:
    """ISSUE 10 tentpole: the router's fleet-metrics merge."""

    def _worker_state(self, counter=1.0, gauge=2.0, observations=(0.5,)):
        r = MetricsRegistry()
        r.counter("c_total").inc(counter)
        r.gauge("g").set(gauge)
        h = r.histogram("h", buckets=(1.0, 2.0))
        for v in observations:
            h.observe(v)
        return r.export_state()

    def test_counters_and_gauges_sum(self):
        merged = aggregate_states(
            [self._worker_state(1.0, 2.0), self._worker_state(10.0, 20.0)]
        )
        assert merged["c_total"]["value"] == 11.0
        assert merged["g"]["value"] == 22.0
        assert merged["g"]["peak"] == 22.0

    def test_histograms_merge_bucket_wise(self):
        merged = aggregate_states(
            [
                self._worker_state(observations=(0.5, 1.5)),
                self._worker_state(observations=(0.5, 5.0)),
            ]
        )
        h = merged["h"]
        assert h["counts"] == [2, 1, 1]
        assert h["count"] == 4
        assert h["sum"] == pytest.approx(7.5)

    def test_none_sentinel_is_skipped(self):
        # InProcessTransport.metrics_state() returns None because its
        # "worker" already reports into the caller's registry; the merge
        # must not double count (or crash on) such entries.
        state = self._worker_state()
        merged = aggregate_states([state, None, None])
        assert merged["c_total"]["value"] == state["c_total"]["value"]

    def test_mismatched_bounds_fold_into_overflow(self):
        a = self._worker_state(observations=(0.5,))
        b = MetricsRegistry()
        hb = b.histogram("h", buckets=(10.0,))
        hb.observe(3.0)
        hb.observe(30.0)
        merged = aggregate_states([a, b.export_state()])
        h = merged["h"]
        # First-seen bounds win; the stranger's 2 observations land in +inf.
        assert h["bounds"] == [1.0, 2.0]
        assert h["counts"] == [1, 0, 2]
        assert h["count"] == 3
        assert h["sum"] == pytest.approx(33.5)

    def test_kind_conflict_raises(self):
        a = MetricsRegistry()
        a.counter("x_total").inc()
        b = MetricsRegistry()
        b.gauge("x_total").set(1)
        with pytest.raises(ValueError):
            aggregate_states([a.export_state(), b.export_state()])

    def test_merge_of_nothing_is_empty(self):
        assert aggregate_states([]) == {}
        assert aggregate_states([None]) == {}

    def test_aggregated_state_renders_as_prometheus(self):
        merged = aggregate_states(
            [self._worker_state(), self._worker_state()]
        )
        text = render_prometheus(merged)
        assert "c_total 2" in text
        assert 'h_bucket{le="+Inf"} 2' in text


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        r = MetricsRegistry()
        assert r.counter("a_total") is r.counter("a_total")
        assert r.gauge("g") is r.gauge("g")
        assert r.histogram("h") is r.histogram("h")

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("a_total")
        with pytest.raises(ValueError):
            r.gauge("a_total")

    def test_every_kind_pair_collides(self):
        """ISSUE 10 satellite: all six cross-kind registrations refuse."""
        kinds = ("counter", "gauge", "histogram")
        for first in kinds:
            for second in kinds:
                if first == second:
                    continue
                r = MetricsRegistry()
                getattr(r, first)("x")
                with pytest.raises(ValueError, match="registered as"):
                    getattr(r, second)("x")

    def test_name_validation(self):
        r = MetricsRegistry()
        for bad in ("", "Bad", "1abc", "has-dash", "has space"):
            with pytest.raises(ValueError):
                r.counter(bad)

    def test_snapshot_includes_all_kinds(self):
        r = MetricsRegistry()
        r.counter("c_total").inc(2)
        r.gauge("g").set(7)
        r.histogram("h").observe(0.5)
        snap = r.snapshot()
        assert snap["c_total"] == 2.0
        assert snap["g"] == 7.0
        assert snap["h"]["count"] == 1.0
        assert snap["h"]["mean"] == pytest.approx(0.5)

    def test_reset_zeroes_in_place_keeping_handles(self):
        r = MetricsRegistry()
        c = r.counter("c_total")
        h = r.histogram("h")
        c.inc(5)
        h.observe(1.0)
        r.reset()
        assert c.value == 0.0
        assert h.count == 0
        # The handle is still the registered object and still works.
        c.inc()
        assert r.counter("c_total").value == 1.0

    def test_dump_then_restore_roundtrips_exactly(self):
        """ISSUE 2 satellite: snapshot-restore hook for test isolation."""
        r = MetricsRegistry()
        c = r.counter("c_total")
        g = r.gauge("g")
        h = r.histogram("h", buckets=(1.0, 2.0))
        c.inc(3)
        g.set(-2.5)
        h.observe(0.5)
        h.observe(1.5)
        state = r.export_state()
        c.inc(100)
        g.set(99.0)
        for _ in range(50):
            h.observe(5.0)
        r.restore_state(state)
        assert c.value == 3.0
        assert g.value == -2.5
        assert h.count == 2
        assert h.sum == 2.0
        # Bucket-level restoration, not just totals.
        assert h.buckets()[1.0] == 1
        assert h.buckets()[2.0] == 2
        assert r.export_state()["h"]["counts"] == [1, 1, 0]

    def test_restore_resets_metrics_created_after_dump(self):
        r = MetricsRegistry()
        state = r.export_state()
        late = r.counter("late_total")
        late.inc(7)
        r.restore_state(state)
        assert late.value == 0.0  # not in the snapshot -> reset
        late.inc()  # handle survives restoration
        assert r.counter("late_total").value == 1.0

    def test_restore_keeps_handles_identity(self):
        r = MetricsRegistry()
        c = r.counter("c_total")
        state = r.export_state()
        r.restore_state(state)
        assert r.counter("c_total") is c

    def test_thread_safety_under_contention(self):
        r = MetricsRegistry()
        c = r.counter("c_total")
        h = r.histogram("h")

        def work():
            for _ in range(1000):
                c.inc()
                h.observe(0.01)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000
        assert h.count == 8000


class TestProcessRegistryIntegration:
    def test_default_registry_is_a_singleton(self):
        assert get_registry() is get_registry()

    def test_mbi_operations_report_into_default_registry(self):
        from tests.conftest import small_mbi_config

        from repro import MultiLevelBlockIndex

        registry = get_registry()
        built_before = registry.counter("mbi_build_blocks_total").value
        queries_before = registry.counter("mbi_search_queries_total").value
        evals_before = registry.counter(
            "mbi_search_distance_evals_total"
        ).value

        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((256, 8)).astype(np.float32)
        timestamps = np.arange(256, dtype=np.float64)
        index = MultiLevelBlockIndex(
            8, "euclidean", small_mbi_config(leaf_size=64)
        )
        index.extend(vectors, timestamps)
        result = index.search(vectors[0], 5, 10.0, 200.0)

        assert registry.counter("mbi_build_blocks_total").value >= (
            built_before + 4
        )
        assert (
            registry.counter("mbi_search_queries_total").value
            == queries_before + 1
        )
        spent = (
            registry.counter("mbi_search_distance_evals_total").value
            - evals_before
        )
        assert spent == result.stats.distance_evaluations

    def test_bsbf_reports_into_default_registry(self):
        from repro import BSBFIndex

        registry = get_registry()
        before = registry.counter("baseline_bsbf_distance_evals_total").value
        rng = np.random.default_rng(1)
        bsbf = BSBFIndex(4)
        bsbf.extend(
            rng.standard_normal((50, 4)), np.arange(50, dtype=np.float64)
        )
        result = bsbf.search(np.zeros(4), 3, 5.0, 25.0)
        spent = (
            registry.counter("baseline_bsbf_distance_evals_total").value
            - before
        )
        assert spent == result.stats.distance_evaluations == 20

    def test_graph_search_reports_into_default_registry(self):
        from repro.graph.builder import build_knn_graph
        from repro.graph.search import graph_search

        registry = get_registry()
        before = registry.counter("graph_search_calls_total").value
        rng = np.random.default_rng(2)
        points = rng.standard_normal((64, 4)).astype(np.float32)
        from repro.distances.metrics import resolve_metric

        metric = resolve_metric("euclidean")
        report = build_knn_graph(points, metric)
        graph_search(report.graph, points, metric, points[0], 3)
        assert registry.counter("graph_search_calls_total").value == before + 1
        assert registry.counter("graph_build_calls_total").value > 0
