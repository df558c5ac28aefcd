"""Unit tests for metric objects and the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances import (
    ANGULAR,
    EUCLIDEAN,
    INNER_PRODUCT,
    SQEUCLIDEAN,
    Metric,
    available_metrics,
    register_metric,
    resolve_metric,
)
from repro.exceptions import ConfigurationError, UnknownMetricError


class TestRegistry:
    def test_available_metrics_contains_the_four_builtins(self):
        names = available_metrics()
        for expected in ("angular", "euclidean", "ip", "sqeuclidean"):
            assert expected in names

    def test_resolve_by_name(self):
        assert resolve_metric("euclidean") is EUCLIDEAN
        assert resolve_metric("angular") is ANGULAR
        assert resolve_metric("sqeuclidean") is SQEUCLIDEAN
        assert resolve_metric("ip") is INNER_PRODUCT

    def test_resolve_aliases(self):
        assert resolve_metric("l2") is EUCLIDEAN
        assert resolve_metric("cosine") is ANGULAR
        assert resolve_metric("dot") is INNER_PRODUCT
        assert resolve_metric("inner_product") is INNER_PRODUCT

    def test_resolve_metric_instance_is_identity(self):
        assert resolve_metric(EUCLIDEAN) is EUCLIDEAN

    def test_unknown_name_raises_with_available_list(self):
        with pytest.raises(UnknownMetricError) as excinfo:
            resolve_metric("manhattan")
        assert "manhattan" in str(excinfo.value)
        assert "euclidean" in str(excinfo.value)

    def test_register_custom_metric_and_conflict(self):
        custom = Metric(
            name="test-l1",
            pairwise=lambda u, v: float(np.abs(u - v).sum()),
            batch=lambda q, pts: np.abs(pts - q).sum(axis=1),
            cross=lambda a, b: np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2),
        )
        register_metric(custom)
        assert resolve_metric("test-l1") is custom
        with pytest.raises(ConfigurationError):
            register_metric(custom)
        register_metric(custom, overwrite=True)  # no error


class TestMetricObject:
    def test_call_is_pairwise(self):
        u = np.array([0.0, 0.0])
        v = np.array([3.0, 4.0])
        assert EUCLIDEAN(u, v) == pytest.approx(5.0)

    def test_normalizes_flag(self):
        assert ANGULAR.normalizes
        assert not EUCLIDEAN.normalizes

    def test_generic_rowwise_fallback_matches_batch(self):
        custom = Metric(
            name="test-fallback",
            pairwise=lambda u, v: float(np.abs(u - v).sum()),
            batch=lambda q, pts: np.abs(pts - q).sum(axis=1),
            cross=lambda a, b: np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2),
        )
        rng = np.random.default_rng(1)
        queries = rng.standard_normal((3, 4))
        candidates = rng.standard_normal((3, 5, 4))
        rows = custom.rowwise(queries, candidates)
        for i in range(3):
            np.testing.assert_allclose(
                rows[i], custom.batch(queries[i], candidates[i])
            )

    def test_generic_rowwise_batches_each_run_of_one_query(self):
        """A flat gather of pairs grouped by query costs one call per query."""
        calls = []

        def batch(q, pts):
            calls.append(len(pts))
            return np.abs(pts - q).sum(axis=1)

        custom = Metric(name="test-runs", pairwise=None, batch=batch, cross=None)
        rng = np.random.default_rng(2)
        nodes = rng.standard_normal((4, 3))
        owner = np.array([0, 0, 0, 1, 2, 2, 0, 3])
        pairs = rng.standard_normal((len(owner), 1, 3))
        rows = custom.rowwise(nodes[owner], pairs)
        assert calls == [3, 1, 2, 1, 1]
        for i, node in enumerate(owner):
            np.testing.assert_array_equal(rows[i], batch(nodes[node], pairs[i]))
        assert custom.rowwise(nodes[:0], pairs[:0]).shape == (0, 1)

    def test_builtin_metrics_have_specialised_rowwise(self):
        for metric in (EUCLIDEAN, SQEUCLIDEAN, ANGULAR, INNER_PRODUCT):
            assert metric.rowwise is not None
