"""Distance metric objects and the metric registry.

The paper's distance function ``sigma`` is abstract ("any distance measure
including the euclidean distance can be used").  We model it as a frozen
:class:`Metric` value object bundling the three kernel variants, and keep a
registry mapping the names used in the paper's Table 2 (``euclidean``,
``angular``) plus two extras (``sqeuclidean``, ``ip``) to singleton
instances.

Indexes accept either a :class:`Metric` or its registry name, resolved via
:func:`resolve_metric`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..exceptions import UnknownMetricError
from . import kernels

PairwiseFn = Callable[[np.ndarray, np.ndarray], float]
BatchFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
CrossFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
RowwiseFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _generic_rowwise(batch: BatchFn) -> RowwiseFn:
    """Fallback rowwise kernel built from a batch kernel (Python loop).

    One ``batch`` call per run of equal consecutive query rows, so a flat
    list of ``(query, candidate)`` pairs grouped by query (NN-descent's
    merge gathers its pairs that way) costs one call per query.
    """

    def rowwise(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        m, width = candidates.shape[:2]
        out = np.empty((m, width), dtype=np.float64)
        starts = np.flatnonzero(
            np.r_[m > 0, (queries[1:] != queries[:-1]).any(axis=1)]
        )
        for start, stop in zip(starts, [*starts[1:], m]):
            out[start:stop] = batch(
                queries[start], candidates[start:stop].reshape(-1, candidates.shape[2])
            ).reshape(stop - start, width)
        return out

    return rowwise


@dataclass(frozen=True)
class Metric:
    """A distance function with pairwise, one-to-many, and many-to-many forms.

    Attributes:
        name: Registry name, e.g. ``"euclidean"``.
        pairwise: Distance between two 1-D vectors.
        batch: Distances from one query vector to every row of a matrix.
        cross: All-pairs distances between the rows of two matrices.
        normalizes: Whether the metric is invariant to vector scale (true for
            angular distance); dataset generators use this to decide whether
            to pre-normalise vectors.
    """

    name: str
    pairwise: PairwiseFn = field(repr=False)
    batch: BatchFn = field(repr=False)
    cross: CrossFn = field(repr=False)
    rowwise: RowwiseFn | None = field(repr=False, default=None)
    normalizes: bool = False

    def __post_init__(self) -> None:
        if self.rowwise is None:
            object.__setattr__(self, "rowwise", _generic_rowwise(self.batch))

    def __call__(self, u: np.ndarray, v: np.ndarray) -> float:
        """Alias for :attr:`pairwise` so a metric reads like the paper's sigma."""
        return self.pairwise(u, v)


EUCLIDEAN = Metric(
    name="euclidean",
    pairwise=kernels.euclidean_pairwise,
    batch=kernels.euclidean_batch,
    cross=kernels.euclidean_cross,
    rowwise=kernels.euclidean_rowwise,
)

SQEUCLIDEAN = Metric(
    name="sqeuclidean",
    pairwise=kernels.squared_euclidean_pairwise,
    batch=kernels.squared_euclidean_batch,
    cross=kernels.squared_euclidean_cross,
    rowwise=kernels.squared_euclidean_rowwise,
)

ANGULAR = Metric(
    name="angular",
    pairwise=kernels.angular_pairwise,
    batch=kernels.angular_batch,
    cross=kernels.angular_cross,
    rowwise=kernels.angular_rowwise,
    normalizes=True,
)

INNER_PRODUCT = Metric(
    name="ip",
    pairwise=kernels.inner_product_pairwise,
    batch=kernels.inner_product_batch,
    cross=kernels.inner_product_cross,
    rowwise=kernels.inner_product_rowwise,
)

_REGISTRY: dict[str, Metric] = {
    metric.name: metric
    for metric in (EUCLIDEAN, SQEUCLIDEAN, ANGULAR, INNER_PRODUCT)
}

# Common aliases accepted for convenience.
_ALIASES: dict[str, str] = {
    "l2": "euclidean",
    "cosine": "angular",
    "inner_product": "ip",
    "dot": "ip",
}


def available_metrics() -> tuple[str, ...]:
    """Names of all registered metrics, sorted."""
    return tuple(sorted(_REGISTRY))


def register_metric(metric: Metric, *, overwrite: bool = False) -> None:
    """Add a custom metric to the registry.

    Args:
        metric: The metric to register under ``metric.name``.
        overwrite: Allow replacing an existing registration.

    Raises:
        ConfigurationError: If the name is taken and ``overwrite`` is false.
    """
    from ..exceptions import ConfigurationError

    if metric.name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"metric {metric.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[metric.name] = metric


def resolve_metric(metric: Metric | str) -> Metric:
    """Return a :class:`Metric`, resolving registry names and aliases.

    Args:
        metric: Either a :class:`Metric` instance (returned unchanged) or a
            name/alias such as ``"euclidean"``, ``"l2"``, ``"angular"``.

    Raises:
        UnknownMetricError: If the name is not registered.
    """
    if isinstance(metric, Metric):
        return metric
    name = _ALIASES.get(metric, metric)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownMetricError(metric, available_metrics()) from None
