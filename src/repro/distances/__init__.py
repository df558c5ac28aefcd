"""Distance metrics and vectorised kernels used by every index in the library."""

from .fused import (
    RANK_DTYPE,
    FusedQuery,
    NormCache,
    StoreNormCache,
    as_fused_points,
    row_norms,
    row_sq_norms,
    scan_topk,
)
from .kernels import top_k_smallest
from .metrics import (
    ANGULAR,
    EUCLIDEAN,
    INNER_PRODUCT,
    SQEUCLIDEAN,
    Metric,
    available_metrics,
    register_metric,
    resolve_metric,
)

__all__ = [
    "ANGULAR",
    "EUCLIDEAN",
    "INNER_PRODUCT",
    "SQEUCLIDEAN",
    "RANK_DTYPE",
    "FusedQuery",
    "Metric",
    "NormCache",
    "StoreNormCache",
    "as_fused_points",
    "available_metrics",
    "register_metric",
    "resolve_metric",
    "row_norms",
    "row_sq_norms",
    "scan_topk",
    "top_k_smallest",
]
