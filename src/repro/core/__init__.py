"""MBI core: block tree, incremental construction, and query processing."""

from .backends import (
    BackendOutcome,
    BlockBackend,
    GraphBackend,
    available_backends,
    register_backend,
)
from .block import Block
from .brute import brute_force_topk
from .config import (
    IVFConfig,
    IVFPQConfig,
    LSHParams,
    MBIConfig,
    SearchParams,
    TieringConfig,
)
from .mbi import MultiLevelBlockIndex
from .results import QueryResult, QueryStats, merge_partial_results
from .selection import select_blocks
from .shardmap import ShardPlan, prune_shards
from .tuning import TauCalibration, TauTuner

__all__ = [
    "BackendOutcome",
    "Block",
    "BlockBackend",
    "GraphBackend",
    "IVFConfig",
    "IVFPQConfig",
    "LSHParams",
    "MBIConfig",
    "MultiLevelBlockIndex",
    "QueryResult",
    "QueryStats",
    "SearchParams",
    "ShardPlan",
    "TauCalibration",
    "TauTuner",
    "TieringConfig",
    "available_backends",
    "brute_force_topk",
    "merge_partial_results",
    "prune_shards",
    "register_backend",
    "select_blocks",
]
