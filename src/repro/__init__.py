"""repro — Multi-level Block Indexing for time-restricted kNN search.

A from-scratch Python reproduction of *"Efficient Proximity Search in
Time-accumulating High-dimensional Data using Multi-level Block Indexing"*
(Han, Kim & Park, EDBT 2024).

Quick start::

    import numpy as np
    from repro import MultiLevelBlockIndex, MBIConfig

    index = MultiLevelBlockIndex(dim=64, metric="angular",
                                 config=MBIConfig(leaf_size=512))
    for t, vector in enumerate(stream_of_vectors):
        index.insert(vector, timestamp=float(t))
    result = index.search(query_vector, k=10, t_start=100.0, t_end=900.0)

The package is organised as:

* :mod:`repro.core` — MBI itself (block tree, insertion, query processing);
* :mod:`repro.baselines` — BSBF, SF, the exact oracle, and best-of(BSBF, SF);
* :mod:`repro.graph` — the graph-ANN substrate (NNDescent, pruning, search);
* :mod:`repro.storage` — timestamped append-only vector storage;
* :mod:`repro.distances` — metrics and vectorised kernels;
* :mod:`repro.datasets` — synthetic datasets, workloads, ground truth;
* :mod:`repro.eval` — recall, timing, epsilon sweeps, experiment runners;
* :mod:`repro.service` — the concurrent, durable serving layer (WAL +
  snapshots + admission control; ``repro serve`` / ``repro ingest``);
* :mod:`repro.sharding` — scatter-gather serving across N worker shards
  (``repro serve --shards N``), bit-identical to a single process.
"""

from .baselines import BSBFIndex, BestOfBaselines, ExactOracle, SFIndex
from .core import (
    Block,
    BlockBackend,
    GraphBackend,
    IVFConfig,
    IVFPQConfig,
    LSHParams,
    MBIConfig,
    MultiLevelBlockIndex,
    QueryResult,
    QueryStats,
    SearchParams,
    TauTuner,
    TieringConfig,
)
from .core.persistence import load_index, save_index
from .distances import Metric, available_metrics, resolve_metric
from .exceptions import (
    AdmissionError,
    ConfigurationError,
    DatasetError,
    DeadlineExceededError,
    DimensionMismatchError,
    EmptyIndexError,
    InvalidQueryError,
    PersistenceError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ShardError,
    ShardUnavailableError,
    TimestampOrderError,
    UnknownMetricError,
    VectorInputError,
    WalCorruptionError,
)
from .faultinject import Failpoints, failpoint, get_failpoints
from .graph import GraphConfig, NNDescentParams
from .observability import (
    MetricsRegistry,
    QueryTrace,
    StitchedTrace,
    TelemetryConfig,
    TraceContext,
    TraceSummary,
    configure_telemetry,
    get_registry,
    get_telemetry,
    summarize_traces,
)
from .service import IndexService, ServiceConfig, WriteAheadLog

# Imported after .service: the sharding package builds on IndexService,
# so it must not load while repro.service is still initialising.
from .sharding import RouterConfig, ShardCluster, ShardedResult, ShardRouter
from .storage import TimeWindow, VectorStore

# Imported after .service: the tiering package uses the service's RWLock,
# so it must not load while repro.service is still initialising.
from .tiering import BlockCache, Compactor, TierManager

__version__ = "1.0.0"

__all__ = [
    "AdmissionError",
    "BSBFIndex",
    "BestOfBaselines",
    "Block",
    "BlockBackend",
    "BlockCache",
    "Compactor",
    "ConfigurationError",
    "DatasetError",
    "DeadlineExceededError",
    "DimensionMismatchError",
    "EmptyIndexError",
    "ExactOracle",
    "Failpoints",
    "GraphBackend",
    "GraphConfig",
    "IVFConfig",
    "IVFPQConfig",
    "IndexService",
    "InvalidQueryError",
    "LSHParams",
    "MBIConfig",
    "Metric",
    "MetricsRegistry",
    "MultiLevelBlockIndex",
    "NNDescentParams",
    "PersistenceError",
    "QueryResult",
    "QueryStats",
    "QueryTrace",
    "ReproError",
    "RouterConfig",
    "SFIndex",
    "SearchParams",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "ShardCluster",
    "ShardError",
    "ShardRouter",
    "ShardUnavailableError",
    "ShardedResult",
    "StitchedTrace",
    "TauTuner",
    "TelemetryConfig",
    "TierManager",
    "TieringConfig",
    "TimeWindow",
    "TimestampOrderError",
    "TraceContext",
    "TraceSummary",
    "UnknownMetricError",
    "VectorInputError",
    "VectorStore",
    "WalCorruptionError",
    "WriteAheadLog",
    "available_metrics",
    "configure_telemetry",
    "failpoint",
    "get_failpoints",
    "get_registry",
    "get_telemetry",
    "load_index",
    "resolve_metric",
    "save_index",
    "summarize_traces",
    "__version__",
]
