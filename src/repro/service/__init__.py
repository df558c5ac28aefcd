"""The serving layer: concurrent, durable TkNN over MBI.

The paper assumes data *accumulates while queries run*; this package makes
that operational (see ``docs/serving.md``):

* :class:`IndexService` — single-writer/multi-reader wrapper around
  :class:`~repro.core.mbi.MultiLevelBlockIndex` with write-ahead logging,
  periodic snapshots, crash recovery, background block builds, and an
  admission-controlled (bounded, deadline-aware, micro-batching) query
  front end;
* :mod:`repro.service.wal` — the CRC-checked append-only log;
* :mod:`repro.service.server` — a stdlib-only HTTP frontend
  (``repro serve`` on the CLI).
"""

from .admission import AdmissionQueue, QueryRequest
from .locks import RWLock
from .server import make_server, serve_until_signal
from .service import IndexService, RecoveryReport, ServiceConfig
from .wal import (
    FSYNC_POLICIES,
    ReplayResult,
    WalRecord,
    WriteAheadLog,
    replay_wal,
)

__all__ = [
    "AdmissionQueue",
    "FSYNC_POLICIES",
    "IndexService",
    "QueryRequest",
    "RWLock",
    "RecoveryReport",
    "ReplayResult",
    "ServiceConfig",
    "WalRecord",
    "WriteAheadLog",
    "make_server",
    "replay_wal",
    "serve_until_signal",
]
