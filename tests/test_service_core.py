"""IndexService: ingest/query paths, admission control, checkpoints."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.config import MBIConfig, SearchParams
from repro.exceptions import (
    AdmissionError,
    DeadlineExceededError,
    DimensionMismatchError,
    InvalidQueryError,
    ServiceClosedError,
    ServiceError,
    TimestampOrderError,
    VectorInputError,
)
from repro.graph.builder import GraphConfig
from repro.observability.metrics import get_registry
from repro.observability.trace import QueryTrace
from repro.service import IndexService, ServiceConfig

DIM = 8


def fast_config(leaf_size: int = 32) -> MBIConfig:
    return MBIConfig(
        leaf_size=leaf_size,
        tau=0.5,
        graph=GraphConfig(n_neighbors=8, exact_threshold=100_000),
        search=SearchParams(epsilon=1.2, max_candidates=64),
    )


@pytest.fixture()
def service(tmp_path):
    svc = IndexService.open(
        tmp_path / "data",
        dim=DIM,
        mbi_config=fast_config(),
        config=ServiceConfig(fsync="never"),
    )
    yield svc
    svc.close()


def feed(svc: IndexService, n: int, seed: int = 0, start: int = 0) -> None:
    rng = np.random.default_rng(seed)
    for i in range(n):
        svc.ingest(rng.standard_normal(DIM), float(start + i))


class TestIngest:
    def test_positions_are_sequential(self, service):
        rng = np.random.default_rng(0)
        positions = [
            service.ingest(rng.standard_normal(DIM), float(i))
            for i in range(10)
        ]
        assert positions == list(range(10))
        assert service.applied_records == 10

    def test_background_builds_complete(self, service):
        feed(service, 100)  # leaf_size=32 -> three sealed leaves + merge
        service.wait_builds()
        built = [b for b in service.index.iter_blocks() if b.is_built]
        assert len(built) >= 3

    def test_bad_inputs_rejected_before_wal(self, service):
        wal_appends = get_registry().counter("service_wal_appends_total")
        before = wal_appends.value
        with pytest.raises(VectorInputError):
            service.ingest(np.full(DIM, np.nan), 0.0)
        with pytest.raises(VectorInputError):
            service.ingest(np.zeros(DIM), float("nan"))
        service.ingest(np.zeros(DIM), 5.0)
        with pytest.raises(TimestampOrderError):
            service.ingest(np.zeros(DIM), 4.0)
        assert wal_appends.value - before == 1  # only the valid ingest

    def test_ingest_batch(self, service):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((20, DIM))
        positions = service.ingest_batch(vectors, np.arange(20.0))
        assert positions == range(0, 20)

    @pytest.mark.parametrize(
        "bad",
        [
            ("vector", np.nan),
            ("vector", np.inf),
            ("timestamp", np.nan),
            ("timestamp", np.inf),
            ("timestamp", -np.inf),
            ("order", None),  # row 2 goes back in time
            ("before-latest", None),
            ("dim", None),
        ],
    )
    def test_refused_batch_leaves_store_and_wal_unchanged(self, service, bad):
        feed(service, 5)
        wal = sorted(service.data_dir.glob("wal-*.log"))
        wal_bytes = [path.read_bytes() for path in wal]
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((3, DIM))
        timestamps = np.array([5.0, 6.0, 7.0])
        kind, value = bad
        error = VectorInputError
        if kind == "vector":
            vectors[1, 3] = value
        elif kind == "timestamp":
            timestamps[1] = value
        elif kind == "order":
            timestamps[1] = 4.5
            error = TimestampOrderError
        elif kind == "before-latest":
            timestamps[0] = 3.0
            error = TimestampOrderError
        else:
            vectors = rng.standard_normal((3, DIM + 1))
            error = DimensionMismatchError
        with pytest.raises(error):
            service.ingest_batch(vectors, timestamps)
        assert len(service.index) == 5
        assert service.applied_records == 5
        assert sorted(service.data_dir.glob("wal-*.log")) == wal
        assert [path.read_bytes() for path in wal] == wal_bytes
        # The corrected batch goes in once, at the positions it would
        # have had.
        good = np.random.default_rng(3).standard_normal((3, DIM))
        assert service.ingest_batch(good, [5.0, 6.0, 7.0]) == range(5, 8)
        assert len(service.index) == 8

    @pytest.mark.parametrize("timestamp", [np.inf, -np.inf])
    def test_infinite_timestamp_is_refused(self, service, timestamp):
        service.ingest(np.zeros(DIM), 0.0)
        with pytest.raises(VectorInputError, match="infinite"):
            service.ingest(np.zeros(DIM), timestamp)
        with pytest.raises(VectorInputError, match="infinite"):
            service.ingest_batch(np.zeros((2, DIM)), [1.0, timestamp])
        # A later finite row is still accepted.
        assert service.ingest(np.zeros(DIM), 1.0) == 1

    def test_closed_service_rejects_ingest(self, tmp_path):
        svc = IndexService.open(
            tmp_path / "d", dim=DIM, mbi_config=fast_config()
        )
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.ingest(np.zeros(DIM), 0.0)


class TestQueries:
    def test_direct_search_matches_plain_index(self, tmp_path):
        svc = IndexService.open(
            tmp_path / "d",
            dim=DIM,
            mbi_config=fast_config(),
            config=ServiceConfig(fsync="never"),
        )
        feed(svc, 200)
        svc.wait_builds()
        from repro import MultiLevelBlockIndex

        reference = MultiLevelBlockIndex(DIM, "euclidean", fast_config())
        rng = np.random.default_rng(0)
        for i in range(200):
            reference.insert(rng.standard_normal(DIM), float(i))
        q = np.linspace(-1, 1, DIM)
        got = svc.search(q, k=5, rng=np.random.default_rng(7))
        want = reference.search(q, k=5, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(got.positions, want.positions)
        np.testing.assert_allclose(got.distances, want.distances)
        svc.close()

    def test_query_through_admission_queue(self, service):
        feed(service, 64)
        result = service.query(np.zeros(DIM), k=3)
        assert len(result) == 3

    def test_submit_returns_future(self, service):
        feed(service, 40)
        future = service.submit(np.zeros(DIM), k=2)
        result = future.result(timeout=5)
        assert len(result) == 2

    def test_traced_request_fills_trace(self, service):
        feed(service, 64)
        trace = QueryTrace()
        result = service.query(np.zeros(DIM), k=3, trace=trace)
        assert trace.stats is not None
        assert tuple(result.positions) == trace.result_positions

    def test_invalid_query_rejected_at_admission(self, service):
        feed(service, 10)
        with pytest.raises(InvalidQueryError):
            service.submit(np.zeros(DIM + 1), k=3)
        with pytest.raises(InvalidQueryError):
            service.submit(np.zeros(DIM), k=0)

    def test_expired_deadline_raises(self, service):
        feed(service, 10)
        # A deadline that has passed before the worker can dequeue it.
        future = service.submit(np.zeros(DIM), k=1, timeout=-1.0)
        with pytest.raises(DeadlineExceededError):
            future.result(timeout=5)
        expired = get_registry().counter("service_deadline_expired_total")
        assert expired.value >= 1

    def test_closed_service_rejects_queries(self, tmp_path):
        svc = IndexService.open(
            tmp_path / "d", dim=DIM, mbi_config=fast_config()
        )
        feed(svc, 5)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(np.zeros(DIM), k=1)

    def test_micro_batching_executes_batches(self, service):
        feed(service, 64)
        batches = get_registry().counter("service_batches_total")
        before = batches.value
        futures = [service.submit(np.zeros(DIM), k=2) for _ in range(16)]
        for future in futures:
            assert len(future.result(timeout=5)) == 2
        assert batches.value > before

    def test_inflight_returns_to_zero(self, service):
        feed(service, 32)
        futures = [service.submit(np.zeros(DIM), k=1) for _ in range(8)]
        for future in futures:
            future.result(timeout=5)
        deadline = time.monotonic() + 2.0
        gauge = get_registry().gauge("service_inflight")
        while gauge.value != 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gauge.value == 0


class TestAdmissionBounds:
    def test_queue_overflow_rejects(self, tmp_path):
        # Deterministic overload: hold the write lock so the worker blocks
        # before executing, then flood the bounded queue.
        svc = IndexService.open(
            tmp_path / "d",
            dim=DIM,
            mbi_config=fast_config(),
            config=ServiceConfig(fsync="never", max_queue=4),
        )
        feed(svc, 64)
        rejected_counter = get_registry().counter("service_rejected_total")
        before = rejected_counter.value
        svc._rwlock.acquire_write()
        try:
            futures = []
            rejected = 0
            for _ in range(20):
                try:
                    futures.append(svc.submit(np.linspace(0, 1, DIM), k=2))
                except AdmissionError:
                    rejected += 1
            # The worker may have dequeued at most one batch head before
            # blocking, so at least 20 - (4 + max_batch) must be rejected.
            assert rejected >= 1
            assert rejected_counter.value - before == rejected
        finally:
            svc._rwlock.release_write()
        for future in futures:
            future.result(timeout=5)  # admitted requests still complete
        svc.close()


class TestCheckpoint:
    def test_checkpoint_writes_snapshot_and_rotates(self, service):
        feed(service, 50)
        path = service.checkpoint()
        assert path.exists()
        assert path.name == "snapshot-000000000050.npz"
        segments = sorted(
            p.name for p in service.data_dir.iterdir() if p.suffix == ".log"
        )
        assert segments == ["wal-000000000050.log"]

    def test_automatic_checkpoints(self, tmp_path):
        svc = IndexService.open(
            tmp_path / "d",
            dim=DIM,
            mbi_config=fast_config(),
            config=ServiceConfig(fsync="never", snapshot_every=25),
        )
        feed(svc, 60)
        snapshots = [
            p.name
            for p in sorted(svc.data_dir.iterdir())
            if p.name.startswith("snapshot-")
        ]
        assert "snapshot-000000000050.npz" in snapshots
        # Superseded snapshots are garbage-collected.
        assert "snapshot-000000000025.npz" not in snapshots
        svc.close()

    def test_close_is_idempotent(self, service):
        service.close()
        service.close()


class TestConstruction:
    def test_fresh_dir_requires_dim(self, tmp_path):
        with pytest.raises(ServiceError):
            IndexService.open(tmp_path / "empty")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(fsync="bogus")
        with pytest.raises(ValueError):
            ServiceConfig(max_queue=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(snapshot_every=-1)

    def test_context_manager_closes(self, tmp_path):
        with IndexService.open(
            tmp_path / "d", dim=DIM, mbi_config=fast_config()
        ) as svc:
            feed(svc, 5)
        assert svc.closed
