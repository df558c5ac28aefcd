"""Durability: snapshot+WAL recovery, determinism, and kill -9 survival.

The crown-jewel guarantee (ISSUE 2 acceptance): after ``SIGKILL``
mid-ingest, recovery (latest snapshot + WAL tail replay) yields an index
whose answers to a fixed query set *exactly* match a never-crashed
reference index built over the durable prefix.  Exactness works because
block builds are deterministic per block (seeded by
``(config.seed, block.index)``) regardless of when or where they run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import MultiLevelBlockIndex
from repro.core.config import MBIConfig, SearchParams
from repro.core.persistence import load_index
from repro.exceptions import PersistenceError
from repro.graph.builder import GraphConfig
from repro.observability.metrics import get_registry
from repro.service import IndexService, ServiceConfig
from repro.service.wal import WriteAheadLog

DIM = 8
LEAF = 16


def stream_vector(i: int) -> np.ndarray:
    """Deterministic ingest stream shared with the crash subprocess."""
    return (
        np.random.default_rng(10_000 + i).standard_normal(DIM).astype(
            np.float32
        )
    )


def fast_config() -> MBIConfig:
    return MBIConfig(
        leaf_size=LEAF,
        tau=0.5,
        graph=GraphConfig(n_neighbors=8, exact_threshold=100_000),
        search=SearchParams(epsilon=1.2, max_candidates=64),
    )


def reference_index(n: int) -> MultiLevelBlockIndex:
    index = MultiLevelBlockIndex(DIM, "euclidean", fast_config())
    for i in range(n):
        index.insert(stream_vector(i), float(i))
    return index


def fixed_queries(n: int = 8) -> np.ndarray:
    return np.random.default_rng(4242).standard_normal((n, DIM))


def assert_same_answers(
    got: MultiLevelBlockIndex, want: MultiLevelBlockIndex, k: int = 5
) -> None:
    for qi, query in enumerate(fixed_queries()):
        a = got.search(query, k, rng=np.random.default_rng(qi))
        b = want.search(query, k, rng=np.random.default_rng(qi))
        np.testing.assert_array_equal(
            a.positions, b.positions, err_msg=f"query {qi} positions differ"
        )
        np.testing.assert_allclose(a.distances, b.distances)


class TestCleanRecovery:
    def test_wal_only_recovery(self, tmp_path):
        with IndexService.open(
            tmp_path / "d",
            dim=DIM,
            mbi_config=fast_config(),
            config=ServiceConfig(fsync="never"),
        ) as svc:
            for i in range(70):
                svc.ingest(stream_vector(i), float(i))
        recovered = IndexService.open(tmp_path / "d")
        assert recovered.applied_records == 70
        assert recovered.last_recovery.replayed_records == 70
        assert recovered.last_recovery.snapshot_path is None
        assert_same_answers(recovered.index, reference_index(70))
        recovered.close()

    def test_snapshot_plus_tail_recovery(self, tmp_path):
        with IndexService.open(
            tmp_path / "d",
            dim=DIM,
            mbi_config=fast_config(),
            config=ServiceConfig(fsync="never", snapshot_every=40),
        ) as svc:
            for i in range(95):
                svc.ingest(stream_vector(i), float(i))
        recovered = IndexService.open(tmp_path / "d")
        report = recovered.last_recovery
        assert recovered.applied_records == 95
        assert report.snapshot_records == 80
        assert report.replayed_records == 15
        assert_same_answers(recovered.index, reference_index(95))
        recovered.close()

    def test_wal_record_with_an_infinite_timestamp_stops_recovery(self, tmp_path):
        # Ingest refuses an infinite timestamp; a log written before it
        # did can still hold one.  Recovery refuses to open rather than
        # drop the acknowledged row, and leaves the files as they are.
        data = tmp_path / "d"
        with IndexService.open(
            data,
            dim=DIM,
            mbi_config=fast_config(),
            config=ServiceConfig(fsync="never"),
        ) as svc:
            for i in range(20):
                svc.ingest(stream_vector(i), float(i))
        (segment,) = data.glob("wal-*.log")
        wal = WriteAheadLog(segment, DIM, fsync="never")
        wal.append(stream_vector(20), float("inf"))
        wal.close()
        before = {path.name: path.read_bytes() for path in data.iterdir()}
        with pytest.raises(PersistenceError, match="WAL record 20"):
            IndexService.open(data)
        assert {path.name: path.read_bytes() for path in data.iterdir()} == before

    def test_snapshot_with_an_infinite_timestamp_is_unreadable(self, tmp_path):
        # A PersistenceError, so recovery skips it as it skips any
        # unreadable snapshot, rather than failing with an input error.
        data = tmp_path / "d"
        with IndexService.open(
            data,
            dim=DIM,
            mbi_config=fast_config(),
            config=ServiceConfig(fsync="never"),
        ) as svc:
            for i in range(20):
                svc.ingest(stream_vector(i), float(i))
            snapshot = svc.checkpoint()
        with np.load(snapshot) as archive:
            arrays = dict(archive)
        arrays["timestamps"][-1] = np.inf
        np.savez(snapshot, **arrays)
        with pytest.raises(PersistenceError, match="refuses"):
            load_index(snapshot)

    def test_final_checkpoint_recovery_replays_nothing(self, tmp_path):
        svc = IndexService.open(
            tmp_path / "d", dim=DIM, mbi_config=fast_config()
        )
        for i in range(30):
            svc.ingest(stream_vector(i), float(i))
        svc.close(checkpoint=True)
        recovered = IndexService.open(tmp_path / "d")
        assert recovered.last_recovery.replayed_records == 0
        assert recovered.applied_records == 30
        recovered.close()

    def test_recovery_metrics(self, tmp_path):
        registry = get_registry()
        recoveries = registry.counter("service_recoveries_total")
        replayed = registry.counter("service_replayed_records_total")
        with IndexService.open(
            tmp_path / "d",
            dim=DIM,
            mbi_config=fast_config(),
            config=ServiceConfig(fsync="never"),
        ) as svc:
            for i in range(12):
                svc.ingest(stream_vector(i), float(i))
        r0, p0 = recoveries.value, replayed.value
        IndexService.open(tmp_path / "d").close()
        assert recoveries.value == r0 + 1
        assert replayed.value == p0 + 12

    def test_corrupt_snapshot_falls_back_to_older(self, tmp_path):
        with IndexService.open(
            tmp_path / "d",
            dim=DIM,
            mbi_config=fast_config(),
            config=ServiceConfig(fsync="never"),
        ) as svc:
            for i in range(50):
                svc.ingest(stream_vector(i), float(i))
            svc.checkpoint()
        # Fabricate a newer-but-corrupt snapshot: recovery must skip it
        # and replay from the good one (which has everything).
        (tmp_path / "d" / "snapshot-000000000060.npz").write_bytes(b"junk")
        recovered = IndexService.open(tmp_path / "d")
        assert recovered.applied_records == 50
        assert recovered.last_recovery.skipped_snapshots == 1
        assert_same_answers(recovered.index, reference_index(50))
        recovered.close()

    def test_replay_determinism_same_topk_before_and_after(self, tmp_path):
        """ISSUE 2 satellite: identical top-k before vs. after recovery."""
        svc = IndexService.open(
            tmp_path / "d",
            dim=DIM,
            mbi_config=fast_config(),
            config=ServiceConfig(fsync="never", snapshot_every=32),
        )
        for i in range(77):
            svc.ingest(stream_vector(i), float(i))
        svc.wait_builds()
        before = [
            svc.search(q, 5, rng=np.random.default_rng(qi))
            for qi, q in enumerate(fixed_queries())
        ]
        svc.close()
        recovered = IndexService.open(tmp_path / "d")
        after = [
            recovered.search(q, 5, rng=np.random.default_rng(qi))
            for qi, q in enumerate(fixed_queries())
        ]
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_allclose(a.distances, b.distances)
        recovered.close()


CRASH_SCRIPT = """
import sys
import numpy as np
from repro.core.config import MBIConfig, SearchParams
from repro.graph.builder import GraphConfig
from repro.service import IndexService, ServiceConfig

data_dir = sys.argv[1]
config = MBIConfig(
    leaf_size={leaf},
    tau=0.5,
    graph=GraphConfig(n_neighbors=8, exact_threshold=100_000),
    search=SearchParams(epsilon=1.2, max_candidates=64),
)
svc = IndexService.open(
    data_dir,
    dim={dim},
    mbi_config=config,
    config=ServiceConfig(fsync="always", snapshot_every=48),
)
i = svc.applied_records
print("READY", flush=True)
while True:  # ingest forever; the parent kill -9s us mid-stream
    vector = np.random.default_rng(10_000 + i).standard_normal({dim}).astype(
        np.float32
    )
    svc.ingest(vector, float(i))
    i += 1
"""


@pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX SIGKILL"
)
class TestKillAndRecover:
    def test_sigkill_mid_ingest_recovers_exactly(self, tmp_path):
        data_dir = tmp_path / "crashy"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = CRASH_SCRIPT.format(leaf=LEAF, dim=DIM)
        process = subprocess.Popen(
            [sys.executable, "-c", script, str(data_dir)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert process.stdout.readline().strip() == "READY"
            # Let it ingest past at least one automatic snapshot, then
            # kill -9 with zero warning.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                snapshots = (
                    list(data_dir.glob("snapshot-*.npz"))
                    if data_dir.exists()
                    else []
                )
                if snapshots:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("subprocess never reached a snapshot")

            # Wait for an observable WAL tail past the snapshot (>= 5 full
            # records in the rotated segment) instead of sleeping a fixed
            # interval and hoping the child was fast enough.  The condition
            # is exact, so the recovery below always replays snapshot +
            # non-empty tail, on any machine speed.
            record_bytes = 8 + 8 + DIM * 4  # prefix + timestamp + payload
            header_bytes = 16

            def tail_records() -> int:
                tails = [
                    path
                    for path in data_dir.glob("wal-*.log")
                    if int(path.stem.split("-")[1]) >= 48
                ]
                if not tails:
                    return 0
                newest = max(
                    tails, key=lambda p: int(p.stem.split("-")[1])
                )
                size = newest.stat().st_size - header_bytes
                return max(0, size) // record_bytes

            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if tail_records() >= 5:
                    break
                time.sleep(0.005)
            else:
                pytest.fail("subprocess never wrote a WAL tail past "
                            "the snapshot")
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

        recovered = IndexService.open(data_dir)
        n = recovered.applied_records
        report = recovered.last_recovery
        assert n >= 48, "snapshot existed, so at least 48 records are durable"
        # fsync=always means every acknowledged record is durable; the
        # recovered index must answer exactly like a never-crashed one.
        assert_same_answers(recovered.index, reference_index(n))
        # And the service must keep accepting writes right where it left off.
        recovered.ingest(stream_vector(n), float(n))
        assert recovered.applied_records == n + 1
        recovered.close()
        assert report is not None
