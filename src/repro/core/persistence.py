"""Save/load snapshots of an MBI index.

A snapshot is a single ``.npz`` archive holding the store's vectors and
timestamps, every built block's adjacency matrix, and a JSON header with
the configuration and block metadata.  Loading reconstructs an index that
answers queries identically (graphs are not rebuilt) and keeps accepting
inserts.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..distances.fused import StoreNormCache
from ..distances.metrics import resolve_metric
from ..exceptions import PersistenceError, VectorInputError
from ..faultinject import failpoint
from ..graph.builder import GraphConfig
from ..graph.hnsw import HNSWParams
from ..graph.nndescent import NNDescentParams
from ..storage.vector_store import VectorStore
from .backends import get_loader
from .block import Block
from .config import (
    IVFConfig,
    IVFPQConfig,
    LSHParams,
    MBIConfig,
    SearchParams,
    TieringConfig,
)
from .mbi import MultiLevelBlockIndex

FORMAT_VERSION = 2


def save_index(index: MultiLevelBlockIndex, path: str | Path) -> Path:
    """Write an index snapshot to ``path`` (``.npz`` appended if missing).

    Returns:
        The path actually written.

    Raises:
        PersistenceError: If the file cannot be written.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    store = index.store
    # Resolve each block's arrays *through the tier*: a demoted block is
    # still built, and its arrays stream from the cold file without
    # promoting it (snapshots stay self-contained either way — a snapshot
    # loads without the tier directory).
    per_block_arrays = {
        block.index: index.block_arrays(block) for block in index.iter_blocks()
    }
    header = {
        "format_version": FORMAT_VERSION,
        "dim": index.dim,
        "metric": index.metric.name,
        "config": _config_to_dict(index.config),
        "blocks": [
            {
                "index": block.index,
                "height": block.height,
                "lo": block.positions.start,
                "hi": block.positions.stop,
                "built": per_block_arrays[block.index] is not None,
                "build_seconds": block.build_seconds,
                "distance_evaluations": block.distance_evaluations,
            }
            for block in index.iter_blocks()
        ],
    }
    arrays: dict[str, np.ndarray] = {
        "vectors": np.asarray(store.vectors),
        "timestamps": np.asarray(store.timestamps),
        "header": np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
    }
    for block_index, block_payload in per_block_arrays.items():
        if block_payload is not None:
            for key, array in block_payload.items():
                arrays[f"block_{block_index}_{key}"] = array
    try:
        act = failpoint("snapshot.write")
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        if act is not None and act.kind == "truncate":
            # Simulate a crash mid-write: leave a torn archive behind and
            # fail, exactly as a half-flushed page cache would.
            size = path.stat().st_size
            with open(path, "r+b") as handle:
                handle.truncate(max(0, size - int(act.arg)))
            raise OSError(
                f"failpoint snapshot.write: torn snapshot ({act.arg} bytes "
                f"lost) at {path}"
            )
    except OSError as error:
        raise PersistenceError(f"could not write snapshot to {path}: {error}")
    return path


def load_index(path: str | Path) -> MultiLevelBlockIndex:
    """Reconstruct an index from a snapshot written by :func:`save_index`.

    Raises:
        PersistenceError: If the file is missing, unreadable, from an
            unsupported format version, or holds a row or timestamp the
            store refuses (a non-finite one).
    """
    path = Path(path)
    failpoint("snapshot.load")
    try:
        with np.load(path) as archive:
            header_bytes = bytes(archive["header"])
            header = json.loads(header_bytes.decode("utf-8"))
            version = header.get("format_version")
            if version != FORMAT_VERSION:
                # Fail fast, *before* any reconstruction: a future format
                # would otherwise surface as a confusing KeyError deep in
                # backend loading.
                if isinstance(version, int) and version > FORMAT_VERSION:
                    raise PersistenceError(
                        f"snapshot {path} has format version {version}, "
                        f"which is newer than the latest supported version "
                        f"{FORMAT_VERSION}; upgrade the library to read it"
                    )
                raise PersistenceError(
                    f"snapshot {path} has format version "
                    f"{version}, expected {FORMAT_VERSION}"
                )
            vectors = archive["vectors"]
            timestamps = archive["timestamps"]
            block_arrays: dict[int, dict[str, np.ndarray]] = {}
            for name in archive.files:
                if not name.startswith("block_"):
                    continue
                _, index_text, key = name.split("_", 2)
                block_arrays.setdefault(int(index_text), {})[key] = archive[
                    name
                ]
    except FileNotFoundError:
        raise PersistenceError(f"snapshot {path} does not exist") from None
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as error:
        raise PersistenceError(f"could not read snapshot {path}: {error}")

    config = _config_from_dict(header["config"])
    metric = resolve_metric(header["metric"])
    loader = get_loader(config.backend)
    index = MultiLevelBlockIndex(int(header["dim"]), metric, config)
    if len(vectors):
        try:
            index._store = VectorStore.from_arrays(vectors, timestamps)
        except VectorInputError as error:
            # Only a snapshot taken before the store refused non-finite
            # rows and timestamps can hold one.
            raise PersistenceError(
                f"snapshot {path} holds rows the store refuses: {error}"
            ) from error
        # The scan cache binds the store at construction; re-bind it to the
        # loaded store (per-row norms are recomputed deterministically from
        # the same float32 data, so answers match the pre-snapshot index).
        index._scan = StoreNormCache(index._store, metric)
    blocks: dict[int, Block] = {}
    for entry in header["blocks"]:
        block = Block(
            index=int(entry["index"]),
            height=int(entry["height"]),
            positions=range(int(entry["lo"]), int(entry["hi"])),
            build_seconds=float(entry["build_seconds"]),
            distance_evaluations=int(entry["distance_evaluations"]),
        )
        if entry["built"]:
            try:
                block.backend = loader.from_arrays(
                    block_arrays[block.index],
                    index._store,
                    block.positions,
                    metric,
                )
            except KeyError:
                raise PersistenceError(
                    f"snapshot {path} is missing the index arrays of built "
                    f"block {block.index}"
                ) from None
        blocks[block.index] = block
    index._blocks = blocks
    index._total_build_seconds = sum(b.build_seconds for b in blocks.values())
    index._total_distance_evaluations = sum(
        b.distance_evaluations for b in blocks.values()
    )
    if index._tiering is not None:
        # Tiering was (re-)enabled by the constructor (config or env):
        # account the freshly attached blocks and demote back under budget.
        index._tiering.sync()
    return index


def _config_to_dict(config: MBIConfig) -> dict:
    payload = asdict(config)
    return payload


def _config_from_dict(payload: dict) -> MBIConfig:
    graph = dict(payload["graph"])
    nndescent = NNDescentParams(**graph.pop("nndescent"))
    # Keys are picked one by one: older snapshots carry config keys
    # (e.g. query-pool knobs) that MBIConfig no longer accepts.
    return MBIConfig(
        leaf_size=payload["leaf_size"],
        tau=payload["tau"],
        selection_mode=payload["selection_mode"],
        backend=payload["backend"],
        graph=GraphConfig(nndescent=nndescent, **graph),
        ivf=IVFConfig(**payload["ivf"]),
        ivfpq=IVFPQConfig(**payload["ivfpq"]),
        hnsw=HNSWParams(**payload["hnsw"]),
        lsh=LSHParams(**payload["lsh"]),
        search=SearchParams(**payload["search"]),
        parallel=payload["parallel"],
        max_workers=payload["max_workers"],
        # Absent in pre-tiering snapshots (and ignored by pre-tiering
        # readers, which pick header keys explicitly) — no version bump.
        tiering=TieringConfig(**payload.get("tiering", {})),
        # Absent in snapshots written before compressed cold-tier search:
        # default to the exact promote-on-miss path.
        cold_codes=payload.get("cold_codes", False),
        seed=payload["seed"],
    )
