"""The tier manager: hot/cold block lifecycle behind the index.

One :class:`TierManager` sits behind a
:class:`~repro.core.mbi.MultiLevelBlockIndex` (created by
:meth:`~repro.core.mbi.MultiLevelBlockIndex.enable_tiering`) and owns the
three moving parts of the tiered design:

* a :class:`~repro.tiering.blockfile.ColdBlockStore` holding demoted
  blocks as per-block files,
* a :class:`~repro.tiering.cache.BlockCache` accounting resident bytes
  against the memory budget with window-aware LRU eviction,
* a writer-preference :class:`~repro.service.locks.RWLock` making
  demotion/compaction a single-writer affair while promotions proceed
  concurrently under the read side.

**Correctness invariant** (asserted by ``tests/test_tiering.py`` and the
chaos harness): tiering never changes an answer.  A promoted block serves
byte-identical vectors through a memmap and either loads its persisted
graph + norms or — if the cold file is torn or missing — rebuilds
deterministically from ``(config.seed, block.index)``, which is the exact
recipe :meth:`~repro.core.mbi.MultiLevelBlockIndex._build_block` used the
first time.  Demotion only detaches state that can be reproduced this
way; the vector store itself (positions, timestamps) is never demoted.

Byte accounting attributes to each resident block its backend structures,
its norm cache, and its share of the shared vector store
(:meth:`~repro.storage.vector_store.VectorStore.slice_nbytes`).  The
shared store's buffer stays RAM-resident even while blocks over it are
cold — attribution is deliberately conservative (demoting a block stops
charging its slice even though the buffer keeps it); carving the store
into per-tier segments is future work recorded in ``docs/tiering.md``.
"""

from __future__ import annotations

import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.backends import BlockBackend, GraphBackend, get_builder, get_loader
from ..core.config import SearchParams, TieringConfig
from ..core.planner import GRAPH
from ..distances.fused import NormCache
from ..exceptions import PersistenceError
from ..graph.knn_graph import NO_NEIGHBOR, KnnGraph
from ..observability import get_registry
from ..quantization.adc import subspace_offsets
from ..quantization.pq import PQParams, ProductQuantizer
from ..service.locks import RWLock
from .blockfile import ColdBlockStore, MemmapVectorSource
from .cache import BlockCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.block import Block
    from ..core.mbi import MultiLevelBlockIndex
    from ..core.planner import PlanStep

_REGISTRY = get_registry()
_HITS = _REGISTRY.counter(
    "tier_hits_total", "Block resolutions served from the hot tier"
)
_MISSES = _REGISTRY.counter(
    "tier_misses_total", "Block resolutions that had to promote a cold block"
)
_PROMOTIONS = _REGISTRY.counter(
    "tier_promotions_total", "Cold blocks promoted back to the hot tier"
)
_DEMOTIONS = _REGISTRY.counter(
    "tier_demotions_total", "Hot blocks demoted to the cold tier"
)
_REBUILDS = _REGISTRY.counter(
    "tier_rebuilds_total",
    "Promotions that fell back to a deterministic rebuild",
)
_COMPACTIONS = _REGISTRY.counter(
    "tier_compactions_total",
    "Cold blocks retargeted at an ancestor's vector file",
)
_ERRORS = _REGISTRY.counter(
    "tier_errors_total", "Demotion/compaction failures that were absorbed"
)
_RESIDENT = _REGISTRY.gauge(
    "tier_resident_bytes",
    "Bytes attributed to hot blocks (peak = high-water mark)",
)
_COLD_BYTES = _REGISTRY.gauge(
    "tier_cold_bytes", "Bytes of cold block files on disk"
)
_ADC_SEARCHES = _REGISTRY.counter(
    "tier_adc_searches_total",
    "Cold blocks answered compressed (ADC scan + exact re-rank)",
)
_ADC_RERANK_ROWS = _REGISTRY.counter(
    "tier_adc_rerank_rows_total",
    "Raw vector rows gathered from memmaps for ADC exact re-ranks",
)
_CODE_BYTES = _REGISTRY.gauge(
    "tier_code_resident_bytes",
    "Bytes of resident PQ code sidecars (codebooks + codes)",
)
_PROMOTE_SECONDS = _REGISTRY.histogram(
    "tier_promote_seconds",
    "Time bringing one cold block back to the hot tier",
)


class CompressedBlockView:
    """A cold block opened for compressed (ADC) search — no promotion.

    The lightweight alternative to promoting a cold block: its PQ
    quantizer and uint8 code matrix resident in RAM (a few bytes per
    vector instead of the full backend), plus a memmap over the cold
    vector file so the exact re-rank gathers only the shortlisted rows
    from the page cache.  Built blocks are immutable, so a view never
    goes stale; it is dropped (not rewritten) when compaction retargets
    the block's vector file.

    Attributes:
        positions: The block's absolute position range.
        quantizer: The sidecar's trained product quantizer.
        codes: ``(n, m)`` uint8 codes, one row per position.
        offsets: Precomputed flat-gather offsets for the ADC kernel.
        source: Memmap over the block's cold vector file (exact re-rank).
    """

    __slots__ = ("positions", "quantizer", "codes", "offsets", "source")

    def __init__(
        self,
        positions: range,
        quantizer: ProductQuantizer,
        codes: np.ndarray,
        source: MemmapVectorSource,
    ) -> None:
        self.positions = positions
        self.quantizer = quantizer
        self.codes = codes
        self.offsets = subspace_offsets(
            quantizer.n_subspaces, quantizer.n_centroids
        )
        self.source = source

    def nbytes(self) -> int:
        """Resident bytes of the view (codes + codebooks; memmap is free)."""
        return int(self.codes.nbytes) + self.quantizer.nbytes()


class TierManager:
    """Hot/cold lifecycle for one index's blocks.

    Args:
        index: The owning index.  The manager reads the store, metric,
            and config through the index *at call time*, so snapshot
            loading (which rebinds ``index._store``) stays safe.
        config: Effective tiering configuration; when ``directory`` is
            ``None`` a temporary directory is created and owned (cold
            files die with the manager).
    """

    def __init__(self, index: "MultiLevelBlockIndex", config: TieringConfig) -> None:
        self._index = index
        self._config = config
        if config.directory is not None:
            self._tmpdir = None
            directory = Path(config.directory)
        else:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-tier-")
            directory = Path(self._tmpdir.name)
        self._cold = ColdBlockStore(directory, index.dim)
        self._cache = BlockCache(config.budget_bytes)
        self._rwlock = RWLock()
        self._lock = threading.Lock()
        self._inflight: dict[int, threading.Event] = {}
        # Block ids whose committed cold file must be rewritten on the
        # next demotion (a promotion found it torn).  Committed files are
        # otherwise write-once: built blocks are immutable.
        self._dirty: set[int] = set()
        self._known_cold: set[int] = set(self._cold.indices())
        # LRU cache of compressed views (cold_codes): code bytes are
        # accounted against the budget and shed before blocks demote.
        self._views: OrderedDict[int, CompressedBlockView] = OrderedDict()
        # Blocks whose sidecar read failed (torn file): queries stop
        # retrying the read and promote on miss instead.
        self._bad_codes: set[int] = set()
        self.sync()

    # -------------------------------------------------------------- plumbing

    @property
    def config(self) -> TieringConfig:
        """The effective tiering configuration."""
        return self._config

    def reconfigure(
        self,
        memory_budget_mb: float | None = ...,
        hot_window_vectors: int | None = ...,
        prefetch_selected: bool = ...,
    ) -> None:
        """Retune budget, hot window, or prefetch at runtime, re-enforce.

        ``enable_tiering`` is first-config-wins; this is the explicit
        ops knob for changing the knobs afterwards (resize the budget
        without a restart, or pin a controlled budget over an ambient
        ``REPRO_MEMORY_BUDGET_MB``).  Arguments left at the ``...`` sentinel keep their
        current value; the new config re-validates, the cache budget is
        updated, and eviction brings residency under the new budget
        immediately.
        """
        changes: dict[str, object] = {}
        if memory_budget_mb is not ...:
            changes["memory_budget_mb"] = memory_budget_mb
        if hot_window_vectors is not ...:
            changes["hot_window_vectors"] = hot_window_vectors
        if prefetch_selected is not ...:
            changes["prefetch_selected"] = prefetch_selected
        if not changes:
            return
        self._config = replace(self._config, **changes)
        self._cache.set_budget(self._config.budget_bytes)
        self.enforce_budget()
        self._publish_resident()

    @property
    def cold_store(self) -> ColdBlockStore:
        """The cold-file store (tier directory)."""
        return self._cold

    @property
    def cache(self) -> BlockCache:
        """The hot-block residency ledger."""
        return self._cache

    @property
    def directory(self) -> Path:
        """The tier directory holding cold block files."""
        return self._cold.directory

    def _block_nbytes(self, block: "Block", backend=None) -> int:
        """Resident bytes attributed to ``block`` while hot.

        ``backend`` sizes a backend not yet attached to the block (the
        promotion path accounts — and makes room for — the incoming
        block before publishing it).
        """
        if backend is None:
            backend = block.backend
        if backend is None:
            return 0
        total = int(backend.nbytes())
        norms = getattr(backend, "norms", None)
        if norms is not None:
            total += int(norms.nbytes())
        store = self._index._store
        filled = min(block.positions.stop, len(store))
        total += store.slice_nbytes(block.positions.start, filled)
        return total

    def _publish_resident(self) -> None:
        _RESIDENT.set(self._cache.resident_bytes)

    def sync(self) -> None:
        """Reconcile the residency ledger with the index's actual blocks.

        Called after bulk block attachment (snapshot load, enabling
        tiering on an already-built index) so blocks built outside
        :meth:`note_built` get accounted, then brings residency back
        under budget.
        """
        for block in list(self._index._blocks.values()):
            if block.backend is not None and block.index not in self._cache:
                self._cache.add(block, self._block_nbytes(block))
        self._publish_resident()
        self.enforce_budget()

    def is_cold(self, block: "Block") -> bool:
        """Whether ``block`` has a committed cold file."""
        if block.index in self._known_cold:
            return True
        if self._cold.has(block.index):
            with self._lock:
                self._known_cold.add(block.index)
            return True
        return False

    # ------------------------------------------------------------- hot path

    def resolve(self, block: "Block") -> tuple[BlockBackend | None, str]:
        """The searchable backend for ``block``, promoting if needed.

        Returns ``(backend, tier)`` where ``tier`` is ``"hot"`` for a
        resident block and ``"promoted"`` for one just brought back from
        the cold tier.  ``(None, "hot")`` means the block was never
        built (open leaf) — the caller brute-forces it exactly as the
        untiered index would.
        """
        backend = block.backend
        if backend is not None:
            _HITS.inc()
            self._cache.note_use(block.index)
            return backend, "hot"
        if not self.is_cold(block):
            return None, "hot"
        _MISSES.inc()
        return self._promote(block), "promoted"

    def resolve_compressed(self, block: "Block") -> CompressedBlockView | None:
        """A compressed (ADC) view of a cold block, *without* promoting it.

        Returns ``None`` when the block has no committed, readable code
        sidecar — the caller falls back to :meth:`resolve`, which
        promotes on miss exactly as before (a torn sidecar can slow a
        query down, never change its answer).  Loaded views are cached
        LRU and their code bytes accounted against the memory budget.
        """
        with self._lock:
            view = self._views.get(block.index)
            if view is not None:
                self._views.move_to_end(block.index)
                return view
            if block.index in self._bad_codes:
                return None
        if not self.is_cold(block) or not self._cold.has_codes(block.index):
            return None
        try:
            arrays, codes = self._cold.read_codes(block.index, block.positions)
            quantizer = ProductQuantizer.from_arrays(arrays)
            meta = self._cold.read_meta(block.index)
            if meta is None:
                raise PersistenceError(
                    f"cold block {block.index} idx file is unreadable"
                )
            source = MemmapVectorSource(
                self._cold.vec_path(meta.vec_ref),
                meta.vec_lo,
                self._index.dim,
                needed_hi=block.positions.stop,
            )
        except (PersistenceError, KeyError, ValueError):
            with self._lock:
                self._bad_codes.add(block.index)
            return None
        view = CompressedBlockView(block.positions, quantizer, codes, source)
        nbytes = view.nbytes()
        self._evict_for(nbytes)
        with self._lock:
            self._views[block.index] = view
        self._cache.add_code_bytes(block.index, nbytes)
        _CODE_BYTES.set(self._cache.code_resident_bytes)
        self._publish_resident()
        return view

    def note_adc(self, rerank_rows: int) -> None:
        """Record one compressed block search and its re-ranked row count."""
        _ADC_SEARCHES.inc()
        _ADC_RERANK_ROWS.inc(int(rerank_rows))

    def _drop_view(self, index: int) -> None:
        """Forget a cached compressed view and release its code bytes."""
        with self._lock:
            self._views.pop(index, None)
        self._cache.remove_code_bytes(index)
        _CODE_BYTES.set(self._cache.code_resident_bytes)
        self._publish_resident()

    def _shed_views(self, incoming: int) -> None:
        """Drop LRU compressed views until ``incoming`` bytes fit the budget.

        Views are shed before any block demotes: reloading a sidecar is
        one small read, re-promoting a block is not.
        """
        budget = self._cache.budget_bytes
        if budget is None:
            return
        shed = False
        while self._cache.resident_bytes + int(incoming) > budget:
            with self._lock:
                if not self._views:
                    break
                index, _ = self._views.popitem(last=False)
            self._cache.remove_code_bytes(index)
            shed = True
        if shed:
            _CODE_BYTES.set(self._cache.code_resident_bytes)
            self._publish_resident()

    def answers_from_codes(
        self, block: "Block", rows: int, params: SearchParams
    ) -> bool:
        """Whether a ``graph`` step on ``block`` answers from its PQ codes.

        True under ``cold_codes`` for a block with no hot backend whose
        in-window ``rows`` exceed ``params.cold_adc_threshold``.  The
        executor then scans the codes (a missing or torn sidecar falls back
        to promotion, see :meth:`resolve_compressed`), and
        :meth:`note_selection` does not prefetch the block.
        """
        return (
            self._index._config.cold_codes
            and block.backend is None
            and rows > params.cold_adc_threshold
        )

    def note_selection(
        self, steps: Sequence["PlanStep"], params: SearchParams
    ) -> None:
        """Pin the blocks a query planned; prefetch the cold ones it walks.

        Called after planning, before the steps run: every block of every
        step is pinned against eviction while the query is in flight, and
        (with ``prefetch_selected``) the cold block of each ``graph`` step
        is promoted up front.  A ``brute`` step is never promoted: the scan
        reads the shared store.  Neither is a block the step answers from
        its codes (:meth:`answers_from_codes`, sidecar present): promoting
        it would defeat the ADC path.
        """
        self._cache.pin(block.index for step in steps for block in step.blocks)
        if not self._config.prefetch_selected:
            return
        for step in steps:
            if step.strategy != GRAPH:
                continue
            (block,) = step.blocks
            if block.backend is None and self.is_cold(block):
                if (
                    self.answers_from_codes(block, len(step.rows), params)
                    and block.index not in self._bad_codes
                    and self._cold.has_codes(block.index)
                ):
                    continue
                self._promote(block)

    def note_built(self, block: "Block") -> None:
        """Account a freshly built/merged block and enforce the budget."""
        self._cache.add(block, self._block_nbytes(block))
        self._publish_resident()
        self.enforce_budget()

    # ------------------------------------------------------------ promotion

    def _promote(self, block: "Block") -> BlockBackend:
        """Bring a cold block back to the hot tier (deduplicated)."""
        while True:
            with self._lock:
                if block.backend is not None:
                    self._cache.note_use(block.index)
                    return block.backend
                event = self._inflight.get(block.index)
                if event is None:
                    event = threading.Event()
                    self._inflight[block.index] = event
                    break
            # Another thread is promoting this block; wait it out and
            # re-check (it may have failed, in which case we retry).
            event.wait()
            if block.backend is not None:
                return block.backend
        started = time.perf_counter()
        try:
            with self._rwlock.read():
                backend = self._load_or_rebuild(block)
            nbytes = self._block_nbytes(block, backend)
            # Make room *before* accounting the incoming block, so the
            # residency ledger (and the published peak) never overshoots
            # the budget by the in-flight promotion — only pinned blocks
            # or a torn disk can still force an overshoot.
            self._evict_for(nbytes)
            with self._rwlock.read():
                block.backend = backend
            self._cache.add(block, nbytes)
            _PROMOTIONS.inc()
            _PROMOTE_SECONDS.observe(time.perf_counter() - started)
            self._publish_resident()
        finally:
            with self._lock:
                self._inflight.pop(block.index, None)
            event.set()
        return backend

    def _load_or_rebuild(self, block: "Block") -> BlockBackend:
        """Load the cold file, or rebuild deterministically when torn."""
        metric = self._index._metric
        try:
            meta, arrays, row_data, source = self._cold.read(
                block.index, block.positions
            )
            loader = get_loader(meta.backend)
            if loader is GraphBackend and row_data is not None:
                span = block.positions.stop - block.positions.start
                norms = NormCache.from_row_data(row_data, metric, span)
                return GraphBackend(
                    KnnGraph(arrays["adj"]),
                    source,
                    block.positions,
                    metric,
                    norms=norms,
                )
            return loader.from_arrays(arrays, source, block.positions, metric)
        except PersistenceError:
            with self._lock:
                self._dirty.add(block.index)
            return self._rebuild(block)

    def _rebuild(self, block: "Block") -> BlockBackend:
        """Deterministic rebuild — the same recipe as the original build.

        Seeded ``[config.seed, block.index]`` exactly like
        ``MultiLevelBlockIndex._build_block``, so the result is
        bit-identical to the backend that was demoted.
        """
        _REBUILDS.inc()
        config = self._index._config
        store = self._index._store
        metric = self._index._metric
        if block.capacity < 2:
            return GraphBackend(
                KnnGraph(np.full((block.capacity, 0), NO_NEIGHBOR, np.int32)),
                store,
                block.positions,
                metric,
            )
        builder = get_builder(config.backend)
        rng = np.random.default_rng([config.seed, block.index])
        backend, _ = builder(store, block.positions, metric, config, rng)
        return backend

    def cold_arrays(self, block: "Block") -> dict[str, np.ndarray] | None:
        """A cold block's backend arrays, *without* promoting it.

        Snapshot writes go through here so a checkpoint does not churn
        the cache.  Falls back to a deterministic rebuild (discarded
        after serialisation) when the cold file is torn.
        """
        if not self.is_cold(block):
            return None
        try:
            _, arrays, _, _ = self._cold.read(block.index, block.positions)
            return arrays
        except PersistenceError:
            with self._lock:
                self._dirty.add(block.index)
            return self._rebuild(block).to_arrays()

    # ------------------------------------------------------------- demotion

    def demote(self, block: "Block") -> bool:
        """Move one built block to the cold tier; True if it demoted.

        The cold copy is written under the read lock (file writes touch
        no index state and are per-block deduplicated by immutability),
        then the backend is detached under the write lock — searches
        either grab the backend before the flip or promote after it.
        A write failure propagates and leaves the block hot.
        """
        backend = block.backend
        if backend is None:
            return False
        if block.positions.stop > len(self._index._store):
            # Partially filled (open) blocks are never built, but guard
            # against racing a concurrent append anyway.
            return False
        with self._lock:
            dirty = block.index in self._dirty
        if dirty or not self.is_cold(block):
            with self._rwlock.read():
                norms = getattr(backend, "norms", None)
                row_data = norms.row_data if norms is not None else None
                vectors = self._index._store.slice(
                    block.positions.start, block.positions.stop
                )
                self._cold.write(
                    block.index,
                    block.positions,
                    type(backend).name,
                    backend.to_arrays(),
                    row_data,
                    vectors,
                )
            with self._lock:
                self._dirty.discard(block.index)
                self._known_cold.add(block.index)
        if self._index._config.cold_codes and not self._cold.has_codes(
            block.index
        ):
            try:
                with self._rwlock.read():
                    self._write_code_sidecar(block)
            except PersistenceError:
                # The block still demotes — it just promotes on miss
                # instead of serving compressed.  A torn sidecar left
                # behind fails its first read and is remembered, so the
                # fallback costs one extra read, never a wrong answer.
                _ERRORS.inc()
        with self._rwlock.write():
            if block.backend is None:
                return False
            block.backend = None
            self._cache.remove(block.index)
        _DEMOTIONS.inc()
        self._publish_resident()
        _COLD_BYTES.set(self._cold.disk_bytes())
        return True

    def _write_code_sidecar(self, block: "Block") -> None:
        """Train a per-block PQ and commit its code sidecar.

        Deterministic: seeded ``[config.seed, block.index]`` like every
        other per-block build, and trained on the block's own (metric-
        normalised) vectors with the IVF-PQ knobs from the config, so
        two demotions of the same block write byte-identical sidecars.
        """
        config = self._index._config
        metric = self._index._metric
        points = np.asarray(
            self._index._store.slice(
                block.positions.start, block.positions.stop
            ),
            dtype=np.float64,
        )
        if metric.normalizes:
            norms = np.linalg.norm(points, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            points = points / norms
        params = PQParams(
            n_subspaces=config.ivfpq.pq_subspaces,
            n_centroids=min(config.ivfpq.pq_centroids, max(2, len(points))),
            kmeans_iters=config.ivfpq.pq_iters,
        )
        rng = np.random.default_rng([config.seed, block.index])
        quantizer = ProductQuantizer.train(points, params, rng)
        codes = quantizer.encode(points)
        self._cold.write_codes(
            block.index, block.positions, quantizer.to_arrays(), codes
        )

    def enforce_budget(self) -> int:
        """Demote LRU unpinned blocks until resident bytes fit the budget.

        Returns the number of blocks demoted.  The eviction plan is
        static (computed once); a failure marks the error metric and
        moves on, so a torn disk can overshoot the budget but never
        wedges the index.
        """
        return self._evict_for(0)

    def _evict_for(self, incoming: int) -> int:
        """Demote per the cache's plan, leaving room for ``incoming`` bytes."""
        demoted = 0
        self._shed_views(incoming)
        for block in self._cache.eviction_candidates(incoming):
            try:
                if self.demote(block):
                    demoted += 1
            except PersistenceError:
                _ERRORS.inc()
        return demoted

    # ----------------------------------------------------------- compaction

    def hot_window_start(self) -> int:
        """First store position considered inside the hot window.

        ``hot_window_vectors`` from the config, defaulting to two leaves'
        worth — the open leaf plus the most recently sealed one, the
        region the paper's time-accumulating workload queries hardest.
        """
        window = self._config.hot_window_vectors
        if window is None:
            window = 2 * self._index._config.leaf_size
        return max(0, len(self._index._store) - window)

    def compact_cold_files(self) -> int:
        """Retarget cold blocks at their topmost cold ancestor's vectors.

        The multi-level merge rule applied to the cold tier: a parent
        block's vector file covers both children's ranges byte-for-byte,
        so each cold block's idx is pointed at the *topmost* committed
        ancestor whose own vector file exists, and vector files no
        longer referenced by anyone are deleted.  Idempotent; returns
        the number of blocks retargeted.
        """
        blocks = self._index._blocks
        metas = {}
        for index in self._cold.indices():
            meta = self._cold.read_meta(index)
            if meta is not None and index in blocks:
                metas[index] = meta
        self_vec = {
            i
            for i, m in metas.items()
            if m.vec_ref == i and self._cold.vec_path(i).exists()
        }
        retargeted = 0
        with self._rwlock.write():
            for index, meta in sorted(metas.items()):
                positions = blocks[index].positions
                best = None
                for anc in self_vec:
                    if anc == index:
                        continue
                    span = blocks[anc].positions
                    if (
                        span.start <= positions.start
                        and positions.stop <= span.stop
                    ):
                        if best is None or len(span) > len(
                            blocks[best].positions
                        ):
                            best = anc
                if best is not None and meta.vec_ref != best:
                    try:
                        self._cold.retarget(
                            index, best, blocks[best].positions.start
                        )
                    except PersistenceError:
                        _ERRORS.inc()
                        continue
                    metas[index] = self._cold.read_meta(index) or meta
                    retargeted += 1
                    # The view's memmap points at the old vector file —
                    # drop it; the next compressed search reattaches.
                    self._drop_view(index)
            # Drop vector files nobody references any more.
            referenced = {m.vec_ref for m in metas.values()}
            for index in list(self_vec):
                if index not in referenced:
                    self._cold.drop_vec(index)
        if retargeted:
            _COMPACTIONS.inc(retargeted)
            _COLD_BYTES.set(self._cold.disk_bytes())
        return retargeted

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict[str, object]:
        """Point-in-time tier statistics (CLI ``repro tier stats``, bench)."""
        handles = self._cache.handles()
        return {
            "budget_bytes": self._cache.budget_bytes,
            "resident_blocks": len(handles),
            "resident_bytes": self._cache.resident_bytes,
            "peak_resident_bytes": _RESIDENT.peak,
            "cold_blocks": len(self._cold.indices()),
            "cold_bytes": self._cold.disk_bytes(),
            "directory": str(self.directory),
            "hits": _HITS.value,
            "misses": _MISSES.value,
            "promotions": _PROMOTIONS.value,
            "demotions": _DEMOTIONS.value,
            "rebuilds": _REBUILDS.value,
            "compactions": _COMPACTIONS.value,
            "code_views": len(self._views),
            "code_resident_bytes": self._cache.code_resident_bytes,
            "adc_searches": _ADC_SEARCHES.value,
            "adc_rerank_rows": _ADC_RERANK_ROWS.value,
        }
