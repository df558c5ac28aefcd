"""Multi-level Block Indexing — the paper's primary contribution.

:class:`MultiLevelBlockIndex` maintains a perfect binary tree of blocks over
an append-only timestamped vector store:

* **Insertion** (Algorithm 3): vectors append into the latest leaf block;
  when a leaf fills, its graph index is built and bottom-up merging seals
  every ancestor whose subtree just completed.  Blocks are numbered in
  creation order, which equals postorder traversal order.
* **Query** (Algorithm 4): top-down block selection picks a time-disjoint
  search block set covering the query window; the block planner
  (:mod:`repro.core.planner`) gives each block graph search (Algorithm 2)
  or an exact scan of its in-window rows, whichever its cost table prices
  lower (the open leaf is always scanned), and groups them into steps:
  one scan per run of adjacent scanned blocks, one search per walked
  block.  Every query runs each step once and merges the partial results
  once into the final TkNN answer.

The bottom-up merge chain builds each block independently, so the index can
optionally build them in a thread pool (the paper's "Parallelization of
MBI"); NumPy kernels release the GIL for the bulk of the work.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from ..distances.fused import StoreNormCache
from ..distances.kernels import top_k_smallest
from ..distances.metrics import Metric, resolve_metric
from ..exceptions import EmptyIndexError, InvalidQueryError
from ..graph.knn_graph import NO_NEIGHBOR
from ..graph.knn_graph import KnnGraph
from ..observability.metrics import get_registry
from ..observability.trace import BlockSearchEvent, PlanStepEvent, QueryTrace
from ..quantization.adc import adc_scan
# Unused here; benchmarks/layered/spans.py looks this name up on the module.
from ..quantization.adc import adc_scan_batch  # noqa: F401
from ..storage.timeline import TimeWindow
from ..storage.vector_store import VectorStore
from .backends import GraphBackend, get_builder
from .block import Block
from .brute import brute_force_topk
from .config import MBIConfig, SearchParams, TieringConfig
from .planner import BRUTE, GRAPH, PlanStep, plan
from .results import QueryResult, QueryStats, check_query, merge_partial_results
from .selection import select_blocks
from .tree import leaf_block_index, leaf_range_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tiering.manager import TierManager

_METRICS = get_registry()
_SEARCH_QUERIES = _METRICS.counter(
    "mbi_search_queries_total", "TkNN queries answered by MBI"
)
_SEARCH_BLOCKS = _METRICS.counter(
    "mbi_search_blocks_total", "Blocks searched across all MBI queries"
)
_SEARCH_DIST_EVALS = _METRICS.counter(
    "mbi_search_distance_evals_total",
    "Distance computations spent answering MBI queries",
)
_SEARCH_SECONDS = _METRICS.histogram(
    "mbi_search_seconds", "Per-query MBI search latency"
)
_BUILD_BLOCKS = _METRICS.counter(
    "mbi_build_blocks_total", "Block indexes built (seal + merge chain)"
)
_BUILD_SECONDS = _METRICS.counter(
    "mbi_build_seconds_total", "Seconds spent building block indexes"
)
_BUILD_DIST_EVALS = _METRICS.counter(
    "mbi_build_distance_evals_total",
    "Distance computations spent building block indexes",
)
_BLOCKS_GAUGE = _METRICS.gauge(
    "mbi_blocks", "Materialised blocks in the most recently updated index"
)
_VECTORS_GAUGE = _METRICS.gauge(
    "mbi_store_vectors", "Vectors stored in the most recently updated index"
)


class MultiLevelBlockIndex:
    """Incremental hierarchical block index for approximate TkNN search.

    Args:
        dim: Dimensionality of indexed vectors.
        metric: Distance metric (name or :class:`Metric`).
        config: Index configuration; defaults to :class:`MBIConfig`.

    Example:
        >>> import numpy as np
        >>> from repro import MultiLevelBlockIndex, MBIConfig
        >>> index = MultiLevelBlockIndex(4, "euclidean", MBIConfig(leaf_size=8))
        >>> for t in range(64):
        ...     _ = index.insert(np.random.rand(4), float(t))
        >>> result = index.search(np.random.rand(4), k=3, t_start=10, t_end=50)
        >>> len(result)
        3
    """

    def __init__(
        self,
        dim: int,
        metric: Metric | str = "euclidean",
        config: MBIConfig | None = None,
    ) -> None:
        self._metric = resolve_metric(metric)
        self._config = config if config is not None else MBIConfig()
        self._store = VectorStore(dim)
        # Fused-scan norm cache for every brute-force path (the open leaf
        # and planned scans).  The store is
        # append-only, so rows are cached once and never invalidated;
        # built blocks own their *own* snapshot caches (see GraphBackend).
        self._scan = StoreNormCache(self._store, self._metric)
        self._blocks: dict[int, Block] = {}
        self._rng = np.random.default_rng(self._config.seed)
        self._total_build_seconds = 0.0
        self._total_distance_evaluations = 0
        # Tiered block storage (docs/tiering.md).  Declarative enablement
        # via MBIConfig.tiering; the REPRO_MEMORY_BUDGET_MB environment
        # variable is a runtime-only switch (used by the CI tight-budget
        # smoke job) that never changes answers, only residency.
        # REPRO_COLD_CODES likewise force-enables compressed cold-tier
        # search (docs/quantization.md) so the same job drives the ADC
        # path through the whole suite.
        self._tiering: "TierManager" | None = None
        if not self._config.cold_codes and os.environ.get("REPRO_COLD_CODES"):
            self._config = replace(self._config, cold_codes=True)
        if self._config.tiering.enabled:
            self.enable_tiering()
        else:
            env_budget = os.environ.get("REPRO_MEMORY_BUDGET_MB")
            if env_budget:
                try:
                    budget: float | None = float(env_budget)
                except ValueError:
                    budget = None
                if budget is not None and budget > 0:
                    self.enable_tiering(memory_budget_mb=budget)

    # ------------------------------------------------------------- inspection

    @property
    def dim(self) -> int:
        """Dimensionality of indexed vectors."""
        return self._store.dim

    @property
    def metric(self) -> Metric:
        """The index's distance metric."""
        return self._metric

    @property
    def config(self) -> MBIConfig:
        """The index configuration."""
        return self._config

    @property
    def store(self) -> VectorStore:
        """The underlying vector store (shared, append-only)."""
        return self._store

    @property
    def tiering(self) -> "TierManager" | None:
        """The tier manager, or ``None`` when tiering is disabled."""
        return self._tiering

    def enable_tiering(
        self,
        memory_budget_mb: float | None = None,
        directory: str | os.PathLike | None = None,
        hot_window_vectors: int | None = None,
        prefetch_selected: bool | None = None,
    ) -> "TierManager":
        """Turn on tiered block storage for this index (idempotent).

        Arguments override the corresponding :class:`TieringConfig`
        fields; omitted ones fall back to ``config.tiering``.  Already
        enabled tiering is returned unchanged — the first configuration
        wins.  Tiering never changes answers (``docs/tiering.md``): cold
        blocks are promoted back bit-identically, or rebuilt from the
        same deterministic seed that built them.
        """
        if self._tiering is not None:
            return self._tiering
        # Function-level import: repro.tiering pulls in repro.service.locks,
        # which would cycle back into this module at import time.
        from ..tiering.manager import TierManager

        base = self._config.tiering
        effective = TieringConfig(
            enabled=True,
            memory_budget_mb=(
                memory_budget_mb
                if memory_budget_mb is not None
                else base.memory_budget_mb
            ),
            hot_window_vectors=(
                hot_window_vectors
                if hot_window_vectors is not None
                else base.hot_window_vectors
            ),
            directory=(
                os.fspath(directory) if directory is not None else base.directory
            ),
            prefetch_selected=(
                prefetch_selected
                if prefetch_selected is not None
                else base.prefetch_selected
            ),
        )
        self._tiering = TierManager(self, effective)
        return self._tiering

    def resolved_backend(self, block: Block):
        """The block's backend, promoting through the tier if needed.

        ``None`` only for never-built blocks (the open leaf).  Callers
        that just need the *arrays* (persistence) should prefer
        :meth:`block_arrays`, which reads cold files without promoting.
        """
        if block.backend is not None:
            return block.backend
        if self._tiering is not None:
            backend, _ = self._tiering.resolve(block)
            return backend
        return None

    def block_arrays(self, block: Block) -> dict[str, np.ndarray] | None:
        """Serialisable arrays of a built block, resolved through the tier.

        Used by :func:`repro.core.persistence.save_index` so snapshots
        include cold blocks *without* churning the hot cache: hot blocks
        serialise in memory, cold ones stream from their cold file.
        Returns ``None`` for never-built blocks.
        """
        if block.backend is not None:
            return block.backend.to_arrays()
        if self._tiering is not None:
            return self._tiering.cold_arrays(block)
        return None

    def __len__(self) -> int:
        return len(self._store)

    @property
    def num_blocks(self) -> int:
        """Number of materialised blocks (built blocks plus the open leaf)."""
        return len(self._blocks)

    @property
    def num_leaves(self) -> int:
        """Number of leaf blocks holding at least one vector."""
        if len(self._store) == 0:
            return 0
        return -(-len(self._store) // self._config.leaf_size)

    @property
    def blocks(self) -> Mapping[int, Block]:
        """Read-only view of materialised blocks by postorder index."""
        return dict(self._blocks)

    def iter_blocks(self) -> Iterator[Block]:
        """Materialised blocks in ascending postorder index."""
        for index in sorted(self._blocks):
            yield self._blocks[index]

    @property
    def total_build_seconds(self) -> float:
        """Cumulative wall-clock time spent building block graphs."""
        return self._total_build_seconds

    @property
    def total_distance_evaluations(self) -> int:
        """Cumulative distance computations spent building block graphs."""
        return self._total_distance_evaluations

    def memory_usage(self) -> dict[str, int]:
        """Bytes used, broken down the way Table 4 accounts index sizes.

        Returns a dict with ``vectors`` (the raw data), ``graphs`` (the sum
        of block graph adjacencies — the index proper), and ``total``.
        """
        graphs = sum(block.nbytes() for block in self._blocks.values())
        vectors = self._store.nbytes()
        return {"vectors": vectors, "graphs": graphs, "total": vectors + graphs}

    # --------------------------------------------------------------- mutation

    def insert(self, vector: np.ndarray, timestamp: float) -> int:
        """Insert one timestamped vector (Algorithm 3); returns its position.

        Timestamps must be non-decreasing across calls.  When the insert
        fills the open leaf, the leaf's graph is built and bottom-up merging
        seals every completed ancestor — the only inserts with non-constant
        cost, amortising to ``O(n^0.14 log n)`` per vector (Section 4.4.2).
        """
        position, chain = self.insert_deferred(vector, timestamp)
        if chain:
            self._build_chain(chain)
        return position

    def insert_deferred(
        self, vector: np.ndarray, timestamp: float
    ) -> tuple[int, list[Block]]:
        """Insert one vector but *defer* any block builds to the caller.

        This is the constant-cost half of Algorithm 3: the vector is
        appended and every block completed by this insert (the sealed leaf
        plus its finished ancestors, in bottom-up order) is materialised in
        the tree but **not** built.  The caller is responsible for passing
        the returned chain to :meth:`build_blocks`, typically on a
        background executor so queries keep running during the expensive
        graph constructions (the paper's "Parallelization of MBI"; this is
        what :class:`repro.service.IndexService` does).

        Until a returned block is built, queries that select it fall back
        to an exact scan of its span — correct, just slower — so deferring
        never changes correctness, only the work profile.

        Returns:
            ``(position, chain)`` where ``chain`` is the (possibly empty)
            list of newly completed blocks awaiting :meth:`build_blocks`.
        """
        position = self._store.append(vector, timestamp)
        leaf_ordinal = position // self._config.leaf_size
        self._ensure_open_leaf(leaf_ordinal)
        chain: list[Block] = []
        if (position + 1) % self._config.leaf_size == 0:
            chain = self._materialise_chain(leaf_ordinal)
        return position, chain

    def build_blocks(self, blocks: Iterable[Block]) -> None:
        """Build the kNN index of each not-yet-built block, in order.

        The complement of :meth:`insert_deferred`.  Safe to call while
        other threads are searching: building only *sets* each block's
        ``backend`` (one atomic reference assignment); it never mutates the
        store or the block tree.  Already-built blocks are skipped, so
        replaying a chain is idempotent.
        """
        for block in blocks:
            if block.backend is None:
                self._build_block(block)

    def extend(self, vectors: np.ndarray, timestamps: np.ndarray) -> range:
        """Insert a timestamp-sorted batch; returns the position range.

        The batch is checked whole before its first row goes in
        (:meth:`~repro.storage.VectorStore.check_batch`), so a refused batch
        leaves the index as it was.
        """
        vectors, timestamps = self._store.check_batch(vectors, timestamps)
        start = len(self._store)
        for vector, timestamp in zip(vectors, timestamps):
            self.insert(vector, float(timestamp))
        return range(start, len(self._store))

    def _ensure_open_leaf(self, leaf_ordinal: int) -> None:
        index = leaf_block_index(leaf_ordinal)
        if index in self._blocks:
            return
        leaf_size = self._config.leaf_size
        lo = leaf_ordinal * leaf_size
        self._blocks[index] = Block(
            index=index, height=0, positions=range(lo, lo + leaf_size)
        )

    def _materialise_chain(self, leaf_ordinal: int) -> list[Block]:
        """Materialise the just-sealed leaf's merge chain (without building).

        Returns the sealed leaf plus every ancestor completed by it, in
        bottom-up creation order (Algorithm 3's block numbering).
        """
        leaf_size = self._config.leaf_size
        chain: list[Block] = [self._blocks[leaf_block_index(leaf_ordinal)]]
        index = leaf_block_index(leaf_ordinal)
        remaining = leaf_ordinal + 1
        height = 1
        while remaining % 2 == 0:
            index += 1  # Algorithm 3: the parent is created at i + 1
            first_leaf, last_leaf = leaf_range_of(index, height)
            block = Block(
                index=index,
                height=height,
                positions=range(first_leaf * leaf_size, last_leaf * leaf_size),
            )
            self._blocks[index] = block
            chain.append(block)
            remaining //= 2
            height += 1
        return chain

    def _build_chain(self, chain: list[Block]) -> None:
        """Build a merge chain's block indexes, optionally in parallel."""
        if self._config.parallel and len(chain) > 1:
            with ThreadPoolExecutor(self._config.max_workers) as pool:
                list(pool.map(self._build_block, chain))
        else:
            for block in chain:
                self._build_block(block)

    def _build_block(self, block: Block) -> None:
        """Build one block's kNN index (the paper's ``BuildKNNIndex``)."""
        if block.capacity < 2:
            # Degenerate leaf_size=1 block: a single vector needs no index;
            # an empty graph still marks the block as sealed.
            block.backend = GraphBackend(
                KnnGraph(np.full((block.capacity, 0), NO_NEIGHBOR, np.int32)),
                self._store,
                block.positions,
                self._metric,
            )
            if self._tiering is not None:
                self._tiering.note_built(block)
            return
        builder = get_builder(self._config.backend)
        # Per-block seeding keeps builds deterministic regardless of whether
        # the merge chain runs sequentially or in a thread pool.
        rng = np.random.default_rng([self._config.seed, block.index])
        started = time.perf_counter()
        backend, evaluations = builder(
            self._store, block.positions, self._metric, self._config, rng
        )
        elapsed = time.perf_counter() - started
        block.backend = backend
        block.build_seconds = elapsed
        block.distance_evaluations = evaluations
        self._total_build_seconds += elapsed
        self._total_distance_evaluations += evaluations
        _BUILD_BLOCKS.inc()
        _BUILD_SECONDS.inc(elapsed)
        _BUILD_DIST_EVALS.inc(evaluations)
        _BLOCKS_GAUGE.set(len(self._blocks))
        _VECTORS_GAUGE.set(len(self._store))
        if self._tiering is not None:
            self._tiering.note_built(block)

    # ---------------------------------------------------------------- queries

    def search(
        self,
        query: np.ndarray,
        k: int,
        t_start: float = float("-inf"),
        t_end: float = float("inf"),
        params: SearchParams | None = None,
        rng: np.random.Generator | None = None,
        tau: float | None = None,
        trace: QueryTrace | None = None,
    ) -> QueryResult:
        """Answer a TkNN query ``(query, k, t_start, t_end)`` (Algorithm 4).

        The query resolves its time window to a store position range, walks
        the block tree top-down to pick a time-disjoint search block set
        (the τ rule — see :func:`repro.core.selection.select_blocks`) and
        plans it (:func:`repro.core.planner.plan`): one ``brute`` step per
        run of adjacent blocks an exact scan of their in-window rows answers
        more cheaply, one ``graph`` step per block whose index is searched.
        Each step runs once — one scan, or one block search — and the
        partial results merge once into the final top-``k``.  The
        :class:`QueryStats` and the trace's events are sums and slices of
        the steps; tracing decides nothing.

        One seed per selected block is drawn from ``rng``, in block order,
        and the merge is a stable sort on ``(distance, position)``, so a
        fixed ``rng`` state always yields the same answer.

        Args:
            query: Query vector ``w``.
            k: Number of nearest neighbors requested.
            t_start: Inclusive window start (default: unbounded).
            t_end: Exclusive window end (default: unbounded).
            params: Query-time search parameters; defaults to the index
                config's.
            rng: Randomness for entry sampling; defaults to index state.
            tau: Per-query override of the block-selection threshold; the
                paper suggests pre-computing the optimal tau per query
                interval (Section 5.4.2) — see
                :class:`repro.core.tuning.TauTuner`.
            trace: Optional :class:`repro.observability.QueryTrace` to fill
                with the selection walk, per-block decisions, and timings.
                The default ``None`` records nothing and allocates no trace
                objects (see :meth:`explain` for the convenient form).

        Returns:
            The approximate TkNN result, at most ``k`` entries.

        Raises:
            EmptyIndexError: If the index holds no vectors.
            InvalidQueryError: If ``k`` is not an integer ``>= 1``, the
                window is inverted, or the query is not a finite vector of
                the index's dimension.
        """
        query = np.asarray(query, dtype=np.float64)
        self._validate_query(query, k)
        window = TimeWindow(float(t_start), float(t_end))
        positions = self._store.resolve_window(window)
        if params is None:
            params = self._config.search
        if rng is None:
            rng = self._rng
        effective_tau = tau if tau is not None else self._config.tau

        started = time.perf_counter()
        if trace is not None:
            trace.k = k
            trace.t_start = window.start
            trace.t_end = window.end
            trace.tau = effective_tau
            trace.selection_mode = self._config.selection_mode
            trace.brute_force_threshold = params.brute_force_threshold
            trace.window_positions = (positions.start, positions.stop)

        if positions.start >= positions.stop:
            _SEARCH_QUERIES.inc()
            # Empty windows still answer a query: observe their latency so
            # service_query/search histograms (and the quantiles built on
            # them) describe every query, not just non-empty ones.
            _SEARCH_SECONDS.observe(time.perf_counter() - started)
            if trace is not None:
                trace.stats = QueryStats()
                trace.seconds = time.perf_counter() - started
            return QueryResult.empty(QueryStats())

        filled = len(self._store)
        selected = select_blocks(
            self._blocks,
            filled,
            self._config.leaf_size,
            effective_tau,
            positions,
            mode=self._config.selection_mode,
            query_window=window,
            timestamps=self._store.timestamps,
            trace=trace,
        )
        steps = plan(selected, positions, params, self.dim, filled)
        prefetched: frozenset[int] = frozenset()
        if self._tiering is not None:
            # Pin the window's blocks against eviction and (optionally)
            # promote the cold ones the plan will walk.
            prefetched = self._tiering.note_selection(steps, params)
        partials: list[tuple[np.ndarray, np.ndarray]] = []
        graph_blocks = nodes = evals = 0
        for step in steps:
            # One seed per block, in block order (scalar draws: the same
            # stream as one array draw, and cheaper for the few blocks a
            # query selects); a walk seeds its own generator with its own.
            for _ in step.blocks:
                seed = rng.integers(2**63 - 1)
            began = time.perf_counter() if trace is not None else 0.0
            walked = None
            if step.strategy == GRAPH:
                walked = self._search_step(
                    step, query, k, params, seed, prefetched
                )
            if walked is None:
                # A scan, or a sealed block whose build is still deferred
                # (it has no graph yet).
                found = brute_force_topk(
                    self._store, self._metric, query, k, step.rows, norms=self._scan
                )
                strategy, visited, work, tier = BRUTE, 0, len(step.rows), "hot"
            else:
                found, strategy, visited, work, tier = walked
                graph_blocks += 1
            partials.append(found)
            nodes += visited
            evals += work
            if trace is not None:
                self._trace_step(
                    trace, step, strategy, found, visited, work, tier, began, started
                )
        merged_positions, merged_dists = merge_partial_results(partials, k)
        span = positions.stop - positions.start
        stats = QueryStats(len(selected), graph_blocks, nodes, evals, span)

        _SEARCH_QUERIES.inc()
        _SEARCH_BLOCKS.inc(stats.blocks_searched)
        _SEARCH_DIST_EVALS.inc(stats.distance_evaluations)
        _SEARCH_SECONDS.observe(time.perf_counter() - started)
        if trace is not None:
            trace.stats = stats
            trace.result_positions = tuple(int(p) for p in merged_positions)
            trace.result_distances = tuple(float(d) for d in merged_dists)
            trace.seconds = time.perf_counter() - started
        return QueryResult(
            positions=merged_positions,
            distances=merged_dists,
            timestamps=self._store.timestamps[merged_positions],
            stats=stats,
        )

    def explain(
        self,
        query: np.ndarray,
        k: int,
        t_start: float = float("-inf"),
        t_end: float = float("inf"),
        params: SearchParams | None = None,
        rng: np.random.Generator | None = None,
        tau: float | None = None,
    ) -> QueryTrace:
        """Run one traced TkNN query and return its EXPLAIN trace.

        Identical to :meth:`search` (same arguments, same randomness
        consumption) except that every decision is recorded into the
        returned :class:`repro.observability.QueryTrace`.  Render it with
        :meth:`QueryTrace.render` or the ``repro explain`` CLI.
        """
        trace = QueryTrace()
        self.search(
            query, k, t_start, t_end, params=params, rng=rng, tau=tau,
            trace=trace,
        )
        return trace

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        t_start: float = float("-inf"),
        t_end: float = float("inf"),
        params: SearchParams | None = None,
        rng: np.random.Generator | None = None,
        trace_sink: list[QueryTrace] | None = None,
    ) -> list[QueryResult]:
        """Answer many TkNN queries sharing one time window, in input order.

        One seed per query is drawn from ``rng`` up front, and query ``i``
        runs :meth:`search` with ``np.random.default_rng(seeds[i])``, so
        ``search_batch(Q, rng=r)[i]`` equals that :meth:`search` call bit
        for bit — positions, distances and stats.

        Args:
            queries: ``(m, dim)`` matrix of query vectors.
            k: Neighbors per query.
            t_start: Inclusive window start.
            t_end: Exclusive window end.
            params: Query-time parameters; defaults to the index config's.
            rng: Seeds the per-query generators; defaults to index state.
            trace_sink: When given, one :class:`QueryTrace` per query is
                appended to this list, in input order — aggregate them with
                :func:`repro.observability.summarize_traces`.  ``None``
                (the default) traces nothing.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise InvalidQueryError(
                f"queries must be a (m, {self.dim}) matrix, "
                f"got shape {queries.shape}"
            )
        if rng is None:
            rng = self._rng
        seeds = rng.integers(0, 2**63 - 1, size=len(queries))
        results: list[QueryResult] = []
        for query, seed in zip(queries, seeds):
            trace = QueryTrace() if trace_sink is not None else None
            results.append(
                self.search(
                    query,
                    k,
                    t_start,
                    t_end,
                    params=params,
                    rng=np.random.default_rng(int(seed)),
                    trace=trace,
                )
            )
            if trace is not None:
                trace_sink.append(trace)
        return results

    def _adc_topk(
        self,
        view,
        query: np.ndarray,
        k: int,
        local: range,
        params: SearchParams,
    ) -> tuple[tuple[np.ndarray, np.ndarray], int]:
        """Compressed TkNN of one cold block: ADC scan + exact memmap rerank.

        ADC is a *candidate filter only*: the in-window code rows are
        scored with one flat-gather lookup-sum, the best
        ``cold_rerank_factor * k`` survive, and only those raw rows are
        gathered from the memmap for exact distances — the returned
        distances are always exact.  Returns ``(found, rerank_rows)``
        with absolute store positions.
        """
        lo = view.positions.start
        codes = view.codes[local.start - lo : local.stop - lo]
        q = query
        if self._metric.normalizes:
            norm = float(np.linalg.norm(q))
            if norm > 0:
                q = q / norm
        table = view.quantizer.adc_table(q)
        scores = adc_scan(table, codes, view.offsets)
        shortlist_size = min(len(codes), params.cold_rerank_factor * k)
        best = top_k_smallest(scores, shortlist_size)
        rows = view.source.slice(local.start, local.stop)[best]
        exact = self._metric.batch(query, rows)
        top = top_k_smallest(exact, k)
        ids = (local.start + best[top]).astype(np.int64)
        return (ids, exact[top]), shortlist_size

    def _search_step(
        self,
        step: PlanStep,
        query: np.ndarray,
        k: int,
        params: SearchParams,
        seed: int,
        prefetched: frozenset[int],
    ) -> tuple[tuple[np.ndarray, np.ndarray], str, int, int, str] | None:
        """Search the block of one ``graph`` step (Algorithm 2).

        A cold block is promoted and walked, or answered from its PQ codes
        where :meth:`~repro.tiering.manager.TierManager.answers_from_codes`
        says so.  ``prefetched`` holds the blocks this query's
        :meth:`~repro.tiering.manager.TierManager.note_selection` promoted;
        they are labelled ``promoted``, as a promotion on the miss is.
        Returns ``(found, strategy, nodes_visited, distance_evaluations,
        tier)``, or ``None`` when the block has no graph yet (its build is
        deferred).
        """
        (block,) = step.blocks
        rows = step.rows
        backend, tier = block.backend, "hot"
        if self._tiering is not None:
            if self._tiering.answers_from_codes(block, len(rows), params):
                # Scan the block's resident PQ codes (ADC) and rerank a small
                # shortlist exactly from the memmap: no promotion, no budget
                # churn.  A missing or torn sidecar promotes instead.
                view = self._tiering.resolve_compressed(block)
                if view is not None:
                    found, reranked = self._adc_topk(view, query, k, rows, params)
                    self._tiering.note_adc(reranked)
                    return found, "adc", 0, len(rows) + reranked, "cold"
            # Hot blocks resolve too (hit counter, LRU recency).
            backend, tier = self._tiering.resolve(block)
            if block.index in prefetched:
                tier = "promoted"
        if backend is None:
            return None
        offset = block.positions.start
        allowed = range(rows.start - offset, rows.stop - offset)
        outcome = backend.search(
            query, k, allowed, params, np.random.default_rng(int(seed))
        )
        found = ((offset + outcome.ids).astype(np.int64), outcome.dists)
        return found, GRAPH, outcome.nodes_visited, outcome.distance_evaluations, tier

    def _trace_step(
        self,
        trace: QueryTrace,
        step: PlanStep,
        strategy: str,
        found: tuple[np.ndarray, np.ndarray],
        nodes: int,
        evals: int,
        tier: str,
        began: float,
        t0: float,
    ) -> None:
        """Append one executed step to ``trace``, and one event per block.

        Each block's event covers its rows inside the step's and takes the
        step's time by row count (a scan charges each block its own rows);
        ``started`` is an offset from the query start ``t0``.
        """
        seconds = time.perf_counter() - began
        rows = step.rows
        started = began - t0
        for block, reason in zip(step.blocks, step.reasons):
            lo = max(rows.start, block.positions.start)
            hi = min(rows.stop, block.positions.stop)
            share = seconds * (hi - lo) / len(rows)
            built = True
            if strategy == BRUTE:
                # A scanned slice of a *cold* block is still a built block;
                # label it so explain output is honest.
                cold = (
                    block.backend is None
                    and self._tiering is not None
                    and self._tiering.is_cold(block)
                )
                built = block.backend is not None or cold
                tier = "cold" if cold else "hot"
                nodes, evals = 0, hi - lo
                if not built:
                    reason = "open-leaf"
            elif strategy == "adc":
                reason = "cold-codes"
            trace.blocks.append(
                BlockSearchEvent(
                    block_index=block.index,
                    height=block.height,
                    positions=(block.positions.start, block.positions.stop),
                    window=(lo, hi),
                    built=built,
                    strategy=strategy,
                    reason=reason,
                    nodes_visited=nodes,
                    distance_evaluations=evals,
                    seconds=share,
                    n_results=int(np.count_nonzero((found[0] >= lo) & (found[0] < hi))),
                    started=started,
                    tier=tier,
                )
            )
            started += share
        trace.plan.append(
            PlanStepEvent(
                strategy,
                tuple(block.index for block in step.blocks),
                (rows.start, rows.stop),
                step.est_us,
                seconds * 1e6,
            )
        )

    def _validate_query(self, query: np.ndarray, k: int) -> None:
        if len(self._store) == 0:
            raise EmptyIndexError("cannot search an empty index")
        check_query(query, k, self.dim)
