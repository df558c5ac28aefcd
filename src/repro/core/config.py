"""Configuration objects for MBI and its query processing.

The paper's tunables map onto two frozen dataclasses:

* :class:`MBIConfig` — index-time parameters: the leaf size ``S_L``, the
  block-selection threshold ``tau``, per-block graph construction
  (:class:`repro.graph.GraphConfig`), and parallel-merge settings;
* :class:`SearchParams` — query-time parameters: the search-range control
  ``epsilon`` and the candidate cap ``M_C`` of Algorithm 2, plus the entry
  selection strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ConfigurationError
from ..graph.builder import GraphConfig
from ..graph.hnsw import HNSWParams

SELECTION_MODES = ("count", "time")


@dataclass(frozen=True)
class IVFConfig:
    """Build parameters for IVF block backends.

    Attributes:
        points_per_list: Target average cell population; the number of
            lists for a block of ``n`` vectors is ``~ n / points_per_list``
            (clamped to at least 1, at most ``n``).
        base_probes: Cells probed at ``epsilon = 1.0``.
        kmeans_iters: Lloyd iterations for the coarse quantizer.
    """

    points_per_list: int = 64
    base_probes: int = 1
    kmeans_iters: int = 15

    def __post_init__(self) -> None:
        if self.points_per_list < 1:
            raise ValueError(
                f"points_per_list must be >= 1, got {self.points_per_list}"
            )
        if self.base_probes < 1:
            raise ValueError(f"base_probes must be >= 1, got {self.base_probes}")
        if self.kmeans_iters < 1:
            raise ValueError(f"kmeans_iters must be >= 1, got {self.kmeans_iters}")

    def n_lists_for(self, n: int) -> int:
        """Number of coarse cells for a block of ``n`` vectors."""
        return max(1, min(n, round(n / self.points_per_list)))


@dataclass(frozen=True)
class IVFPQConfig:
    """Build parameters for IVF-PQ (IVFADC) block backends.

    Attributes:
        points_per_list: Target average coarse-cell population.
        pq_subspaces: Product-quantizer chunks ``m``.
        pq_centroids: Codebook size per chunk (<= 256, codes are uint8).
        pq_iters: Lloyd iterations per codebook.
        rerank_factor: ADC candidates per requested neighbor re-ranked with
            exact distances.
        kmeans_iters: Lloyd iterations for the coarse quantizer.
    """

    points_per_list: int = 64
    pq_subspaces: int = 8
    pq_centroids: int = 64
    pq_iters: int = 15
    rerank_factor: int = 4
    kmeans_iters: int = 15

    def __post_init__(self) -> None:
        if self.points_per_list < 1:
            raise ValueError(
                f"points_per_list must be >= 1, got {self.points_per_list}"
            )
        if self.pq_subspaces < 1:
            raise ValueError(
                f"pq_subspaces must be >= 1, got {self.pq_subspaces}"
            )
        if not 2 <= self.pq_centroids <= 256:
            raise ValueError(
                f"pq_centroids must be in [2, 256], got {self.pq_centroids}"
            )
        if self.pq_iters < 1:
            raise ValueError(f"pq_iters must be >= 1, got {self.pq_iters}")
        if self.rerank_factor < 1:
            raise ValueError(
                f"rerank_factor must be >= 1, got {self.rerank_factor}"
            )
        if self.kmeans_iters < 1:
            raise ValueError(
                f"kmeans_iters must be >= 1, got {self.kmeans_iters}"
            )

    def n_lists_for(self, n: int) -> int:
        """Number of coarse cells for a block of ``n`` vectors."""
        return max(1, min(n, round(n / self.points_per_list)))


@dataclass(frozen=True)
class LSHParams:
    """Parameters of the hyperplane-LSH table set.

    Attributes:
        n_tables: Independent hash tables ``L``.
        n_bits: Hyperplanes (signature bits) per table; buckets shrink
            exponentially in this.
        max_probe_bits: Cap on how many low-margin bits multiprobe may
            flip (probes grow linearly per flipped bit).
    """

    n_tables: int = 8
    n_bits: int = 10
    max_probe_bits: int = 6

    def __post_init__(self) -> None:
        if self.n_tables < 1:
            raise ValueError(f"n_tables must be >= 1, got {self.n_tables}")
        if not 1 <= self.n_bits <= 62:
            raise ValueError(f"n_bits must be in [1, 62], got {self.n_bits}")
        if self.max_probe_bits < 0:
            raise ValueError(
                f"max_probe_bits must be >= 0, got {self.max_probe_bits}"
            )


@dataclass(frozen=True)
class SearchParams:
    """Query-time parameters of the graph search (Algorithm 2).

    Attributes:
        epsilon: Search-range slack; the paper sweeps 1.0-1.4 in steps of
            0.02 and reports the Pareto frontier.
        max_candidates: The candidate-set cap ``M_C``.
        entry_sample: Number of random nodes scored to pick search entry
            points.  The paper starts from one random vector; sampling a few
            and keeping the best is the standard robustification for
            clustered data (cost: ``entry_sample`` extra distance
            computations per block searched).
        n_entries: How many of the sampled nodes seed the search frontier.
        beam_width: Candidates expanded per iteration of the vectorized
            beam engine (:func:`repro.graph.graph_search`).  ``1``
            reproduces the classical greedy expansion order; wider beams
            amortise NumPy dispatch over bigger adjacency gathers and
            fused distance calls, trading a little extra exploration for
            much higher throughput (see ``docs/performance.md`` for the
            measured ``beam_width`` x ``epsilon`` sweep).
        brute_force_threshold: ``None`` (the default) lets the block
            planner (:mod:`repro.core.planner`) scan a selected block's
            in-window rows exactly whenever its cost table prices that
            below one graph search of the block.  An int pins the fixed
            rule instead: scan exactly when the window covers at most this
            many vectors of a block.  ``0`` is the paper's literal
            Algorithm 4 (graph search on every built block) and ``10**9``
            scans everything.
        cold_adc_threshold: When ``MBIConfig.cold_codes`` is on, a cold
            block the plan would graph-search, and whose in-window span
            exceeds this many vectors, is answered ADC-first from its
            resident code sidecar (compressed scan + exact memmap
            re-rank, no promotion) instead of being promoted.  Spans at or
            below the threshold promote — for tiny spans the ADC table
            build costs more than it saves.  Ignored when ``cold_codes``
            is off.
        cold_rerank_factor: ADC candidates per requested neighbor that the
            cold-tier compressed search re-ranks with exact memmap reads.
            Higher values gather more rows for the exact pass: recall is
            monotone non-decreasing in this factor (a property test pins
            that), latency rises linearly in it.
    """

    epsilon: float = 1.1
    max_candidates: int = 128
    entry_sample: int = 32
    n_entries: int = 4
    beam_width: int = 32
    brute_force_threshold: int | None = None
    cold_adc_threshold: int = 64
    cold_rerank_factor: int = 4

    def __post_init__(self) -> None:
        if self.epsilon < 1.0:
            raise ConfigurationError(
                f"epsilon must be >= 1.0, got {self.epsilon}"
            )
        if self.max_candidates < 1:
            raise ConfigurationError(
                f"max_candidates must be >= 1, got {self.max_candidates}"
            )
        if self.entry_sample < 1:
            raise ConfigurationError(
                f"entry_sample must be >= 1, got {self.entry_sample}"
            )
        if not 1 <= self.n_entries <= self.entry_sample:
            raise ConfigurationError(
                f"n_entries must be in [1, entry_sample={self.entry_sample}], "
                f"got {self.n_entries}"
            )
        if self.beam_width < 1:
            raise ConfigurationError(
                f"beam_width must be >= 1, got {self.beam_width}"
            )
        if self.brute_force_threshold is not None and self.brute_force_threshold < 0:
            raise ConfigurationError(
                f"brute_force_threshold must be >= 0, "
                f"got {self.brute_force_threshold}"
            )
        if self.cold_adc_threshold < 0:
            raise ConfigurationError(
                f"cold_adc_threshold must be >= 0, "
                f"got {self.cold_adc_threshold}"
            )
        if self.cold_rerank_factor < 1:
            raise ConfigurationError(
                f"cold_rerank_factor must be >= 1, "
                f"got {self.cold_rerank_factor}"
            )

    def with_epsilon(self, epsilon: float) -> "SearchParams":
        """Copy with a different ``epsilon`` (used by the evaluation sweep)."""
        return SearchParams(
            epsilon=epsilon,
            max_candidates=self.max_candidates,
            entry_sample=self.entry_sample,
            n_entries=self.n_entries,
            beam_width=self.beam_width,
            brute_force_threshold=self.brute_force_threshold,
            cold_adc_threshold=self.cold_adc_threshold,
            cold_rerank_factor=self.cold_rerank_factor,
        )


@dataclass(frozen=True)
class TieringConfig:
    """Knobs of the two-tier block lifecycle (:mod:`repro.tiering`).

    Attributes:
        enabled: Turn tiering on.  Off (the default), every built block
            stays resident and the index behaves exactly as before — the
            tier manager is never constructed.
        memory_budget_mb: Size budget, in MiB, for resident block index
            structures (backend + per-block norm cache bytes).  ``None``
            means unbounded: blocks are demoted only by explicit compaction
            sweeps, never by cache pressure.  The budget is enforced by
            LRU eviction after promotions and builds; a single query's
            working set may transiently overshoot it (correctness first —
            a selected block is never evicted mid-search to satisfy the
            budget).
        hot_window_vectors: Keep blocks overlapping the newest this-many
            store positions hot regardless of LRU age (the recency prior:
            queries skew toward recent windows).  ``None`` derives it as
            two leaves' worth of vectors at manager construction.
        directory: Where cold block files live.  ``None`` uses a private
            temporary directory (removed when the index is collected);
            :class:`repro.service.IndexService` passes ``data_dir/tiers``.
        prefetch_selected: Promote the blocks a query's selection walk
            picked *before* the per-block searches run.
    """

    enabled: bool = False
    memory_budget_mb: float | None = None
    hot_window_vectors: int | None = None
    directory: str | None = None
    prefetch_selected: bool = True

    def __post_init__(self) -> None:
        if self.memory_budget_mb is not None and self.memory_budget_mb <= 0:
            raise ConfigurationError(
                f"memory_budget_mb must be > 0 or None, "
                f"got {self.memory_budget_mb}"
            )
        if self.hot_window_vectors is not None and self.hot_window_vectors < 0:
            raise ConfigurationError(
                f"hot_window_vectors must be >= 0 or None, "
                f"got {self.hot_window_vectors}"
            )

    @property
    def budget_bytes(self) -> int | None:
        """The byte form of ``memory_budget_mb`` (``None`` = unbounded)."""
        if self.memory_budget_mb is None:
            return None
        return int(self.memory_budget_mb * 1024 * 1024)


@dataclass(frozen=True)
class MBIConfig:
    """Index-time parameters of Multi-level Block Indexing.

    Attributes:
        leaf_size: The paper's ``S_L`` — vectors per leaf block.
        tau: Block-selection threshold; Lemma 4.1 guarantees at most two
            blocks are searched when ``tau <= 0.5``, and the paper
            recommends 0.5 absent tuning.
        selection_mode: How the overlap ratio ``r_o`` is computed:
            ``"count"`` uses vector counts (faithful to the proofs, which
            split blocks by count) and ``"time"`` uses timestamp spans (the
            literal formula in Section 4.3).  They coincide under uniform
            arrival rates.
        backend: Per-block index kind — ``"graph"`` (the paper's choice),
            ``"ivf"``, ``"ivfpq"`` (quantization alternatives), or
            ``"hnsw"``; see :mod:`repro.core.backends`.
        graph: Graph-backend construction parameters.
        ivf: IVF-backend construction parameters.
        ivfpq: IVF-PQ-backend construction parameters.
        hnsw: HNSW-backend construction parameters.
        lsh: LSH-backend construction parameters.
        search: Default query-time parameters (overridable per query).
        parallel: Build merge-chain blocks in a thread pool (the paper's
            "Parallelization of MBI").
        max_workers: Thread-pool size when ``parallel``; ``None`` lets the
            executor decide.
        tiering: Two-tier block lifecycle knobs (see :class:`TieringConfig`
            and ``docs/tiering.md``).  Disabled by default; answers are
            bit-identical with tiering on or off, for any budget.
        cold_codes: Answer cold blocks ADC-first from resident PQ code
            sidecars (compressed scan + exact memmap re-rank — see
            ``docs/quantization.md``) instead of promoting them.  Off by
            default: with ``cold_codes=False`` every answer stays
            bit-identical to the untiered index; turning it on trades
            exactness of the *candidate filter* (final distances are
            always exact) for promotion-free cold reads.  Tuned by
            ``SearchParams.cold_adc_threshold`` / ``cold_rerank_factor``.
        seed: Base seed for all randomness inside the index (NNDescent,
            entry sampling).
    """

    leaf_size: int = 1000
    tau: float = 0.5
    selection_mode: str = "count"
    backend: str = "graph"
    graph: GraphConfig = field(default_factory=GraphConfig)
    ivf: IVFConfig = field(default_factory=IVFConfig)
    ivfpq: IVFPQConfig = field(default_factory=IVFPQConfig)
    hnsw: HNSWParams = field(default_factory=HNSWParams)
    lsh: LSHParams = field(default_factory=LSHParams)
    search: SearchParams = field(default_factory=SearchParams)
    parallel: bool = False
    max_workers: int | None = None
    tiering: TieringConfig = field(default_factory=TieringConfig)
    cold_codes: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.leaf_size < 1:
            raise ConfigurationError(
                f"leaf_size must be >= 1, got {self.leaf_size}"
            )
        if not 0.0 < self.tau <= 1.0:
            raise ConfigurationError(
                f"tau must be in (0, 1], got {self.tau}"
            )
        if self.selection_mode not in SELECTION_MODES:
            raise ConfigurationError(
                f"selection_mode must be one of {SELECTION_MODES}, "
                f"got {self.selection_mode!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1 or None, got {self.max_workers}"
            )

    def with_tau(self, tau: float) -> "MBIConfig":
        """Copy with a different ``tau`` (used by the Figure 9 sweep)."""
        return MBIConfig(
            leaf_size=self.leaf_size,
            tau=tau,
            selection_mode=self.selection_mode,
            backend=self.backend,
            graph=self.graph,
            ivf=self.ivf,
            ivfpq=self.ivfpq,
            hnsw=self.hnsw,
            lsh=self.lsh,
            search=self.search,
            parallel=self.parallel,
            max_workers=self.max_workers,
            tiering=self.tiering,
            cold_codes=self.cold_codes,
            seed=self.seed,
        )
