"""The four workloads.  Sizes and rates here are frozen: changing one is a
benchmark change (its own PR, no gain claimed, baseline measured again).

Every workload offers ``setup()`` (generate, build, warm up; callable more
than once), ``measure(seconds)`` (tracing off: the end-to-end metrics),
``trace(seconds)`` (wrappers on: the per-layer values), ``finish()`` (what
must happen last: crash recovery) and ``close()``.
"""

from __future__ import annotations

import math
import shutil
import statistics
import tempfile
import threading
import time
from concurrent.futures import wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import (
    BSBFIndex,
    ExactOracle,
    IndexService,
    MBIConfig,
    MultiLevelBlockIndex,
    SearchParams,
    ServiceConfig,
    SFIndex,
    get_registry,
)
from repro.datasets.synthetic import SyntheticSpec, generate
from repro.eval.recall import recall_at_k
from repro.exceptions import ReproError
from repro.tiering.compactor import Compactor

from .protocol import (
    DIM,
    K,
    LEAF_SIZE,
    SAMPLE_EVERY,
    SEGMENTS,
    HostSpeed,
    LoopResult,
    Sample,
    closed_loop,
    metric,
    peak_rss_mb,
    timing_metrics,
    verify,
)
from .spans import Tracer

WORK = Path(__file__).resolve().parent / "work"
# Window lengths as a share of the rows.  ``lib-narrow`` draws the first two,
# ``lib-wide`` the rest; ``mbi.qps_f*`` reports each apart.
LIB_NARROW = (0.005, 0.01)
LIB_WIDE = (0.15, 0.5, 0.95)
FRACTIONS = LIB_NARROW + LIB_WIDE
STREAM = 1 << 14  # queries drawn per run; the loops cycle through them


@dataclass(frozen=True)
class Profile:
    """Input sizes.  ``FULL`` is the benchmark; ``SMOKE`` only proves it runs."""

    n: int
    serve_preload: int
    warmup: int
    setup_repeats: int
    setup_seconds: float  # keep setting up until this much has been timed
    seconds: float


FULL = Profile(n=4000, serve_preload=1700, warmup=300, setup_repeats=3,
               setup_seconds=2.5, seconds=20.0)
SMOKE = Profile(n=2000, serve_preload=1500, warmup=50, setup_repeats=1,
                setup_seconds=0.0, seconds=2.0)

# ``serve-mixed``: open-loop arrival rates (queries per second) are fixed
# numbers, about 10 % and 25 % of what phase A sustains on the 2-core
# reference host; README.md says why no more.
R_LOW = 200.0
R_REF = 500.0
INGEST_RATE = 100.0  # rows per second, scheduled by row count
OUTSTANDING = 16  # phase A keeps this many futures in flight
RECALL_FLOOR = 0.95  # ``tiered-backfill`` answers from PQ codes and holds 0.99

END_TO_END = {
    "setup_s": "s",
    "query_qps": "1/s",
    "query_p50_ms": "ms",
    "recall_at_10": "fraction",
    "resident_mb": "MiB",
}

# Every per-layer name with its unit.  A workload that leaves a layer idle
# reports 0 for it: the driver wants every name from every workload.
PER_LAYER = {
    "query_p95_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MiB",
    "mbi.search_us": "us",
    "mbi.self_us": "us",
    "mbi.dist_evals_per_query": "count",
    "mbi.blocks_per_query": "count",
    **{f"mbi.qps_f{f:g}": "1/s" for f in FRACTIONS},
    "storage.resolve_window_us": "us",
    "selection.time_us": "us",
    "selection.blocks_selected": "count",
    "brute.scan_us": "us",
    "brute.calls_per_query": "count",
    "brute.rows_per_query": "count",
    "graph.search_us": "us",
    "graph.calls_per_query": "count",
    "graph.dist_evals_per_query": "count",
    "graph.nodes_visited_per_query": "count",
    "graph.build_s": "s",
    "graph.build_dist_evals": "count",
    "merge.time_us": "us",
    "merge.partials_per_query": "count",
    "tiering.resolve_us": "us",
    "tiering.hit_rate": "fraction",
    "tiering.promotions": "count",
    "tiering.demotions": "count",
    "tiering.promote_ms_total": "ms",
    "tiering.resident_mb_peak": "MiB",
    "tiering.within_budget": "bool",
    "adc.scan_us": "us",
    "adc.searches": "count",
    "adc.rerank_rows_per_query": "count",
    "admission.wait_ms_p50": "ms",
    "admission.wait_ms_p99": "ms",
    "admission.batch_size_mean": "count",
    "admission.rejected": "count",
    "wal.append_us": "us",
    "wal.fsyncs": "count",
    "wal.bytes_per_row": "bytes",
    "build.busy_frac": "fraction",
    "build.blocks_built": "count",
    "serve.p50_ms_at_r_ref": "ms",
    "serve.p99_ms_at_r_low": "ms",
    "serve.achieved_over_offered": "ratio",
    "serve.ingest_p99_ms": "ms",
    "serve.recovery_s": "s",
    "gen.late_p99_ms": "ms",
    "disk.bytes_per_user_byte": "ratio",
    "baseline.bsbf_qps": "1/s",
    "baseline.sf_qps": "1/s",
    "baseline.mbi_over_best": "ratio",
    "trace.overhead_frac": "fraction",
    "trace.query_coverage": "ratio",
    "host.calib_evals_per_s": "1/s",
}


def dataset(seed: int, n: int):
    """Drifting clusters, euclidean, ``DIM`` dimensions: the common input."""
    return generate(
        SyntheticSpec(
            n_items=n, n_queries=1024, dim=DIM, metric="euclidean",
            generator="drifting_clusters", seed=seed,
        )
    )


def registry_delta(before: dict, after: dict) -> dict[str, float]:
    """How far each registry metric moved (histograms: their sum)."""
    out = {}
    for name, value in after.items():
        old = before.get(name, 0.0)
        if isinstance(value, dict):
            out[name] = value["sum"] - (old["sum"] if isinstance(old, dict) else 0.0)
        else:
            out[name] = value - old
    return out


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def layer_values(
    layers: dict[str, dict], moved: dict[str, float], issued: int,
    traced_qps: float, plain_qps: float,
) -> dict[str, float]:
    """The per-query layer numbers every workload derives the same way.

    Times are totals over the traced phase divided by the queries its spans
    cover (``search`` spans plus the sizes of ``search_batch`` spans); counts
    come from the span ``count`` field where the boundary sees the work,
    else from registry deltas over the same phase.  ``layers`` is
    :meth:`Tracer.layers` of that phase and ``issued`` the queries the
    generator sent during it: ``trace.query_coverage`` is covered / issued,
    and away from 1 the per-query numbers describe some other population.
    """
    mbi = layers["mbi"]
    queries = mbi["queries"]

    def us(*names: str) -> float:
        total = sum(layers.get(name, {}).get("seconds", 0.0) for name in names)
        return total * 1e6 / queries if queries else 0.0

    def each(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0) / queries if queries else 0.0

    def moved_each(name: str) -> float:
        return moved.get(name, 0.0) / queries if queries else 0.0

    tier = ("tiering.note_selection", "tiering.resolve", "tiering.resolve_compressed")
    lookups = moved.get("tier_hits_total", 0.0) + moved.get("tier_misses_total", 0.0)
    return {
        "mbi.search_us": mbi["seconds"] * 1e6 / queries if queries else 0.0,
        "mbi.self_us": mbi["self_seconds"] * 1e6 / queries if queries else 0.0,
        "mbi.dist_evals_per_query": moved_each("mbi_search_distance_evals_total"),
        "mbi.blocks_per_query": moved_each("mbi_search_blocks_total"),
        "storage.resolve_window_us": us("storage.resolve_window"),
        "selection.time_us": us("selection.select"),
        "selection.blocks_selected": each("selection.select", "count"),
        "brute.scan_us": us("brute.scan"),
        "brute.calls_per_query": each("brute.scan", "spans"),
        "brute.rows_per_query": each("brute.scan", "count"),
        "graph.search_us": us("graph.search"),
        "graph.calls_per_query": each("graph.search", "spans"),
        "graph.dist_evals_per_query": moved_each("graph_search_distance_evals_total"),
        "graph.nodes_visited_per_query": moved_each("graph_search_nodes_visited_total"),
        "merge.time_us": us("merge.merge"),
        "merge.partials_per_query": each("merge.merge", "count"),
        "tiering.resolve_us": us(*tier),
        # A prefetched block counts as a hit when it is resolved a moment
        # later, so misses alone undercount: every promotion served one lookup.
        "tiering.hit_rate": (
            1.0 - moved.get("tier_promotions_total", 0.0) / lookups if lookups else 0.0
        ),
        "tiering.promotions": moved.get("tier_promotions_total", 0.0),
        "tiering.demotions": moved.get("tier_demotions_total", 0.0),
        "tiering.promote_ms_total": moved.get("tier_promote_seconds", 0.0) * 1e3,
        "tiering.resident_mb_peak": max(
            layers.get(name, {}).get("peak", 0) for name in tier[1:]
        ) / 2**20,
        "adc.scan_us": us("adc.scan"),
        "adc.searches": moved.get("tier_adc_searches_total", 0.0),
        "adc.rerank_rows_per_query": moved_each("tier_adc_rerank_rows_total"),
        "trace.overhead_frac": 1.0 - traced_qps / plain_qps if plain_qps else 0.0,
        "trace.query_coverage": queries / issued if issued else 0.0,
    }


class Workload:
    """Shared plumbing: data, oracle, failure accounting.

    ``attempted`` counts operations sent and ``failed`` those refused, in
    error, timed out or lost; generator, ingester and the service's worker
    all report, so both change under a lock (:meth:`_tally`).  ``checked``
    counts the sampled answers the oracle re-answered and ``wrong`` those it
    rejected.  A run's result says ``failed + wrong`` of ``attempted``.
    """

    name = ""
    generator_threads = 1
    recall_floor = RECALL_FLOOR

    def __init__(self, seed: int, profile: Profile) -> None:
        self.seed = seed
        self.profile = profile
        self.data = None
        self.oracle: ExactOracle | None = None
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.wrong = 0
        self._lock = threading.Lock()
        self.speed = HostSpeed()
        self.tracer: Tracer | None = None
        self.notes: list[str] = []

    def _tally(self, attempted: int = 0, failed: int = 0, note: str = "") -> None:
        with self._lock:
            self.attempted += attempted
            self.failed += failed
            if note:
                self.notes.append(note)

    def good_share(self) -> float:
        """Share of answers that count as correct: sent operations that did
        not fail, times sampled answers the oracle accepted."""
        done = 1.0 - self.failed / self.attempted if self.attempted else 1.0
        right = 1.0 - self.wrong / self.checked if self.checked else 1.0
        return done * right

    def close(self) -> None:
        """Release what ``setup`` opened."""

    def finish(self) -> dict[str, float]:
        """Last step of a run; per-layer values only it can measure."""
        return {}

    def _load(self, n: int) -> None:
        self.data = dataset(self.seed, n)
        self.oracle = ExactOracle(DIM, "euclidean")
        self.oracle.extend(self.data.vectors, self.data.timestamps)

    def _check(self, samples: list[Sample]) -> float:
        """Called between phases, from the main thread only."""
        recall, wrong = verify(self.oracle, samples, self.recall_floor)
        self.checked += len(samples)
        self.wrong += wrong
        if wrong:
            self.notes.append(
                f"{wrong} of {len(samples)} sampled answers rejected "
                f"(mean recall {recall:.4f}, floor {self.recall_floor})"
            )
        return recall


# --------------------------------------------------------------- library


class LibraryWorkload(Workload):
    """In-process ``MultiLevelBlockIndex.search``, one caller, closed loop.

    ``lib-narrow`` and ``lib-wide`` are this class over the same data and
    differ only in the window fractions drawn.
    """

    baselines = True

    def __init__(
        self, name: str, fractions: tuple[float, ...], seed: int, profile: Profile
    ) -> None:
        super().__init__(seed, profile)
        self.name = name
        self.fractions = fractions
        self.index: MultiLevelBlockIndex | None = None

    def _draw(self, rng: np.random.Generator) -> None:
        """The stream: fraction ``i mod len`` at a uniform random offset."""
        n, ts = len(self.data.vectors), self.data.timestamps
        self.q_of = rng.integers(0, len(self.data.queries), STREAM).tolist()
        self.f_of = [self.fractions[i % len(self.fractions)] for i in range(STREAM)]
        self.t0, self.t1 = [], []
        for fraction in self.f_of:
            rows = max(1, int(fraction * n))
            lo = int(rng.integers(0, n - rows + 1))
            self.t0.append(float(ts[lo]))
            self.t1.append(float(ts[lo + rows]) if lo + rows < n else math.inf)

    def _build(self) -> None:
        self.index = MultiLevelBlockIndex(DIM, "euclidean", MBIConfig(leaf_size=LEAF_SIZE))
        self.index.extend(self.data.vectors, self.data.timestamps)

    def setup(self) -> None:
        self.close()
        self._load(self.profile.n)
        self._draw(np.random.default_rng([self.seed, 1]))
        self._build()
        for i in range(self.profile.warmup):
            self.answer(i)

    def answer(self, i: int):
        j = i % STREAM
        return self.index.search(
            self.data.queries[self.q_of[j]], K, self.t0[j], self.t1[j]
        )

    def _samples(self, loop: LoopResult) -> list[Sample]:
        out = []
        for i, result in loop.kept:
            j = i % STREAM
            out.append(
                Sample(
                    self.data.queries[self.q_of[j]], self.t0[j], self.t1[j],
                    result.positions, result.distances,
                    exact=result.stats.graph_blocks == 0,
                )
            )
        return out

    def measure(self, seconds: float) -> dict[str, dict]:
        loop = closed_loop(
            self.answer, seconds, first=self.profile.warmup, probe=self.speed
        )
        self.attempted += len(loop.latencies)
        recall = self._check(self._samples(loop))
        out = timing_metrics(
            loop.segments(), loop.durations, self.good_share(), self.speed.factors()
        )
        out["recall_at_10"] = metric(recall, "fraction", samples=len(loop.kept))
        return out

    # ------------------------------------------------------------- traced

    def _other(self, method):
        def answer(i: int):
            j = i % STREAM
            return method.search(
                self.data.queries[self.q_of[j]], K, self.t0[j], self.t1[j]
            )

        return answer

    def trace(self, seconds: float) -> dict[str, float]:
        """Interleaved slices: MBI traced, MBI untraced, then BSBF and SF.

        Five rounds over the same stream, so drift during the run lands on
        every method alike.  The baselines answer the workload's own stream:
        ``baseline.mbi_over_best`` is the paper's Fig. 5 claim on wall clock.
        """
        share = {"traced": 0.5, "plain": 0.2, "bsbf": 0.15, "sf": 0.15}
        answers = {"traced": self.answer, "plain": self.answer}
        if self.baselines:
            bsbf = BSBFIndex(DIM, "euclidean")
            bsbf.extend(self.data.vectors, self.data.timestamps)
            sf = SFIndex(DIM, "euclidean")
            sf.extend(self.data.vectors, self.data.timestamps)
            sf.build()
            answers.update(bsbf=self._other(bsbf), sf=self._other(sf))
        else:
            share = {"traced": 0.7, "plain": 0.3}
        rounds = 5
        loops: dict[str, list[LoopResult]] = {key: [] for key in share}
        tracer = self.tracer = Tracer()
        registry = get_registry()
        moved: dict[str, float] = {}
        first = self.profile.warmup
        for _ in range(rounds):
            for key, part in share.items():
                span = seconds * part / rounds
                if key == "traced":
                    before = registry.snapshot()
                    tracer.install()
                try:
                    loops[key].append(closed_loop(answers[key], span, 1, first))
                finally:
                    if key == "traced":
                        tracer.uninstall()
                        delta = registry_delta(before, registry.snapshot())
                        for name, value in delta.items():
                            moved[name] = moved.get(name, 0.0) + value
            first += STREAM // rounds

        def qps(key: str) -> float:
            runs = loops.get(key, [])
            total = sum(len(loop.latencies) for loop in runs)
            return total / sum(loop.seconds for loop in runs) if runs else 0.0

        for key in ("traced", "plain"):
            for loop in loops[key]:
                self.attempted += len(loop.latencies)
                self._check(self._samples(loop))
        issued = sum(len(loop.latencies) for loop in loops["traced"])
        out = layer_values(tracer.layers(), moved, issued, qps("traced"), qps("plain"))
        out["graph.build_s"] = self.index.total_build_seconds
        out["graph.build_dist_evals"] = self.index.total_distance_evaluations
        plain = np.concatenate([loop.latencies for loop in loops["plain"]])
        out["query_p95_ms"] = float(np.percentile(plain, 95)) * 1e3
        out["query_p99_ms"] = float(np.percentile(plain, 99)) * 1e3
        out["peak_rss_mb"] = peak_rss_mb()
        # 1 / mean untraced latency at each fraction this workload draws.
        by_fraction: dict[float, list[float]] = {}
        for loop in loops["plain"]:
            for offset, latency in enumerate(loop.latencies):
                fraction = self.f_of[(loop.first + offset) % STREAM]
                if fraction is not None:
                    by_fraction.setdefault(fraction, []).append(latency)
        for fraction, latencies in by_fraction.items():
            out[f"mbi.qps_f{fraction:g}"] = 1.0 / statistics.fmean(latencies)
        if self.baselines:
            best = max(qps("bsbf"), qps("sf"))
            out["baseline.bsbf_qps"] = qps("bsbf")
            out["baseline.sf_qps"] = qps("sf")
            out["baseline.mbi_over_best"] = qps("plain") / best
            for key in ("bsbf", "sf"):
                recalls = [
                    recall_at_k(
                        s.positions,
                        self.oracle.search(s.query, K, s.t_start, s.t_end).positions,
                    )
                    for loop in loops[key]
                    for s in self._samples(loop)
                ]
                self.notes.append(
                    f"baseline {key}: recall@{K} {statistics.fmean(recalls):.4f} "
                    f"over {len(recalls)} sampled answers"
                )
        return out


# ---------------------------------------------------------------- tiered


class TieredWorkload(LibraryWorkload):
    """The same loop over an index whose blocks do not fit its memory budget.

    Budget: an eighth of what the blocks occupy all-hot (at a quarter all
    eight leaves fit and nothing churns).  ``cold_adc_threshold`` is raised
    from 64 to one leaf: with the default, every cold span above 64 rows
    answers from PQ codes and promote-on-miss is never reached, so half of
    the tier layer would go unmeasured.  With it, spans inside one leaf
    promote (and churn the LRU), spans across larger cold blocks scan codes
    and rerank from the memmap.
    """

    baselines = False
    budget_share = 0.125
    recall_floor = 0.99

    def __init__(self, seed: int, profile: Profile) -> None:
        super().__init__("tiered-backfill", (), seed, profile)
        self.dir: Path | None = None
        self.manager = None

    def _draw(self, rng: np.random.Generator) -> None:
        """Per four queries: two recent, one wide and cold, one narrow and cold."""
        n, ts = len(self.data.vectors), self.data.timestamps
        self.q_of = rng.integers(0, len(self.data.queries), STREAM).tolist()
        self.f_of = [None] * STREAM  # no window-fraction axis here
        self.t0, self.t1 = [], []
        recent = n - n // 20
        for i in range(STREAM):
            kind = i % 4
            if kind in (0, 2):  # the newest 5 % of rows: hot
                lo, rows = recent, n - recent
            elif kind == 1:  # 30-50 % of the timeline, inside the cold prefix
                rows = int(rng.integers(3 * n // 10, n // 2))
                lo = int(rng.integers(0, n // 10))
            else:  # 5 % at a random cold offset: promote on miss
                rows = n // 20
                lo = int(rng.integers(0, 7 * n // 10))
            self.t0.append(float(ts[lo]))
            self.t1.append(float(ts[lo + rows]) if lo + rows < n else math.inf)

    def _build(self) -> None:
        config = MBIConfig(
            leaf_size=LEAF_SIZE,
            cold_codes=True,
            search=SearchParams(cold_adc_threshold=LEAF_SIZE),
        )
        self.index = MultiLevelBlockIndex(DIM, "euclidean", config)
        self.index.extend(self.data.vectors, self.data.timestamps)
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="tiers-", dir=WORK))
        self.manager = self.index.enable_tiering(directory=self.dir)
        self.budget = int(self.manager.cache.resident_bytes * self.budget_share)
        self.manager.reconfigure(memory_budget_mb=self.budget / 2**20)
        Compactor(self.manager).run_once()

    def close(self) -> None:
        self.index = self.manager = None
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def trace(self, seconds: float) -> dict[str, float]:
        out = super().trace(seconds)
        peak = out["tiering.resident_mb_peak"] * 2**20
        out["tiering.within_budget"] = float(peak <= self.budget)
        user_bytes = len(self.data.vectors) * DIM * 4
        out["disk.bytes_per_user_byte"] = tree_bytes(self.dir) / user_bytes
        return out


# ----------------------------------------------------------------- serve


class ServeWorkload(Workload):
    """``IndexService`` under concurrent ingest: one generator, one ingester.

    Phase A is a closed loop with ``OUTSTANDING`` futures in flight; phases B
    and C (traced run only) are open loops at ``R_LOW`` and ``R_REF`` with
    Poisson arrivals drawn from the seed, timed from the instant each query
    was *due*.  The
    ingest thread appends row ``i`` at ``i / INGEST_RATE`` seconds, so the
    same blocks seal, and build in the background, at the same points of
    every run.  Queries pick one of six named windows, recomputed once per
    second from the *scheduled* row count, so equal keys meet in the
    admission queue and micro-batches can form.
    """

    name = "serve-mixed"
    generator_threads = 2
    menu = ("last-1%", "last-5%", "last-25%", "all", "mid-5%", "mid-50%")

    def __init__(self, seed: int, profile: Profile, ingest_seconds: float) -> None:
        super().__init__(seed, profile)
        # A tenth over: a phase ends when its last answer is in, not on the clock.
        self.rows = profile.serve_preload + int(INGEST_RATE * (1.1 * ingest_seconds + 1)) + 1
        self.dir: Path | None = None
        self.service: IndexService | None = None
        self.acked = 0
        self.ingest_latencies: list[float] = []
        self.late: list[float] = []
        self.issued = 0
        self._counts_before: dict = {}

    # -------------------------------------------------------------- set-up

    def _config(self) -> ServiceConfig:
        return ServiceConfig(fsync="interval")

    def setup(self) -> None:
        self.close()
        self._load(self.rows)
        rng = np.random.default_rng([self.seed, 2])
        self.q_of = rng.integers(0, len(self.data.queries), STREAM).tolist()
        self.w_of = rng.integers(0, len(self.menu), STREAM).tolist()
        self.arrivals = rng.exponential(1.0, STREAM)
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK))
        self.service = IndexService.open(
            self.dir, dim=DIM, metric="euclidean",
            mbi_config=MBIConfig(leaf_size=LEAF_SIZE), config=self._config(),
        )
        preload = self.profile.serve_preload
        self.service.ingest_batch(
            self.data.vectors[:preload], self.data.timestamps[:preload]
        )
        self.service.wait_builds()
        self.service.checkpoint()
        self.acked = preload
        self._menus: dict[int, list[tuple[float, float]]] = {}
        for i in range(self.profile.warmup):
            t0, t1 = self._window(i, preload)
            self.service.query(self.data.queries[self.q_of[i]], K, t0, t1)
        self.issued = self.profile.warmup

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def _window(self, i: int, count: int) -> tuple[float, float]:
        """Window of query ``i`` when ``count`` rows are scheduled to exist."""
        windows = self._menus.get(count)
        if windows is None:
            ts, inf = self.data.timestamps, math.inf
            mid = count // 2
            windows = self._menus[count] = [
                (float(ts[count - count // 100]), inf),
                (float(ts[count - count // 20]), inf),
                (float(ts[count - count // 4]), inf),
                (-inf, inf),
                (float(ts[mid - count // 40]), float(ts[mid + count // 40])),
                (float(ts[count // 4]), float(ts[3 * count // 4])),
            ]
        return windows[self.w_of[i % STREAM]]

    # ------------------------------------------------------------- driving

    def _ingest(self, stop: threading.Event, started: float, base: int) -> None:
        """Append row ``base + i`` at ``started + i / INGEST_RATE``."""
        clock = time.perf_counter
        vectors, stamps = self.data.vectors, self.data.timestamps
        i = 0
        while base + i < len(vectors) and not stop.is_set():
            delay = started + i / INGEST_RATE - clock()
            if delay > 0 and stop.wait(delay):
                break
            begun = clock()
            try:
                self.service.ingest(vectors[base + i], float(stamps[base + i]))
            except ReproError as error:
                self._tally(1, 1, f"ingest {base + i} failed: {error!r}")
                break
            self._tally(1)
            self.ingest_latencies.append(clock() - begun)
            i += 1
            self.acked = base + i

    def _issue(self, records: list, ref: float, count: int, then=None):
        """Submit query ``self.issued``; its record lands in ``records``.

        A record is ``(i, ref, finished, answer)``: ``ref`` is the instant
        latency is measured from; ``answer`` (kept samples only) is
        ``(result, window, visible)`` where ``visible`` brackets the rows the
        answer may have seen.  ``then`` runs after the record is written.
        Returns ``None`` when refused.
        """
        with self._lock:  # callers issue from the worker thread too
            i = self.issued
            self.issued += 1
            self.attempted += 1
        service = self.service
        t0, t1 = self._window(i, count)
        keep = i % SAMPLE_EVERY == 0
        lo = service.applied_records if keep else 0
        try:
            future = service.submit(self.data.queries[self.q_of[i % STREAM]], K, t0, t1)
        except ReproError as error:  # refused: counts, never silently dropped
            self._tally(failed=1, note=f"query {i} refused: {error!r}")
            return None

        def finished(_future) -> None:
            done = time.perf_counter()
            error = _future.exception()
            if error is not None:
                self._tally(failed=1, note=f"query {i} failed: {error!r}")
            # Only kept answers stay in memory.  +1: a row is searchable an
            # instant before it is counted applied.
            answer = (
                (_future.result(), (t0, t1), (lo, service.applied_records + 1))
                if keep and error is None else None
            )
            records.append((i, ref, done, answer))
            if then is not None:
                then()

        future.add_done_callback(finished)
        return future

    def _scheduled(self, started: float, base: int) -> int:
        """Rows scheduled to exist now, in whole seconds of ingest."""
        seconds = int(time.perf_counter() - started)
        return min(base + int(INGEST_RATE * seconds), len(self.data.vectors) - 1)

    def _closed(self, seconds: float, started: float, base: int) -> list:
        """``OUTSTANDING`` callers, each sending its next query on its reply.

        The next query goes out from the completion callback, on the
        service's worker thread: a caller thread woken per reply would
        measure interpreter-lock handoffs between generator and worker,
        which on two cores settle into a fast or a slow rhythm at random.
        """
        records: list = []
        retired = threading.Semaphore(0)
        end = time.perf_counter() + seconds

        def caller() -> None:
            now = time.perf_counter()
            if now >= end or self._issue(
                records, now, self._scheduled(started, base), then=caller
            ) is None:
                retired.release()

        for _ in range(OUTSTANDING):
            caller()
        for _ in range(OUTSTANDING):  # every answer is in before the phase ends
            if not retired.acquire(timeout=seconds + 30.0):
                self._tally(failed=1, note="closed loop: an answer never came back")
        return records

    def _open(self, seconds: float, rate: float, started: float, base: int) -> list:
        """Poisson arrivals at ``rate``; ``self.late`` keeps this phase's lateness."""
        records: list = []
        futures = []
        self.late = []
        clock = time.perf_counter
        due = clock()
        end = due + seconds
        while True:
            due += self.arrivals[self.issued % STREAM] / rate
            if due >= end:
                break
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            self.late.append(max(0.0, clock() - due))
            future = self._issue(records, due, self._scheduled(started, base))
            if future is not None:
                futures.append(future)
        pending = wait(futures, timeout=30.0).not_done
        if pending:
            self._tally(
                failed=len(pending), note=f"open loop: {len(pending)} answers timed out"
            )
        return records

    def _samples(self, records: list) -> list[Sample]:
        out = []
        for i, _ref, _done, answer in records:
            if answer is not None:
                result, (t0, t1), (lo, hi) = answer
                out.append(
                    Sample(
                        self.data.queries[self.q_of[i % STREAM]], t0, t1,
                        result.positions, result.distances,
                        exact=result.stats.graph_blocks == 0,
                        prefix=(lo, min(hi, len(self.data.vectors))),
                    )
                )
        return out

    def _run(
        self, plan: list[tuple[str, float, float]], tracer: Tracer | None, between=None
    ) -> dict[str, tuple[list, float, float]]:
        """Run ``plan`` = ``[(phase, seconds, rate)]`` beside the ingester.

        ``rate`` 0 means closed loop.  A phase named ``plain`` runs before
        the tracer is installed (the traced run's untraced reference).
        ``between`` runs before, between and after the phases, with no query
        in flight.  Returns per phase its records and when it began and ended.
        """
        stop = threading.Event()
        started = time.perf_counter()
        base = self.acked
        ingester = threading.Thread(
            target=self._ingest, args=(stop, started, base), name="bench-ingest"
        )
        ingester.start()
        phases: dict[str, tuple[list, float, float]] = {}
        installed = False
        try:
            if between is not None:
                between()
            for phase, seconds, rate in plan:
                if tracer is not None:
                    tracer.phase = phase
                    if phase != "plain" and not installed:
                        tracer.install()
                        installed = True
                        # Counts and spans must cover the same queries.
                        self._counts_before = get_registry().snapshot()
                begun = time.perf_counter()
                if rate:
                    records = self._open(seconds, rate, started, base)
                else:
                    records = self._closed(seconds, started, base)
                phases[phase] = (records, begun, time.perf_counter())
                if between is not None:
                    between()
        finally:
            stop.set()
            ingester.join()
            if tracer is not None:
                tracer.uninstall()
        return phases

    def measure(self, seconds: float) -> dict[str, dict]:
        """Tracing off: the closed loop alone, ``SEGMENTS`` times over.

        Each segment is its own closed loop (the callers drain at its end:
        sixteen answers in some thousands), so the host's speed can be
        sampled between them.  The open loops run in :meth:`trace` only.
        Timed from the due instant, one host stall backs up every later
        arrival; on the reference VM that put a 4x spread on their p95
        between two runs of one seed, so they inform (per-layer, no bound)
        but do not gate.
        """
        plan = [(f"A{i}", seconds / SEGMENTS, 0.0) for i in range(SEGMENTS)]
        phases = self._run(plan, None, between=self.speed.sample).values()
        records = [record for phase, _, _ in phases for record in phase]
        recall = self._check(self._samples(records))
        # Latency is from submission, with OUTSTANDING callers in flight.
        out = timing_metrics(
            [np.asarray([done - ref for _, ref, done, _ in phase]) for phase, _, _ in phases],
            [ended - begun for _, begun, ended in phases],
            self.good_share(), self.speed.paired(),
        )
        kept = sum(1 for record in records if record[3])
        out["recall_at_10"] = metric(recall, "fraction", samples=kept)
        return out

    def trace(self, seconds: float) -> dict[str, float]:
        # At 20 s the untraced slice ends before the 2000th row arrives (+3 s)
        # and sets off the largest build chain of the run: phase A must see it.
        plan = [("plain", 0.10 * seconds, 0.0), ("A", 0.30 * seconds, 0.0),
                ("B", 0.25 * seconds, R_LOW), ("C", 0.35 * seconds, R_REF)]
        tracer = self.tracer = Tracer()
        wall = time.perf_counter()
        phases = self._run(plan, tracer)
        wall = time.perf_counter() - wall - plan[0][1]
        moved = registry_delta(self._counts_before, get_registry().snapshot())
        self._check(
            [s for records, _, _ in phases.values() for s in self._samples(records)]
        )

        def rate(phase: str, seconds: float) -> float:
            return len(phases[phase][0]) / seconds

        layers = tracer.layers()
        issued = sum(len(phases[phase][0]) for phase in "ABC")
        out = layer_values(
            layers, moved, issued, rate("A", plan[1][1]), rate("plain", plan[0][1])
        )
        index = self.service.index
        out["graph.build_s"] = index.total_build_seconds
        out["graph.build_dist_evals"] = index.total_distance_evaluations
        waits = np.asarray([w for _, w, _ in tracer.admission]) * 1e3
        batches_a = sum(1.0 / size for phase, _, size in tracer.admission if phase == "A")
        requests_a = sum(1 for phase, _, _ in tracer.admission if phase == "A")
        appends = layers.get("wal.append", {"spans": 0, "seconds": 0.0})
        builds = layers.get("build.build_blocks", {"seconds": 0.0})
        low = np.asarray([done - ref for _, ref, done, _ in phases["B"][0]]) * 1e3
        ref = np.asarray([done - ref for _, ref, done, _ in phases["C"][0]]) * 1e3
        c_records, c_begun, _ = phases["C"]
        c_end = c_begun + plan[3][1]
        out.update({
            "admission.wait_ms_p50": float(np.percentile(waits, 50)),
            "admission.wait_ms_p99": float(np.percentile(waits, 99)),
            "admission.batch_size_mean": requests_a / batches_a,
            "admission.rejected": moved.get("service_rejected_total", 0.0),
            "wal.append_us": appends["seconds"] * 1e6 / max(1, appends["spans"]),
            "wal.fsyncs": moved.get("service_wal_fsyncs_total", 0.0),
            "wal.bytes_per_row": moved.get("service_wal_bytes_total", 0.0)
            / max(1.0, moved.get("service_wal_appends_total", 0.0)),
            "build.busy_frac": builds["seconds"] / wall,
            "build.blocks_built": moved.get("mbi_build_blocks_total", 0.0),
            "query_p95_ms": float(np.percentile(ref, 95)),
            "query_p99_ms": float(np.percentile(ref, 99)),
            "serve.p50_ms_at_r_ref": float(np.percentile(ref, 50)),
            "serve.p99_ms_at_r_low": float(np.percentile(low, 99)),
            "serve.achieved_over_offered": sum(
                1 for r in c_records if r[2] <= c_end
            ) / (R_REF * plan[3][1]),
            "serve.ingest_p99_ms": float(np.percentile(self.ingest_latencies, 99)) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "gen.late_p99_ms": float(np.percentile(self.late, 99)) * 1e3,
        })
        return out

    def finish(self) -> dict[str, float]:
        """Crash, reopen, and read back every acknowledged row."""
        service, acked = self.service, self.acked
        service.wait_builds()
        user_bytes = acked * DIM * 4
        disk = tree_bytes(self.dir) / user_bytes
        service.abort()
        # The first query scans the newest 50 rows: short enough to be
        # answered exactly, so "correct" means "the oracle's answer".
        query = self.data.queries[0]
        stamps = self.data.timestamps
        t_start = float(stamps[acked - 50])
        t_end = float(stamps[acked]) if acked < len(stamps) else math.inf
        truth = self.oracle.search(query, K, t_start, t_end)
        begun = time.perf_counter()
        self.service = service = IndexService.open(self.dir, config=self._config())
        answer = service.search(query, K, t_start)
        recovery = time.perf_counter() - begun
        store = service.index.store
        readable = (
            service.applied_records >= acked
            and np.array_equal(store.vectors[:acked], self.data.vectors[:acked])
            and np.array_equal(store.timestamps[:acked], stamps[:acked])
        )
        # Recovery is one operation; if it lost rows, every acknowledged row
        # is a failed one.
        if not readable:
            self._tally(
                acked, acked, f"recovery lost rows: {service.applied_records} of {acked}"
            )
        elif not np.array_equal(answer.positions, truth.positions):
            self._tally(1, 1, "first answer after recovery is not the oracle's")
        else:
            self._tally(1)
        return {"serve.recovery_s": recovery, "disk.bytes_per_user_byte": disk}


WORKLOADS = {  # name -> why it exists; BENCHMARK.json carries the same lines
    "lib-narrow": (
        "windows of 20 and 40 rows, under the 64-row scan threshold: resolve, "
        "selection and the exact scan carry the query and graph search never "
        "runs, so a graph-only change must not move it"
    ),
    "lib-wide": (
        "long windows over the same data: multi-block graph search and merge "
        "carry the query; the scan does little"
    ),
    "tiered-backfill": (
        "block memory budget an eighth of all-hot, so the working set does not "
        "fit: promotion, eviction and PQ code scans run, which lib-* never touch"
    ),
    "serve-mixed": (
        "IndexService with ingest beside queries: admission queue, WAL, locks and "
        "background builds contend, and tails appear"
    ),
}


def make(name: str, seed: int, profile: Profile, ingest_seconds: float) -> Workload:
    if name == "lib-narrow":
        return LibraryWorkload(name, LIB_NARROW, seed, profile)
    if name == "lib-wide":
        return LibraryWorkload(name, LIB_WIDE, seed, profile)
    if name == "tiered-backfill":
        return TieredWorkload(seed, profile)
    if name == "serve-mixed":
        return ServeWorkload(seed, profile, ingest_seconds)
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
