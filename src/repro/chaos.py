"""Seeded chaos schedules: crash-consistency and differential-oracle runs.

This module turns one integer seed into a complete, reproducible test
scenario, in two families:

**Crash consistency** (:func:`run_crash_scenario`).  A seed picks an
ingest length, a durability configuration, a fault family (torn WAL
append, fsync error, a fault in the durable-but-unapplied window, a crash
between snapshot temp-write and rename, a torn snapshot archive, dropped
fsyncs, pure preemption chaos, or — under a pathological memory budget —
torn/failed cold-tier demotions, failing cold-file reads on promotion,
and failing compaction renames) and a deterministic fire schedule for
the :mod:`repro.faultinject` points that express it.  The scenario ingests
until the fault fires, *crashes* the service
(:meth:`~repro.service.IndexService.abort` — no drain, no fsync), recovers
from disk, and asserts the recovered index answers a fixed query set
**bit-identically** to a never-crashed reference index built over exactly
the recovered prefix, then keeps accepting writes.  Every violation
message carries the seed, so any failure reproduces from its printed seed
alone: ``repro chaos --crash-seed <seed>``.

**Differential oracle** (:func:`run_differential_scenario`).  A seed
drives a randomized interleaving of inserts (via
:meth:`~repro.core.mbi.MultiLevelBlockIndex.insert_deferred`, with block
builds deferred and replayed at seeded points, so queries see mixed
built/unbuilt trees) and TkNN queries with random windows (bounded,
half-bounded, empty, degenerate), ``k`` and ``epsilon``.  Each query runs
through four configurations and every pair is checked against the
strongest invariant it promises (the methodology of Engels et al.,
"ANN Search with Window Filters", arXiv 2402.00943):

* MBI-exact (brute-force threshold ∞) vs the exact oracle — same answer
  set up to distance ties;
* beam engine (``beam_width`` wide), legacy-greedy-order engine
  (``beam_width=1``) and the tiered ADC-first cold-tier index vs the
  oracle — well-formed (sorted, deduplicated,
  in-window, correct distances), never better than the oracle at any
  rank, and aggregate recall above a floor;
* ``k1 < k2`` on the exact configuration — prefix-consistent;
* a shrunken window on the exact configuration — never *adds* a neighbor
  that the wider window ranked into its top-``k``.

Both runners are deliberately import-light and deterministic: same seed ⇒
same vectors, same faults, same assertions.  ``repro chaos`` sweeps them
from the command line and the harness tests under ``tests/`` pin dozens of
seeds in CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .baselines.exact import exact_tknn
from .core.config import MBIConfig, SearchParams
from .core.mbi import MultiLevelBlockIndex
from .core.results import QueryResult
from .distances.metrics import resolve_metric
from .exceptions import ReproError
from .faultinject import Action, get_failpoints
from .graph.builder import GraphConfig
from .service import IndexService, ServiceConfig
from .storage.vector_store import VectorStore

DIM = 6
LEAF_SIZE = 8
_K = 5
_QUERIES = 6


class ChaosInvariantError(ReproError):
    """A chaos scenario violated a correctness invariant.

    The message always embeds the seed, so the failure reproduces from the
    printed line alone.
    """


#: Crash-scenario fault families (all seed-selectable).
CRASH_KINDS = (
    "torn_append",
    "fsync_error",
    "apply_fault",
    "snapshot_rename",
    "snapshot_torn",
    "fsync_drop",
    "preemption",
    "tier_demote",
    "tier_promote",
    "tier_compact",
    "cold_codes",
)

#: Families whose faults are absorbed inside the service (never surface as
#: an ingest error): the dropped fsync is silent, preemption only yields,
#: and every tier fault falls back to staying hot / rebuilding / keeping
#: the old idx file (a torn code sidecar falls back to promote-on-miss) —
#: so ``fault`` legitimately stays ``None``.
_ABSORBED_KINDS = (
    "fsync_drop",
    "preemption",
    "tier_demote",
    "tier_promote",
    "tier_compact",
    "cold_codes",
)


@dataclass(frozen=True)
class CrashScenario:
    """One deterministic crash schedule (derived entirely from ``seed``)."""

    seed: int
    kind: str
    n_ops: int
    fsync: str
    snapshot_every: int
    failpoints: dict[str, Action] = field(default_factory=dict)
    #: Hot-tier budget for the ``tier_*`` families (``None`` = untiered).
    #: Deliberately pathological — everything demotes — so the scenario
    #: exercises demotion, promotion, rebuild, and compaction constantly.
    memory_budget_mb: float | None = None
    #: Whether the scenario runs with compressed cold-tier search on
    #: (the ``cold_codes`` family): demotions try to write code sidecars
    #: with ``tier.code_write`` faults armed throughout, so every
    #: sidecar is torn or missing and queries must fall back to
    #: promote-on-miss — bit-identically to the untiered reference.
    cold_codes: bool = False

    def describe(self) -> str:
        """One-line human summary."""
        points = ", ".join(
            f"{name}={action.spec()}"
            for name, action in sorted(self.failpoints.items())
        )
        return (
            f"seed={self.seed} kind={self.kind} ops={self.n_ops} "
            f"fsync={self.fsync} snapshot_every={self.snapshot_every} "
            f"[{points or 'no failpoints'}]"
        )


@dataclass(frozen=True)
class CrashReport:
    """Outcome of one crash-consistency scenario (only produced on success)."""

    scenario: CrashScenario
    acked: int
    recovered: int
    fault: str | None
    queries_checked: int


def stream_vector(seed: int, i: int, dim: int = DIM) -> np.ndarray:
    """The ``i``-th vector of scenario ``seed``'s ingest stream.

    Derived from ``(seed, i)`` alone so the crashed service, the recovered
    service, and the never-crashed reference all agree on the stream
    without sharing state.
    """
    return (
        np.random.default_rng([seed, i]).standard_normal(dim).astype(
            np.float32
        )
    )


def chaos_mbi_config(leaf_size: int = LEAF_SIZE) -> MBIConfig:
    """The small, exact-builder MBI config every chaos scenario uses."""
    return MBIConfig(
        leaf_size=leaf_size,
        tau=0.5,
        graph=GraphConfig(n_neighbors=4, exact_threshold=100_000),
        search=SearchParams(epsilon=1.2, max_candidates=64),
    )


def make_crash_scenario(seed: int) -> CrashScenario:
    """Derive the full crash schedule for ``seed`` (pure function)."""
    rng = np.random.default_rng([0xC4A5, seed])
    kind = CRASH_KINDS[int(rng.integers(0, len(CRASH_KINDS)))]
    n_ops = int(rng.integers(24, 64))
    crash_at = int(rng.integers(3, n_ops - 1))
    record_bytes = 8 + 8 + DIM * 4  # crc/len prefix + timestamp + float32[DIM]
    fsync = "always"
    snapshot_every = 0
    memory_budget_mb: float | None = None
    cold_codes = False
    points: dict[str, Action] = {}
    if kind == "torn_append":
        cut = int(rng.integers(1, record_bytes))
        points["wal.append"] = Action("truncate", cut, skip=crash_at)
    elif kind == "fsync_error":
        points["wal.fsync"] = Action("raise", "io", skip=crash_at)
    elif kind == "apply_fault":
        points["service.ingest_apply"] = Action(
            "raise", "runtime", skip=crash_at
        )
    elif kind in ("snapshot_rename", "snapshot_torn"):
        snapshot_every = int(rng.integers(8, 17))
        # Fail the first or second checkpoint; with n_ops >= 24 and
        # snapshot_every <= 16 the chosen one always happens.
        skip = int(rng.integers(0, 2)) if n_ops > 2 * snapshot_every else 0
        if kind == "snapshot_rename":
            points["snapshot.rename"] = Action("raise", "io", skip=skip)
        else:
            cut = int(rng.integers(16, 4000))
            points["snapshot.write"] = Action("truncate", cut, skip=skip)
    elif kind == "fsync_drop":
        # Silently skip every fsync; the crash is the end of the op loop.
        points["wal.fsync"] = Action("drop", times=-1)
        snapshot_every = int(rng.choice([0, 10]))
    elif kind == "preemption":
        points["lock.acquire_write"] = Action("yield", 0.0, times=-1)
        points["lock.acquire_read"] = Action("yield", 0.0, times=-1)
        fsync = str(rng.choice(["always", "interval"]))
        snapshot_every = int(rng.choice([0, 12]))
    elif kind in ("tier_demote", "tier_promote", "tier_compact"):
        # A budget no block fits: every built block demotes, every query
        # over an old window promotes (or rebuilds), and each checkpoint
        # sweeps + compacts the cold tier — with the family's failpoint
        # firing throughout.  All three faults are absorbed inside the
        # tier (stay hot / rebuild / keep the old idx), so ingest never
        # errors; the crash is the end of the op loop, as in fsync_drop.
        memory_budget_mb = 0.001
        snapshot_every = int(rng.integers(8, 17))
        if kind == "tier_demote":
            if rng.random() < 0.5:
                points["tier.demote_write"] = Action("raise", "io", times=-1)
            else:
                # Tear the *committed* idx file a few times: the torn
                # block must rebuild deterministically on promotion.
                cut = int(rng.integers(8, 512))
                points["tier.demote_write"] = Action(
                    "truncate", cut, times=int(rng.integers(1, 4))
                )
        elif kind == "tier_promote":
            points["tier.promote_read"] = Action("raise", "io", times=-1)
        else:
            points["tier.compact_rename"] = Action("raise", "io", times=-1)
    elif kind == "cold_codes":
        # Compressed cold-tier search under a sidecar-hostile disk: the
        # same pathological budget as the tier families, cold_codes on,
        # and *every* code-sidecar write faulted — half the seeds abort
        # the write cleanly (block demotes without codes), half tear the
        # committed sidecar (first read fails, block promotes instead).
        # Either way no sidecar ever serves, so answers must stay
        # bit-identical to the untiered, never-crashed reference.
        memory_budget_mb = 0.001
        cold_codes = True
        snapshot_every = int(rng.integers(8, 17))
        if rng.random() < 0.5:
            points["tier.code_write"] = Action("raise", "io", times=-1)
        else:
            cut = int(rng.integers(8, 512))
            points["tier.code_write"] = Action("truncate", cut, times=-1)
    return CrashScenario(
        seed=seed,
        kind=kind,
        n_ops=n_ops,
        fsync=fsync,
        snapshot_every=snapshot_every,
        failpoints=points,
        memory_budget_mb=memory_budget_mb,
        cold_codes=cold_codes,
    )


def _reference_index(seed: int, n: int, config: MBIConfig) -> MultiLevelBlockIndex:
    index = MultiLevelBlockIndex(DIM, "euclidean", config)
    for i in range(n):
        index.insert(stream_vector(seed, i), float(i))
    return index


def _check(condition: bool, seed: int, message: str) -> None:
    if not condition:
        raise ChaosInvariantError(
            f"chaos seed {seed}: {message} "
            f"(reproduce with: repro chaos --crash-seed {seed})"
        )


def run_crash_scenario(
    seed: int, data_dir: str | Path
) -> CrashReport:
    """Execute the crash-consistency check for ``seed``.

    Raises:
        ChaosInvariantError: On any violated invariant; the message embeds
            the seed.
    """
    scenario = make_crash_scenario(seed)
    config = chaos_mbi_config()
    if scenario.memory_budget_mb is not None:
        # Drop the brute-force threshold so searches actually walk block
        # graphs (and therefore promote/rebuild cold blocks) at chaos
        # scale; the reference index uses the same config, so the
        # bit-identity invariant is unchanged.
        config = replace(
            config, search=replace(config.search, brute_force_threshold=4)
        )
    if scenario.cold_codes:
        # The reference index shares this config but never enables
        # tiering, so the flag is inert there — the ADC path only exists
        # behind a tier manager.
        config = replace(
            config,
            cold_codes=True,
            search=replace(config.search, cold_adc_threshold=4),
        )
    data_dir = Path(data_dir)
    service = IndexService.open(
        data_dir,
        dim=DIM,
        mbi_config=config,
        config=ServiceConfig(
            fsync=scenario.fsync,
            snapshot_every=scenario.snapshot_every,
            memory_budget_mb=scenario.memory_budget_mb,
        ),
    )
    failpoints = get_failpoints()
    acked = 0
    fault: str | None = None
    # The crash happens inside the scope: a background build that abort()
    # waits for writes under the same faults as the rest of the run.
    with failpoints.scope(scenario.failpoints):
        try:
            for i in range(scenario.n_ops):
                try:
                    service.ingest(stream_vector(seed, i), float(i))
                except Exception as error:  # noqa: BLE001 - injected fault
                    fault = f"{type(error).__name__}: {error}"
                    break
                acked += 1
                if (
                    scenario.kind == "preemption"
                    or scenario.memory_budget_mb is not None
                ) and i % 7 == 3:
                    # Interleave reads: through the yielded lock path
                    # (preemption) or the promote/rebuild path (tiered).
                    service.search(
                        stream_vector(seed + 1, i),
                        min(_K, acked),
                        rng=np.random.default_rng(i),
                    )
        finally:
            service.abort()

    if scenario.failpoints and scenario.kind not in _ABSORBED_KINDS:
        _check(fault is not None, seed, "the scheduled fault never fired")

    # The cold_codes family keeps the hostile disk through recovery:
    # sidecar writes still fail, so recovery-time demotions cannot mint a
    # servable sidecar — every query must take the exact promote-on-miss
    # fallback, which is what the bit-identity check below verifies.
    recovery_points = (
        {"tier.code_write": Action("raise", "io", times=-1)}
        if scenario.cold_codes
        else {}
    )
    with failpoints.scope(recovery_points):
        recovered = IndexService.open(
            data_dir,
            dim=DIM,
            mbi_config=config,
            config=ServiceConfig(
                fsync="never", memory_budget_mb=scenario.memory_budget_mb
            ),
        )
        try:
            n = recovered.applied_records
            expected = _expected_recovered(scenario, acked, fault)
            _check(
                n in expected,
                seed,
                f"recovered {n} records, expected one of {sorted(expected)} "
                f"(acked={acked}, kind={scenario.kind}, fault={fault})",
            )
            # The crown invariant: answers over the recovered prefix are
            # bit-identical to a never-crashed reference.
            reference = _reference_index(seed, n, config)
            queries = np.random.default_rng([0x51EE, seed]).standard_normal(
                (_QUERIES, DIM)
            )
            k = max(1, min(_K, n))
            for qi, query in enumerate(queries):
                got = recovered.search(
                    query, k, rng=np.random.default_rng(qi)
                )
                want = reference.search(
                    query, k, rng=np.random.default_rng(qi)
                )
                _check(
                    np.array_equal(got.positions, want.positions)
                    and np.array_equal(got.distances, want.distances),
                    seed,
                    f"query {qi}: recovered answers diverge from the "
                    f"never-crashed reference over {n} records",
                )
            # And the service keeps accepting writes where it left off.
            recovered.ingest(stream_vector(seed, n), float(n))
            _check(
                recovered.applied_records == n + 1,
                seed,
                "recovered service did not resume ingesting",
            )
        finally:
            recovered.close()
    return CrashReport(
        scenario=scenario,
        acked=acked,
        recovered=n,
        fault=fault,
        queries_checked=_QUERIES,
    )


def _expected_recovered(
    scenario: CrashScenario, acked: int, fault: str | None
) -> set[int]:
    """Durable record counts each fault family legitimately allows.

    ``abort()`` flushes user-space buffers (the OS page cache survives a
    process crash), so every *fully written* record is recoverable; the
    variation between families is whether the faulting op's record was
    fully written before its ingest raised.
    """
    if fault is None:
        return {acked}
    if scenario.kind == "torn_append":
        return {acked}  # the torn record must be discarded
    if scenario.kind in ("fsync_error", "apply_fault"):
        return {acked, acked + 1}  # record fully written, ack lost
    if scenario.kind in ("snapshot_rename", "snapshot_torn"):
        return {acked, acked + 1}  # checkpoint failed after the append
    return {acked}


# --------------------------------------------------------------------------
# Differential oracle
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one differential-oracle scenario (success only)."""

    seed: int
    steps: int
    inserts: int
    queries_checked: int
    beam_recall: float
    greedy_recall: float
    #: Aggregate recall of the cold_codes (ADC + exact rerank) engine,
    #: measured on a fully-demoted tiered twin of the same workload.
    adc_recall: float = 1.0


def _assert_well_formed(
    result: QueryResult,
    oracle: QueryResult,
    store: VectorStore,
    query: np.ndarray,
    window: tuple[float, float],
    seed: int,
    label: str,
) -> int:
    """Oracle-style structural checks on an approximate result.

    Returns the overlap with the oracle's answer set (recall numerator).
    """
    t0, t1 = window
    positions = np.asarray(result.positions)
    distances = np.asarray(result.distances)
    _check(
        len(positions) == len(set(int(p) for p in positions)),
        seed,
        f"{label}: duplicate positions in result",
    )
    # Graph search under a tight window filter may return fewer than the
    # oracle (capped candidate sets can drop in-window nodes) but never
    # more.
    _check(
        len(positions) <= len(oracle.positions),
        seed,
        f"{label}: returned {len(positions)} neighbors, oracle found "
        f"only {len(oracle.positions)}",
    )
    timestamps = store.timestamps[positions] if len(positions) else []
    _check(
        all(t0 <= float(t) < t1 for t in timestamps),
        seed,
        f"{label}: returned a neighbor outside the window [{t0}, {t1})",
    )
    # Reported distances must be the true distances of the returned
    # positions, sorted ascending with the (distance, position) tie rule.
    metric = resolve_metric("euclidean")
    if len(positions):
        true = np.array(
            [
                metric(
                    query.astype(np.float64),
                    store.vectors[int(p)].astype(np.float64),
                )
                for p in positions
            ]
        )
        _check(
            bool(np.allclose(distances, true, rtol=1e-5, atol=1e-6)),
            seed,
            f"{label}: reported distances disagree with recomputation",
        )
        pairs = list(zip(distances.tolist(), positions.tolist()))
        _check(
            pairs == sorted(pairs),
            seed,
            f"{label}: results not sorted by (distance, position)",
        )
        # Dominance: an approximate engine is never better than the oracle
        # at any rank it does fill.
        _check(
            bool(
                np.all(
                    distances
                    >= np.asarray(oracle.distances)[: len(distances)] - 1e-7
                )
            ),
            seed,
            f"{label}: a reported distance beats the exact oracle",
        )
    return len(set(map(int, positions)) & set(map(int, oracle.positions)))


def _equivalent_up_to_ties(a: QueryResult, b: QueryResult) -> bool:
    """Whether two *exact* answers agree, tolerating distance ties.

    Positions must match wherever the distance is unique; tied ranks may
    permute between implementations that round differently.
    """
    if len(a.positions) != len(b.positions):
        return False
    if not np.allclose(a.distances, b.distances, rtol=1e-6, atol=1e-7):
        return False
    for i, (pa, pb) in enumerate(zip(a.positions, b.positions)):
        if int(pa) == int(pb):
            continue
        da = float(a.distances[i])
        tied_a = {
            int(p)
            for p, d in zip(a.positions, a.distances)
            if abs(float(d) - da) <= 1e-7 + 1e-6 * da
        }
        if int(pb) not in tied_a:
            return False
    return True


def run_differential_scenario(
    seed: int, *, steps: int = 48, recall_floor: float = 0.8
) -> DifferentialReport:
    """Replay one randomized workload through every engine pair.

    Raises:
        ChaosInvariantError: On any violated pair invariant; the message
            embeds the seed (reproduce with ``repro chaos --diff-seed``).
    """
    rng = np.random.default_rng([0xD1FF, seed])
    dim = int(rng.choice([4, 8, 12]))
    leaf = int(rng.choice([8, 16]))
    base = MBIConfig(
        leaf_size=leaf,
        tau=0.5,
        graph=GraphConfig(n_neighbors=6, exact_threshold=100_000),
        search=SearchParams(
            epsilon=1.3,
            max_candidates=64,
            beam_width=16,
            brute_force_threshold=0,
        ),
    )
    greedy_params = SearchParams(
        epsilon=1.3, max_candidates=64, beam_width=1, brute_force_threshold=0
    )
    exact_params = SearchParams(
        epsilon=1.3, max_candidates=64, brute_force_threshold=10**9
    )
    metric = resolve_metric("euclidean")

    store = VectorStore(dim)
    index_seq = MultiLevelBlockIndex(dim, "euclidean", base)
    # A tiered twin with compressed cold-tier search on: a pathological
    # budget demotes every built block immediately (each demotion writes
    # a code sidecar) and a zero ADC threshold answers every cold span
    # from codes — the harshest setting for the ADC + exact-rerank path.
    adc_config = replace(
        base,
        cold_codes=True,
        search=replace(
            base.search, cold_adc_threshold=0, cold_rerank_factor=3
        ),
    )
    index_adc = MultiLevelBlockIndex(dim, "euclidean", adc_config)
    index_adc.enable_tiering(memory_budget_mb=0.001)
    pending: list[list] = []  # deferred chains, one sub-list per index

    inserts = 0
    queries_checked = 0
    hits = {"beam": 0, "greedy": 0, "adc": 0}
    total = {"beam": 0, "greedy": 0, "adc": 0}
    next_ts = 0.0

    def _fail(message: str) -> None:
        raise ChaosInvariantError(
            f"differential seed {seed}: {message} "
            f"(reproduce with: repro chaos --diff-seed {seed})"
        )

    for step in range(steps):
        op = rng.random()
        if op < 0.45 or len(store) < leaf:
            batch = int(rng.integers(1, 5))
            for _ in range(batch):
                vector = rng.standard_normal(dim).astype(np.float32)
                # Occasional duplicate timestamps exercise half-open
                # boundary handling with ties.
                if rng.random() < 0.15 and len(store):
                    ts = float(store.latest_timestamp)
                else:
                    next_ts += float(rng.uniform(0.5, 2.0))
                    ts = next_ts
                store.append(vector, ts)
                _, chain_a = index_seq.insert_deferred(vector, ts)
                _, chain_c = index_adc.insert_deferred(vector, ts)
                if chain_a or chain_c:
                    pending.append([chain_a, chain_c])
                inserts += 1
            # Build deferred chains at seeded points only, so queries
            # regularly observe mixed built/unbuilt trees — but
            # identically mixed across the compared indexes.
            if pending and rng.random() < 0.5:
                chain_a, chain_c = pending.pop(0)
                index_seq.build_blocks(chain_a)
                index_adc.build_blocks(chain_c)
            continue

        # ---- query step -------------------------------------------
        t_lo = float(store.timestamps[0])
        t_hi = float(store.latest_timestamp)
        flavor = rng.random()
        if flavor < 0.15:
            window = (-math.inf, math.inf)
        elif flavor < 0.30:
            window = (float(rng.uniform(t_lo, t_hi)), math.inf)
        elif flavor < 0.40:
            pivot = float(rng.uniform(t_lo, t_hi))
            window = (pivot, pivot)  # empty half-open window
        else:
            a, b = sorted(rng.uniform(t_lo - 1, t_hi + 1, size=2))
            window = (float(a), float(b))
        k = int(rng.integers(1, 9))
        query = rng.standard_normal(dim)
        qseed = int(rng.integers(0, 2**31))

        oracle = exact_tknn(store, metric, query, k, *window)
        res_seq = index_seq.search(
            query, k, *window, rng=np.random.default_rng(qseed)
        )
        res_exact = index_seq.search(
            query,
            k,
            *window,
            params=exact_params,
            rng=np.random.default_rng(qseed),
        )
        if not _equivalent_up_to_ties(res_exact, oracle):
            _fail(
                f"step {step}: exact-config MBI disagrees with the "
                "exact oracle beyond distance ties"
            )
        hits["beam"] += _assert_well_formed(
            res_seq, oracle, store, query, window, seed,
            f"step {step} beam",
        )
        total["beam"] += len(oracle.positions)
        res_greedy = index_seq.search(
            query,
            k,
            *window,
            params=greedy_params,
            rng=np.random.default_rng(qseed),
        )
        hits["greedy"] += _assert_well_formed(
            res_greedy, oracle, store, query, window, seed,
            f"step {step} greedy",
        )
        total["greedy"] += len(oracle.positions)
        # Compressed cold-tier search: every cold block answers from
        # its code sidecar (ADC scan + exact rerank) — the answer
        # must be structurally sound and keep recall with the rest.
        res_adc = index_adc.search(
            query, k, *window, rng=np.random.default_rng(qseed)
        )
        hits["adc"] += _assert_well_formed(
            res_adc, oracle, store, query, window, seed,
            f"step {step} adc",
        )
        total["adc"] += len(oracle.positions)

        # k-prefix consistency on the exact configuration.
        if k > 1:
            smaller = index_seq.search(
                query,
                k - 1,
                *window,
                params=exact_params,
                rng=np.random.default_rng(qseed),
            )
            if not np.array_equal(
                smaller.positions, res_exact.positions[: len(smaller)]
            ):
                _fail(
                    f"step {step}: exact top-{k - 1} is not a prefix "
                    f"of exact top-{k}"
                )
        # Window-shrink metamorphic relation on the exact config.
        if (
            len(res_exact) == k
            and window[1] - window[0] > 0
            and math.isfinite(window[0])
            and math.isfinite(window[1])
        ):
            shrink = (
                window[0] + (window[1] - window[0]) * 0.25,
                window[1] - (window[1] - window[0]) * 0.25,
            )
            if shrink[0] < shrink[1]:
                inner = index_seq.search(
                    query,
                    k,
                    *shrink,
                    params=exact_params,
                    rng=np.random.default_rng(qseed),
                )
                survivors = {
                    int(p)
                    for p, t in zip(
                        res_exact.positions,
                        store.timestamps[
                            np.asarray(res_exact.positions, dtype=int)
                        ],
                    )
                    if shrink[0] <= float(t) < shrink[1]
                }
                if not survivors <= set(map(int, inner.positions)):
                    _fail(
                        f"step {step}: shrinking the window dropped a "
                        "neighbor that stayed in range"
                    )
        queries_checked += 1

    recalls = {}
    for engine in ("beam", "greedy", "adc"):
        recalls[engine] = (
            hits[engine] / total[engine] if total[engine] else 1.0
        )
        if recalls[engine] < recall_floor:
            _fail(
                f"{engine} aggregate recall {recalls[engine]:.3f} fell "
                f"below the floor {recall_floor}"
            )
    return DifferentialReport(
        seed=seed,
        steps=steps,
        inserts=inserts,
        queries_checked=queries_checked,
        beam_recall=recalls["beam"],
        greedy_recall=recalls["greedy"],
        adc_recall=recalls["adc"],
    )


# --------------------------------------------------------------------------
# Sharded serving chaos
# --------------------------------------------------------------------------


#: Shard-scenario fault families (all seed-selectable).
SHARD_KINDS = ("shard_kill", "shard_slow", "shard_flaky")


@dataclass(frozen=True)
class ShardScenario:
    """One deterministic sharded-serving fault schedule.

    Attributes:
        seed: The scenario seed (everything below derives from it).
        kind: ``"shard_kill"`` (crash one shard's service mid-stream,
            recover it, re-attach), ``"shard_slow"`` (a delayed scatter
            blows the router's timeout, degrading to a partial result),
            or ``"shard_flaky"`` (transient scatter faults absorbed by
            the retry budget).
        n_shards: Shards in the cluster under test.
        n_ops: Records ingested through the router before the fault.
        checkpoint_at: Record count after which every shard checkpoints
            (0 = never), so kill-recovery exercises snapshot + WAL replay.
        failpoints: The :mod:`repro.faultinject` schedule armed around
            the faulted queries (empty for ``shard_kill`` — the crash is
            a literal ``abort()``).
    """

    seed: int
    kind: str
    n_shards: int
    n_ops: int
    checkpoint_at: int = 0
    failpoints: dict[str, Action] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line human summary."""
        points = ", ".join(
            f"{name}={action.spec()}"
            for name, action in sorted(self.failpoints.items())
        )
        return (
            f"seed={self.seed} kind={self.kind} shards={self.n_shards} "
            f"ops={self.n_ops} checkpoint_at={self.checkpoint_at} "
            f"[{points or 'no failpoints'}]"
        )


@dataclass(frozen=True)
class ShardReport:
    """Outcome of one sharded-serving scenario (only produced on success)."""

    scenario: ShardScenario
    acked: int
    recovered: int
    failed_shards: tuple[int, ...]
    queries_checked: int


def make_shard_scenario(seed: int) -> ShardScenario:
    """Derive the full sharded-serving schedule for ``seed`` (pure)."""
    rng = np.random.default_rng([0x5A4D, seed])
    kind = SHARD_KINDS[int(rng.integers(0, len(SHARD_KINDS)))]
    n_shards = int(rng.integers(2, 4))
    n_ops = int(rng.integers(40, 81))
    checkpoint_at = 0
    points: dict[str, Action] = {}
    if kind == "shard_kill":
        if rng.random() < 0.5:
            checkpoint_at = int(rng.integers(n_ops // 4, n_ops // 2))
    elif kind == "shard_slow":
        # One scatter attempt sleeps far past the router's timeout.
        points["shard.scatter"] = Action("delay", 1.0, times=1)
    else:  # shard_flaky
        points["shard.scatter"] = Action(
            "raise", "runtime", times=int(rng.integers(1, 3))
        )
    return ShardScenario(
        seed=seed,
        kind=kind,
        n_shards=n_shards,
        n_ops=n_ops,
        checkpoint_at=checkpoint_at,
        failpoints=points,
    )


def _shard_router(
    base: Path,
    n_shards: int,
    config: MBIConfig,
    *,
    fsync: str = "always",
    router_config=None,
):
    """An in-process N-shard router rooted at ``base`` (chaos plumbing).

    Built from explicit transports (unlike :meth:`ShardRouter.open`) so
    the scenario can crash (``abort``) and recover individual shard
    services through the transports it holds.
    """
    from .core.shardmap import ShardPlan
    from .sharding import InProcessTransport, ShardRouter

    plan = ShardPlan.from_config(n_shards, config)
    transports = []
    for shard in range(n_shards):
        shard_dir = Path(base) / f"shard-{shard:03d}"

        def reopen(shard_dir: Path = shard_dir) -> IndexService:
            return IndexService.open(
                shard_dir,
                dim=DIM,
                mbi_config=config,
                config=ServiceConfig(fsync=fsync),
            )

        transports.append(InProcessTransport(shard, reopen(), reopen=reopen))
    return ShardRouter(transports, plan, config=router_config), transports


def _shard_queries(seed: int, n_ops: int):
    """The fixed query set every shard scenario checks: (query, window)."""
    rng = np.random.default_rng([0x5AD5, seed])
    hi = float(n_ops)
    windows = [
        (-math.inf, math.inf),
        (0.0, hi / 2),
        (hi / 3, 2 * hi / 3),
        (max(0.0, hi - 10.0), hi),
    ]
    return [
        (rng.standard_normal(DIM), windows[qi % len(windows)])
        for qi in range(_QUERIES)
    ]


def run_shard_scenario(seed: int, data_dir: str | Path) -> ShardReport:
    """Execute the sharded-serving chaos check for ``seed``.

    Every scenario ends with the same crown invariant: after the fault
    (and any recovery), the router's answers are **bit-identical** to
    both a never-faulted same-split reference router and a single-shard
    reference over the same stream.

    Raises:
        ChaosInvariantError: On any violated invariant; the message
            embeds the seed (reproduce with ``repro chaos --shard-seed``).
    """
    from .sharding import RouterConfig, ShardRouter

    scenario = make_shard_scenario(seed)
    config = chaos_mbi_config()
    data_dir = Path(data_dir)

    def _fail(message: str) -> None:
        raise ChaosInvariantError(
            f"shard seed {seed}: {message} "
            f"(reproduce with: repro chaos --shard-seed {seed})"
        )

    vectors = np.stack(
        [stream_vector(seed, i) for i in range(scenario.n_ops)]
    )
    timestamps = np.arange(scenario.n_ops, dtype=np.float64)
    router_config = RouterConfig(
        seed=seed,
        scatter_timeout=(
            0.25 if scenario.kind == "shard_slow" else None
        ),
        retries=(0 if scenario.kind == "shard_slow" else 2),
        allow_partial=(scenario.kind == "shard_slow"),
    )
    router, transports = _shard_router(
        data_dir / "cluster",
        scenario.n_shards,
        config,
        router_config=router_config,
    )
    if scenario.checkpoint_at:
        router.ingest_batch(
            vectors[: scenario.checkpoint_at],
            timestamps[: scenario.checkpoint_at],
        )
        router.checkpoint()
        router.ingest_batch(
            vectors[scenario.checkpoint_at :],
            timestamps[scenario.checkpoint_at :],
        )
    else:
        router.ingest_batch(vectors, timestamps)
    acked = router.total_records

    # Never-faulted references: the same split, and a single shard.
    reference, _ = _shard_router(
        data_dir / "reference", scenario.n_shards, config, fsync="never"
    )
    single, _ = _shard_router(data_dir / "single", 1, config, fsync="never")
    reference.ingest_batch(vectors, timestamps)
    single.ingest_batch(vectors, timestamps)

    failpoints = get_failpoints()
    queries = _shard_queries(seed, scenario.n_ops)
    failed_shards: tuple[int, ...] = ()
    try:
        if scenario.kind == "shard_kill":
            victim = int(
                np.random.default_rng([0x5AFE, seed]).integers(
                    0, scenario.n_shards
                )
            )
            failed_shards = (victim,)
            transports[victim].service.abort()  # crash: no drain, no fsync
            for shard, transport in enumerate(transports):
                if shard != victim:
                    transport.service.close()
                transport.reopen()
            router.detach()
            router = ShardRouter(
                transports, router.plan, config=router_config
            )
            reattached = router.total_records
            if reattached != acked:
                _fail(
                    f"re-attached router recovered {reattached} records, "
                    f"expected {acked} (fsync=always must lose nothing)"
                )
        elif scenario.kind == "shard_slow":
            query, window = queries[0]
            with failpoints.scope(scenario.failpoints):
                degraded = router.search(
                    query, _K, *window, seed=seed
                )
            if not degraded.partial or len(degraded.failed_shards) != 1:
                _fail(
                    "the delayed scatter did not degrade to a partial "
                    f"result (partial={degraded.partial}, "
                    f"failed={degraded.failed_shards})"
                )
            failed_shards = degraded.failed_shards
            # The degraded answer must still be exactly the merge over
            # the surviving shards: the reference router with the same
            # shard drained answers bit-identically.
            for shard in failed_shards:
                reference.drain(shard)
            want = reference.search(
                query, _K, *window, seed=seed, allow_partial=True
            )
            for shard in failed_shards:
                reference.restore(shard)
            if not (
                np.array_equal(degraded.positions, want.positions)
                and np.array_equal(degraded.distances, want.distances)
                and degraded.failed_shards == want.failed_shards
            ):
                _fail(
                    "the partial result is not the exact merge over the "
                    "surviving shards"
                )
        else:  # shard_flaky
            query, window = queries[0]
            with failpoints.scope(scenario.failpoints):
                result = router.search(query, _K, *window, seed=seed)
                fired = failpoints.fires("shard.scatter")
            if fired == 0:
                _fail("the scheduled scatter fault never fired")
            if result.partial or result.failed_shards:
                _fail(
                    "the retry budget did not absorb "
                    f"{fired} transient scatter fault(s)"
                )
            want = reference.search(query, _K, *window, seed=seed)
            if not (
                np.array_equal(result.positions, want.positions)
                and np.array_equal(result.distances, want.distances)
            ):
                _fail("answers diverged after retried scatter faults")

        # Crown invariant, every kind: with no fault armed, the router is
        # bit-identical to the never-faulted same-split reference AND to
        # a single-shard reference over the same stream.
        for qi, (query, window) in enumerate(queries):
            got = router.search(query, _K, *window, seed=seed + qi)
            same = reference.search(query, _K, *window, seed=seed + qi)
            one = single.search(query, _K, *window, seed=seed + qi)
            if got.partial:
                _fail(f"query {qi}: unexpected partial result after the fault")
            if not (
                np.array_equal(got.positions, same.positions)
                and np.array_equal(got.distances, same.distances)
                and np.array_equal(got.timestamps, same.timestamps)
            ):
                _fail(
                    f"query {qi}: answers diverge from the never-faulted "
                    "same-split reference"
                )
            if not (
                np.array_equal(got.positions, one.positions)
                and np.array_equal(got.distances, one.distances)
            ):
                _fail(
                    f"query {qi}: answers diverge from the single-shard "
                    "reference"
                )
        # And the router keeps routing writes where it left off.
        router.ingest(stream_vector(seed, acked), float(acked))
        if router.total_records != acked + 1:
            _fail("router did not resume ingesting after the fault")
        recovered = router.total_records - 1
    finally:
        router.close()
        reference.close()
        single.close()
    return ShardReport(
        scenario=scenario,
        acked=acked,
        recovered=recovered,
        failed_shards=failed_shards,
        queries_checked=len(queries),
    )


__all__ = [
    "CRASH_KINDS",
    "SHARD_KINDS",
    "ChaosInvariantError",
    "CrashReport",
    "CrashScenario",
    "DifferentialReport",
    "ShardReport",
    "ShardScenario",
    "chaos_mbi_config",
    "make_crash_scenario",
    "make_shard_scenario",
    "run_crash_scenario",
    "run_differential_scenario",
    "run_shard_scenario",
    "stream_vector",
]
