"""Tests of the cost-based block planner and its coalesced execution.

The planner (:mod:`repro.core.planner`) chooses, per selected block,
between an exact scan of the block's in-window rows and one graph search,
from a committed cost table.  Its contracts:

* a plan is a pure function of spans, capacities, dimension and params —
  no clock is read while planning;
* at the benchmark's scale (n = 4000, leaf 500, dim 64) every block is
  scanned, while a full 16 000-row block at dim 64 is graph-searched;
* adjacent scanned blocks run as one coalesced scan whose answer equals
  the merge of per-block scans;
* a block the plan scans is never promoted from the cold tier.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MBIConfig, MultiLevelBlockIndex, SearchParams, get_registry
from repro.core import mbi as mbi_module
from repro.core import planner
from repro.core.block import Block
from repro.core.brute import brute_force_topk
from repro.core.results import merge_partial_results
from repro.core.selection import select_blocks

from .conftest import small_mbi_config


def _deferred_index(n: int, dim: int, leaf: int) -> MultiLevelBlockIndex:
    """An index whose block tree exists but whose graphs were never built.

    Planning reads only block positions, so the (slow) graph builds are
    skipped with ``insert_deferred``.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_MEMORY_BUDGET_MB", raising=False)
        index = MultiLevelBlockIndex(dim, "euclidean", MBIConfig(leaf_size=leaf))
    vectors = np.random.default_rng(0).standard_normal((n, dim))
    for t, vector in enumerate(vectors):
        index.insert_deferred(vector, float(t))
    return index


def _full_block(capacity: int) -> Block:
    return Block(index=0, height=5, positions=range(capacity))


class TestCostModel:
    def test_plan_reads_no_clock(self, monkeypatch):
        index = _deferred_index(4000, 8, 500)
        selected = select_blocks(index.blocks, 4000, 500, 0.95, range(100, 3900))

        def clock(*_args):
            raise AssertionError("the planner read a clock")

        for name in ("perf_counter", "perf_counter_ns", "monotonic", "time"):
            monkeypatch.setattr(time, name, clock)
        steps = planner.plan(selected, range(100, 3900), SearchParams(), 64, 4000)
        again = planner.plan(selected, range(100, 3900), SearchParams(), 64, 4000)
        assert steps == again
        assert len(steps) == len(selected)

    def test_every_block_scans_at_the_benchmark_scale(self):
        # n = 4000, leaf 500, dim 64: whatever the window, whatever tau.
        n, leaf, dim = 4000, 500, 64
        index = _deferred_index(n, 8, leaf)
        rng = np.random.default_rng(1)
        windows = [range(0, n)] + [
            range(lo, int(rng.integers(lo + 1, n + 1)))
            for lo in rng.integers(0, n - 1, 200).tolist()
        ]
        for window in windows:
            for tau in (0.1, 0.5, 0.95):
                selected = select_blocks(index.blocks, n, leaf, tau, window)
                steps = planner.plan(selected, window, SearchParams(), dim, n)
                assert {step.strategy for step in steps} == {planner.BRUTE}
        # Every block of the tree, whole or sliced, prices the scan lower.
        for block in index.blocks.values():
            for span in (1, block.capacity // 7, block.capacity // 2, block.capacity):
                rows = max(1, span)
                assert planner.scan_us(rows, dim) <= planner.graph_us(
                    block.capacity, rows, dim
                )

    def test_full_16000_row_block_walks_its_graph(self):
        block = _full_block(16_000)
        for rows in (range(16_000), range(400, 15_600)):  # f = 1.0 and 0.95
            (step,) = planner.plan([block], rows, SearchParams(), 64, 16_000)
            assert step.strategy == planner.GRAPH
            assert step.reason == "built-block"
            assert step.est_us == planner.graph_us(16_000, len(rows), 64)

    def test_crossover_falls_as_the_dimension_grows(self):
        # Measured full-span crossovers: about 8 000 rows at dim 64, between
        # 4 000 and 8 000 at dim 128, about 2 000 at dim 960.
        for dim, scanned, walked in ((64, 8_000, 16_000), (128, 4_000, 8_000), (960, 1_000, 4_000)):
            for capacity, strategy in ((scanned, planner.BRUTE), (walked, planner.GRAPH)):
                block = _full_block(capacity)
                (step,) = planner.plan([block], range(capacity), SearchParams(), dim, capacity)
                assert step.strategy == strategy, (dim, capacity)

    def test_narrow_slice_of_a_large_block_scans(self):
        block = _full_block(16_000)
        (step,) = planner.plan([block], range(0, 800), SearchParams(), 64, 16_000)
        assert step.strategy == planner.BRUTE
        assert step.reason == "scan-cheaper"

    def test_graph_cost_grows_with_capacity_and_filtering(self):
        sizes = (500, 1000, 4000, 16_000, 64_000)
        costs = [planner.graph_us(c, c, 64) for c in sizes]
        assert costs == sorted(costs)
        assert planner.graph_us(4000, 4000, 64) == pytest.approx(620.0)
        assert planner.graph_us(4000, 400, 64) > planner.graph_us(4000, 4000, 64)
        assert planner.graph_us(4000, 1, 64) == pytest.approx(620.0 * planner.FILTER_CAP)

    def test_open_leaf_always_scans(self):
        block = Block(index=0, height=0, positions=range(0, 100_000))
        (step,) = planner.plan([block], range(0, 90_000), SearchParams(), 64, 90_000)
        assert (step.strategy, step.reason) == (planner.BRUTE, "open-leaf")

    def test_pinned_threshold_restores_the_fixed_rule(self):
        block = _full_block(16_000)
        for threshold, rows, strategy in (
            (0, range(0, 10), planner.GRAPH),
            (64, range(0, 64), planner.BRUTE),
            (64, range(0, 65), planner.GRAPH),
            (10**9, range(16_000), planner.BRUTE),
        ):
            params = SearchParams(brute_force_threshold=threshold)
            (step,) = planner.plan([block], rows, params, 64, 16_000)
            assert step.strategy == strategy

    def test_runs_group_adjacent_scans(self):
        block = _full_block(10)
        steps = [
            planner.PlanStep(block, strategy, range(0), "", 0.0)
            for strategy in ("brute", "brute", "graph", "brute", "graph", "graph")
        ]
        assert planner.runs(steps) == [
            range(0, 2), range(2, 3), range(3, 4), range(4, 5), range(5, 6)
        ]
        assert planner.runs([]) == []


@pytest.fixture(scope="module")
def planned_index(clustered_data):
    vectors, timestamps, _ = clustered_data
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_MEMORY_BUDGET_MB", raising=False)
        mp.delenv("REPRO_COLD_CODES", raising=False)
        index = MultiLevelBlockIndex(
            vectors.shape[1], "euclidean", small_mbi_config(leaf_size=100)
        )
    index.extend(vectors, timestamps)
    return index


class TestCoalescedScan:
    def test_coalesced_scan_equals_merged_block_scans(
        self, planned_index, clustered_data
    ):
        _, _, queries = clustered_data
        index = planned_index
        covered = 0
        for i, (t_start, t_end) in enumerate(
            [(3.0, 97.0), (10.0, 60.0), (41.5, 99.5), (20.3, 88.8)]
        ):
            query = queries[i]
            # tau = 0.95 keeps the selection walk descending: many blocks.
            trace = index.explain(query, 10, t_start, t_end, tau=0.95)
            assert {e.strategy for e in trace.blocks} == {"brute"}
            assert len(trace.blocks) >= 2
            (step,) = trace.plan
            assert step.blocks == tuple(e.block_index for e in trace.blocks)
            assert step.rows == trace.window_positions
            covered += len(step.blocks)
            partials = [
                brute_force_topk(
                    index.store, index.metric, query, 10, range(*e.window)
                )
                for e in trace.blocks
            ]
            want_positions, want_dists = merge_partial_results(partials, 10)
            got = index.search(query, 10, t_start, t_end, tau=0.95)
            np.testing.assert_array_equal(got.positions, want_positions)
            np.testing.assert_allclose(got.distances, want_dists, rtol=1e-12, atol=0)
            # One scan, but every block is still counted and charged.
            assert got.stats.blocks_searched == len(trace.blocks)
            assert got.stats.distance_evaluations == trace.window_size
        assert covered >= 8

    def test_explain_renders_each_step_with_estimate_and_actual(
        self, planned_index, clustered_data
    ):
        _, _, queries = clustered_data
        trace = planned_index.explain(queries[0], 10, 5.0, 95.0, tau=0.95)
        text = trace.render()
        assert "brute-force threshold: planner" in text
        assert "executed plan:" in text
        for step in trace.plan:
            assert step.actual_us > 0.0
            assert step.est_us == pytest.approx(
                planner.scan_us(step.rows[1] - step.rows[0], planned_index.dim)
            )
        plan_lines = [
            line for line in text.splitlines() if " est " in line and "actual" in line
        ]
        assert len(plan_lines) == len(trace.plan)
        assert all(line.split()[0] == "brute" for line in plan_lines)


class TestDeferredBuild:
    def test_block_planned_for_graph_but_not_built_yet_is_scanned(self):
        # Sealed blocks whose builds were deferred have no graph: a step the
        # plan (here: graph everywhere) walks falls back to an exact scan.
        index = _deferred_index(64, 4, 16)
        query = np.random.default_rng(5).standard_normal(4)
        params = SearchParams(brute_force_threshold=0)
        trace = index.explain(query, 5, 3.0, 60.0, params=params)
        assert [e.strategy for e in trace.blocks] == ["brute"] * len(trace.blocks)
        assert {e.reason for e in trace.blocks} == {"open-leaf"}
        assert not any(e.built for e in trace.blocks)
        want = brute_force_topk(index.store, index.metric, query, 5, range(3, 60))
        got = index.search(query, 5, 3.0, 60.0, params=params)
        np.testing.assert_array_equal(got.positions, want[0])
        np.testing.assert_array_equal(got.distances, want[1])


class TestTiering:
    def test_planned_scans_never_promote(self, clustered_data, tmp_path):
        vectors, timestamps, queries = clustered_data
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("REPRO_MEMORY_BUDGET_MB", raising=False)
            index = MultiLevelBlockIndex(
                vectors.shape[1], "euclidean", small_mbi_config(leaf_size=100)
            )
        index.extend(vectors, timestamps)
        reference = [
            index.search(q, 10, 0.0, 30.0, rng=np.random.default_rng(0))
            for q in queries[:6]
        ]
        manager = index.enable_tiering(
            memory_budget_mb=1e-4, directory=tmp_path / "tiers"
        )
        assert any(manager.is_cold(b) for b in index.iter_blocks())
        registry = get_registry()
        before = registry.snapshot()["tier_promotions_total"]
        for query, want in zip(queries[:6], reference):
            for t_start, t_end in ((0.0, 30.0), (12.0, 14.0), (40.0, 41.0)):
                trace = index.explain(query, 10, t_start, t_end)
                assert {e.strategy for e in trace.blocks} == {"brute"}
            got = index.search(query, 10, 0.0, 30.0, rng=np.random.default_rng(0))
            np.testing.assert_array_equal(got.positions, want.positions)
            assert got.distances.tobytes() == want.distances.tobytes()
        assert registry.snapshot()["tier_promotions_total"] == before


class TestWalkable:
    @given(
        leaf=st.integers(1, 1000),
        height=st.integers(0, 8),
        dim=st.sampled_from((16, 64, 128, 960)),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_walkable_agrees_with_plan(self, leaf, height, dim, data):
        capacity = leaf << height
        span = data.draw(st.integers(0, capacity))
        block = _full_block(capacity)
        (step,) = planner.plan([block], range(span), SearchParams(), dim, capacity)
        if not planner.walkable(capacity, dim):
            assert step.strategy == planner.BRUTE
        (full,) = planner.plan([block], range(capacity), SearchParams(), dim, capacity)
        assert (full.strategy == planner.GRAPH) == planner.walkable(capacity, dim)

    def test_benchmark_scale_blocks_are_not_walkable(self):
        # leaf 500, dim 64: the smallest walkable block holds 16 000 rows.
        assert not any(planner.walkable(500 << h, 64) for h in range(5))
        assert planner.walkable(16_000, 64)


def _draws(rng: np.random.Generator) -> list[int]:
    return rng.integers(0, 2**63 - 1, size=4).tolist()


class TestAllScanShortcut:
    @given(
        query=st.integers(0, 19),
        t_start=st.floats(-5.0, 100.0),
        length=st.floats(0.0, 110.0),
        tau=st.sampled_from((None, 0.05, 0.5, 0.95, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_search_equals_the_planned_path(
        self, planned_index, clustered_data, query, t_start, length, tau, seed
    ):
        # ``explain`` is traced, so it always plans; an untraced ``search``
        # of this index never does (no block is walkable at 1 600 rows).
        q = clustered_data[2][query]
        t_end = t_start + length
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = planned_index.explain(q, 10, t_start, t_end, rng=want_rng, tau=tau)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mbi_module, "plan", None)  # any planning call fails
            got = planned_index.search(q, 10, t_start, t_end, rng=got_rng, tau=tau)
        assert tuple(got.positions.tolist()) == want.result_positions
        assert tuple(got.distances.tolist()) == want.result_distances
        assert got.stats == want.stats
        assert _draws(got_rng) == _draws(want_rng)

    def test_shortcut_scan_is_the_one_brute_force_call(
        self, planned_index, clustered_data, monkeypatch
    ):
        calls = []
        scan = mbi_module.brute_force_topk

        def counted(*args, **kwargs):
            calls.append(args[4])
            return scan(*args, **kwargs)

        monkeypatch.setattr(mbi_module, "brute_force_topk", counted)
        result = planned_index.search(clustered_data[2][0], 10, 3.0, 97.0, tau=0.95)
        (rows,) = calls
        assert result.stats.window_size == len(rows)
        assert result.stats.blocks_searched >= 2

    def test_pinned_threshold_and_walkable_blocks_plan(
        self, planned_index, clustered_data, monkeypatch
    ):
        q = clustered_data[2][0]
        planned = []
        real_plan = mbi_module.plan

        def recording(*args, **kwargs):
            planned.append(args)
            return real_plan(*args, **kwargs)

        monkeypatch.setattr(mbi_module, "plan", recording)
        planned_index.search(q, 10, 3.0, 97.0)
        assert planned == []
        planned_index.search(q, 10, 3.0, 97.0, params=SearchParams(brute_force_threshold=64))
        assert len(planned) == 1
        monkeypatch.setattr(mbi_module, "walkable", lambda capacity, dim: capacity >= 800)
        planned_index.search(q, 10, 3.0, 97.0)
        assert len(planned) == 2

    def test_tiered_index_plans(self, monkeypatch, tmp_path):
        index = _deferred_index(64, 4, 16)
        index.enable_tiering(memory_budget_mb=1e-4, directory=tmp_path / "tiers")
        planned = []
        real_plan = mbi_module.plan
        monkeypatch.setattr(
            mbi_module, "plan", lambda *a: planned.append(a) or real_plan(*a)
        )
        index.search(np.zeros(4), 5, 3.0, 60.0)
        assert len(planned) == 1
