"""Unit and property tests for top-down block selection (Algorithm 4)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import Block
from repro.core.selection import select_blocks
from repro.core.tree import (
    leaf_block_index,
    leaf_range_of,
    left_child,
    right_child,
    root_index,
    tree_levels_for,
)
from repro.observability import QueryTrace
from repro.storage import TimeWindow


def make_blocks(n_stored: int, leaf_size: int) -> dict[int, Block]:
    """Materialise the blocks MBI would have after ``n_stored`` inserts."""
    blocks: dict[int, Block] = {}
    if n_stored == 0:
        return blocks
    num_leaves = -(-n_stored // leaf_size)
    for ordinal in range(num_leaves):
        index = leaf_block_index(ordinal)
        lo = ordinal * leaf_size
        blocks[index] = Block(index, 0, range(lo, lo + leaf_size))
    completed = n_stored // leaf_size
    for ordinal in range(completed):
        index = leaf_block_index(ordinal)
        remaining = ordinal + 1
        height = 1
        while remaining % 2 == 0:
            index += 1
            first, last = leaf_range_of(index, height)
            blocks[index] = Block(
                index, height, range(first * leaf_size, last * leaf_size)
            )
            remaining //= 2
            height += 1
    return blocks


def selected_ranges(blocks, n_stored):
    return [
        (
            block.positions.start,
            min(block.positions.stop, n_stored),
        )
        for block in blocks
    ]


class TestBasicCases:
    def test_empty_store_selects_nothing(self):
        assert select_blocks({}, 0, 8, 0.5, range(0, 0)) == []

    def test_empty_window_selects_nothing(self):
        blocks = make_blocks(64, 8)
        assert select_blocks(blocks, 64, 8, 0.5, range(10, 10)) == []

    def test_full_window_low_tau_selects_root(self):
        blocks = make_blocks(64, 8)
        selected = select_blocks(blocks, 64, 8, 0.5, range(0, 64))
        assert len(selected) == 1
        assert selected[0].positions == range(0, 64)

    def test_window_inside_single_leaf(self):
        blocks = make_blocks(64, 8)
        selected = select_blocks(blocks, 64, 8, 0.5, range(18, 21))
        assert len(selected) == 1
        assert selected[0].height == 0
        assert selected[0].positions == range(16, 24)

    def test_paper_figure4_tau_examples(self):
        # Figure 4: 16 leaves, window from mid-leaf-3 to mid-leaf-11.
        # tau ~ 0 -> {B30}; tau = 0.5 -> {B14, B21};
        # tau = 1 -> {B4, B13, B17, B18, B19}.
        leaf = 10
        blocks = make_blocks(160, leaf)
        window = range(35, 115)

        tiny_tau = select_blocks(blocks, 160, leaf, 1e-9, window)
        assert [b.index for b in tiny_tau] == [30]

        half = select_blocks(blocks, 160, leaf, 0.5, window)
        assert [b.index for b in half] == [14, 21]

        strict = select_blocks(blocks, 160, leaf, 1.0, window)
        assert [b.index for b in strict] == [4, 13, 17, 18, 19]

    def test_open_leaf_is_selected_for_tail_window(self):
        blocks = make_blocks(60, 8)  # leaf 7 open with 4 vectors
        selected = select_blocks(blocks, 60, 8, 0.5, range(57, 60))
        assert len(selected) == 1
        assert selected[0].height == 0
        assert selected[0].positions.start == 56


class TestInvariants:
    @given(
        st.integers(1, 400),   # n_stored
        st.integers(1, 32),    # leaf_size
        st.integers(0, 400),   # window start
        st.integers(1, 400),   # window length
        st.floats(0.05, 1.0),  # tau
    )
    @settings(max_examples=200, deadline=None)
    def test_coverage_and_disjointness(self, n, leaf, start, length, tau):
        blocks = make_blocks(n, leaf)
        window = range(min(start, n), min(start + length, n))
        selected = select_blocks(blocks, n, leaf, tau, window)
        ranges = sorted(selected_ranges(selected, n))
        # Pairwise disjoint.
        for (_, prev_hi), (lo, _) in zip(ranges, ranges[1:]):
            assert prev_hi <= lo
        # Window fully covered.
        covered = set()
        for lo, hi in ranges:
            covered.update(range(lo, hi))
        assert set(window) <= covered

    @given(
        st.integers(0, 6),     # levels -> n = leaf * 2^levels (complete tree)
        st.integers(1, 16),    # leaf size
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_lemma_4_1_at_most_two_blocks_for_complete_trees(
        self, levels, leaf, data
    ):
        n = leaf * (2**levels)
        blocks = make_blocks(n, leaf)
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.integers(start + 1, n))
        tau = data.draw(st.floats(0.01, 0.5))
        selected = select_blocks(blocks, n, leaf, tau, range(start, stop))
        assert 1 <= len(selected) <= 2

    @given(
        st.integers(1, 300),
        st.integers(1, 16),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_selected_blocks_all_overlap_window(self, n, leaf, data):
        blocks = make_blocks(n, leaf)
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.integers(start + 1, n))
        selected = select_blocks(blocks, n, leaf, 0.5, range(start, stop))
        for block in selected:
            lo = max(block.positions.start, start)
            hi = min(block.positions.stop, min(n, stop))
            assert lo < hi, f"block {block} does not overlap the window"

    def test_blocks_returned_in_time_order(self):
        blocks = make_blocks(128, 8)
        selected = select_blocks(blocks, 128, 8, 1.0, range(0, 128))
        starts = [b.positions.start for b in selected]
        assert starts == sorted(starts)


class TestTimeMode:
    def test_uniform_timestamps_match_count_mode(self):
        n, leaf = 128, 8
        blocks = make_blocks(n, leaf)
        timestamps = np.arange(n, dtype=np.float64)
        window_positions = range(10, 90)
        window = TimeWindow(10.0, 90.0)
        by_count = select_blocks(
            blocks, n, leaf, 0.5, window_positions, mode="count"
        )
        by_time = select_blocks(
            blocks,
            n,
            leaf,
            0.5,
            window_positions,
            mode="time",
            query_window=window,
            timestamps=timestamps,
        )
        assert [b.index for b in by_count] == [b.index for b in by_time]

    def test_time_mode_requires_window_and_timestamps(self):
        blocks = make_blocks(64, 8)
        with pytest.raises(ValueError):
            select_blocks(blocks, 64, 8, 0.5, range(0, 10), mode="time")

    def test_time_mode_coverage_under_skewed_arrivals(self):
        n, leaf = 128, 8
        blocks = make_blocks(n, leaf)
        # Quadratic arrival: early vectors sparse in time, later dense.
        timestamps = (np.arange(n, dtype=np.float64) / n) ** 2 * 1000.0
        lo_pos, hi_pos = 30, 100
        window = TimeWindow(timestamps[lo_pos], timestamps[hi_pos])
        window_positions = range(lo_pos, hi_pos)
        selected = select_blocks(
            blocks,
            n,
            leaf,
            0.5,
            window_positions,
            mode="time",
            query_window=window,
            timestamps=timestamps,
        )
        covered = set()
        for block in selected:
            covered.update(
                range(block.positions.start, min(block.positions.stop, n))
            )
        assert set(window_positions) <= covered


# The recursive walk ``select_blocks`` ran before it became an explicit-stack
# loop, kept verbatim as the reference the loop must reproduce: same blocks,
# same traced events in the same order.
def _reference_select_blocks(
    blocks, n_stored, leaf_size, tau, window_positions, mode="count",
    query_window=None, timestamps=None, trace=None,
):
    if n_stored == 0 or window_positions.start >= window_positions.stop:
        return []
    num_leaves = -(-n_stored // leaf_size)
    levels = tree_levels_for(num_leaves)
    selected = []
    _select(
        root_index(levels), levels, blocks, n_stored, leaf_size, tau,
        window_positions, mode, query_window, timestamps, selected, trace,
    )
    return selected


def _select(
    index, height, blocks, n_stored, leaf_size, tau, window, mode,
    query_window, timestamps, selected, trace,
):
    leaf_lo, leaf_hi = leaf_range_of(index, height)
    capacity_lo = leaf_lo * leaf_size
    capacity_hi = leaf_hi * leaf_size
    filled_hi = min(capacity_hi, n_stored)
    span = (capacity_lo, capacity_hi)
    if filled_hi <= capacity_lo:
        if trace is not None:
            trace.record_selection(
                index, height, span, 0, math.nan, tau, "rejected", "no-data"
            )
        return
    overlap = min(window.stop, filled_hi) - max(window.start, capacity_lo)
    if overlap <= 0:
        if trace is not None:
            trace.record_selection(
                index, height, span, 0, math.nan, tau, "rejected", "no-overlap"
            )
        return

    block = blocks.get(index)
    if height == 0:
        assert block is not None, f"leaf block {index} missing"
        if trace is not None:
            trace.record_selection(
                index, height, span, overlap, math.nan, tau, "selected", "leaf"
            )
        selected.append(block)
        return

    if block is not None:
        ratio = _overlap_ratio(
            block, overlap, window, mode, query_window, timestamps, n_stored
        )
        if ratio > tau or ratio >= 1.0:
            if trace is not None:
                trace.record_selection(
                    index, height, span, overlap, ratio, tau, "selected",
                    "fully-covered" if ratio >= 1.0 else "ratio>tau",
                )
            selected.append(block)
            return
        if trace is not None:
            trace.record_selection(
                index, height, span, overlap, ratio, tau,
                "descended", "ratio<=tau",
            )
    elif trace is not None:
        trace.record_selection(
            index, height, span, overlap, math.nan, tau,
            "descended", "virtual-block",
        )
    for child in (left_child(index, height), right_child(index, height)):
        _select(
            child, height - 1, blocks, n_stored, leaf_size, tau, window, mode,
            query_window, timestamps, selected, trace,
        )


def _overlap_ratio(
    block, position_overlap, window, mode, query_window, timestamps, n_stored
):
    if mode == "count":
        return position_overlap / block.capacity
    start = float(timestamps[block.positions.start])
    if block.positions.stop < n_stored:
        end = float(timestamps[block.positions.stop])
    else:
        end = float(np.nextafter(timestamps[n_stored - 1], np.inf))
    return query_window.overlap_ratio(TimeWindow(start, end))


def _events(trace):
    """The trace's selection events, NaN ratios made comparable."""
    return [
        (e.block_index, e.height, e.positions, e.overlap,
         None if math.isnan(e.ratio) else e.ratio, e.tau, e.decision, e.reason)
        for e in trace.selection
    ]


class TestIterativeWalkMatchesRecursiveReference:
    @given(
        st.integers(1, 40),              # leaves touched by the store
        st.integers(1, 32),              # leaf size
        st.booleans(),                   # one row past a leaf boundary, chain unsealed
        st.sampled_from(["count", "time"]),
        st.floats(0.0, 1.0),             # tau
        st.integers(0, 2**32 - 1),       # timestamp gaps and window
    )
    @settings(max_examples=400, deadline=None)
    def test_same_blocks_and_same_trace(
        self, leaves, leaf, unsealed, mode, tau, seed
    ):
        rng = np.random.default_rng(seed)
        if unsealed:
            # The row that opens leaf ``leaves`` has landed, but the merge
            # chain of the leaf it sealed is not materialised yet: a query
            # racing the insert sees those ancestors as virtual blocks.
            n = leaves * leaf + 1
            blocks = make_blocks(leaves * leaf, leaf)
            sealed = leaf_block_index(leaves - 1)
            for height in range(1, (leaves & -leaves).bit_length()):
                del blocks[sealed + height]
            index = leaf_block_index(leaves)
            blocks[index] = Block(index, 0, range(leaves * leaf, (leaves + 1) * leaf))
        else:
            n = int(rng.integers(max(1, (leaves - 1) * leaf + 1), leaves * leaf + 1))
            blocks = make_blocks(n, leaf)
        start = int(rng.integers(0, n))
        window = range(start, int(rng.integers(start + 1, n + 1)))
        timestamps = np.cumsum(rng.exponential(1.0, n))
        query_window = TimeWindow(
            float(timestamps[window.start]),
            float(np.nextafter(timestamps[window.stop - 1], np.inf)),
        )
        args = (blocks, n, leaf, tau, window, mode, query_window, timestamps)
        want_trace, got_trace = QueryTrace(), QueryTrace()
        want = _reference_select_blocks(*args, trace=want_trace)
        got = select_blocks(*args, trace=got_trace)
        assert [b.index for b in got] == [b.index for b in want]
        assert all(g is w for g, w in zip(got, want))
        assert _events(got_trace) == _events(want_trace)
        assert [b.index for b in select_blocks(*args)] == [b.index for b in want]
