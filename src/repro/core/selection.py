"""Top-down search-block selection (the paper's Algorithm 4, lines 11-20).

Given a query time window, selection walks the block tree from the root and
classifies each block by its overlap ratio ``r_o``:

* Case 1 — ``r_o = 0``: the block is skipped;
* Case 2 — the block is a leaf, or ``r_o > tau``: the block is selected;
* Case 3 — otherwise: descend into both children.

Virtual blocks (positions the incremental construction has not merged yet)
have an unbounded time window, so their ratio is treated as infinitesimal
and they always fall into Case 3, exactly as the paper prescribes.

Two ratio definitions are supported (see ``MBIConfig.selection_mode``):

* ``"count"`` — ``r_o`` = overlapping vector count / block capacity.  MBI
  splits blocks by *count* (each child holds half the parent's vectors), and
  the paper's proofs (Lemma 4.1/4.3) reason in those halves, so this is the
  form under which the ≤2-blocks guarantee is exact.
* ``"time"`` — the literal formula of Section 4.3 on timestamp spans.  It
  coincides with ``"count"`` under a uniform arrival rate.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..storage.timeline import TimeWindow
from .block import Block
from .tree import tree_levels_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability.trace import QueryTrace


def select_blocks(
    blocks: Mapping[int, Block],
    n_stored: int,
    leaf_size: int,
    tau: float,
    window_positions: range,
    mode: str = "count",
    query_window: TimeWindow | None = None,
    timestamps: np.ndarray | None = None,
    trace: "QueryTrace | None" = None,
) -> list[Block]:
    """Choose the search block set for a query.

    Args:
        blocks: Materialised blocks by postorder index (built blocks plus
            the open leaf).
        n_stored: Total vectors currently stored.
        leaf_size: The index's ``S_L``.
        tau: Selection threshold.
        window_positions: Store positions the query time window resolves to.
        mode: ``"count"`` or ``"time"``.
        query_window: The query's time window; required in ``"time"`` mode.
        timestamps: The store's timestamp array; required in ``"time"`` mode.
        trace: Optional :class:`repro.observability.QueryTrace` receiving one
            :class:`~repro.observability.SelectionEvent` per visited node
            (``None`` records nothing and allocates nothing).

    Returns:
        Selected blocks in ascending time order.  The union of their
        position ranges covers ``window_positions`` and the ranges are
        pairwise disjoint.
    """
    if n_stored == 0 or window_positions.start >= window_positions.stop:
        return []
    if mode == "time" and (query_window is None or timestamps is None):
        raise ValueError("time mode requires query_window and timestamps")

    start, stop = window_positions.start, window_positions.stop
    count_mode = mode == "count"
    selected: list[Block] = []
    # An explicit-stack walk over (height, first leaf ordinal) in preorder,
    # left subtree first (the left child is pushed last): selected blocks
    # come out in time order and trace events in tree order.
    stack = [(tree_levels_for(-(-n_stored // leaf_size)), 0)]
    while stack:
        height, first_leaf = stack.pop()
        last_leaf = first_leaf + (1 << height) - 1
        # A block is created right after its last leaf, one index per merge:
        # ``leaf_block_index(last_leaf) + height``.
        index = 2 * last_leaf - last_leaf.bit_count() + height
        capacity_lo = first_leaf * leaf_size
        capacity_hi = (last_leaf + 1) * leaf_size
        filled_hi = capacity_hi if capacity_hi < n_stored else n_stored
        overlap = (stop if stop < filled_hi else filled_hi) - (
            start if start > capacity_lo else capacity_lo
        )
        if overlap <= 0:
            # Case 1, or the subtree holds no data yet.
            if trace is not None:
                trace.record_selection(
                    index, height, (capacity_lo, capacity_hi), 0, math.nan,
                    tau, "rejected",
                    "no-data" if filled_hi <= capacity_lo else "no-overlap",
                )
            continue

        block = blocks.get(index)
        ratio = math.nan
        if height == 0:
            # Case 2 (leaf): every leaf with data is materialised.
            assert block is not None, f"leaf block {index} missing"
            decision, reason = "selected", "leaf"
        elif block is None:
            decision, reason = "descended", "virtual-block"
        else:
            if count_mode:
                ratio = overlap / block.capacity
            else:
                ratio = _time_ratio(block, query_window, timestamps, n_stored)
            # Case 2.  Fully covered blocks (r_o = 1) are selected even when
            # tau = 1: recursing could only split the same work across both
            # children.  This matches the paper's Figure 4, where tau = 1
            # selects the fully covered internal blocks B13 and B17.
            if ratio >= 1.0:
                decision, reason = "selected", "fully-covered"
            elif ratio > tau:
                decision, reason = "selected", "ratio>tau"
            else:
                decision, reason = "descended", "ratio<=tau"
        if trace is not None:
            trace.record_selection(
                index, height, (capacity_lo, capacity_hi), overlap, ratio,
                tau, decision, reason,
            )
        if decision == "selected":
            selected.append(block)
        else:
            # Case 3: virtual block, or materialised with ratio <= tau.
            half = 1 << (height - 1)
            stack.append((height - 1, first_leaf + half))
            stack.append((height - 1, first_leaf))
    return selected


def _time_ratio(
    block: Block,
    query_window: TimeWindow,
    timestamps: np.ndarray,
    n_stored: int,
) -> float:
    """The block's ``r_o`` in ``"time"`` mode."""
    start = float(timestamps[block.positions.start])
    if block.positions.stop < n_stored:
        end = float(timestamps[block.positions.stop])
    else:
        # The newest block has no successor yet; its exclusive upper bound
        # is just past the latest stored timestamp (Table 1's "latest
        # timestamp of vectors in B").
        end = float(np.nextafter(timestamps[n_stored - 1], np.inf))
    return query_window.overlap_ratio(TimeWindow(start, end))
