"""Cost-based block planner: scan a selected block's rows or walk its graph.

Block selection (:mod:`repro.core.selection`) decides *which* blocks answer
a query; the planner decides *how* each one is searched.  For every
selected block :func:`plan` prices an exact scan of the block's in-window
rows against one search of the block's index and keeps the cheaper, so a
query is never slower than a plain scan of its window by more than the
planning itself.  Consecutive scan steps cover adjacent row ranges
(selection returns disjoint blocks in time order), and :func:`runs` groups
them so the executor answers each group with a single coalesced scan.

The costs come from the committed table below, never from timings taken
at run time: a plan is a pure function of the block spans and capacities,
the dimension and the search parameters.  That keeps every answer
contract that depends on reproducible decisions intact (tiering on or
off, batch or single query, one shard or many, recovered or reference
index), and it keeps tier residency and promotion cost out of the model.

An explicit ``SearchParams.brute_force_threshold`` bypasses the costs and
restores the fixed rule: scan exactly when the in-window span is at most
the threshold (``0`` walks every built block, as the paper's Algorithm 4
does; ``10**9`` scans everything).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

from .block import Block
from .config import SearchParams

BRUTE = "brute"
GRAPH = "graph"

# The cost table (docs/performance.md, "Block planner").  The dim-64
# figures were measured on a 2-core VM with float32 rows; the dimension
# and coverage factors are ratios measured on the same VM at dims 16, 64,
# 128 and 960 and block sizes 500-16 000.
#
# An exact scan costs a fixed 35-75 us (query binding, top-k selection,
# result finalisation) plus 0.09 us per row at dim 64.  89 % of the
# per-row cost grows with the dimension (measured per-row cost relative
# to dim 64: 0.29x at dim 16, 1.75x at 128, 13.5x at 960).
SCAN_FIXED_US = 55.0
SCAN_US_PER_ROW = 0.09
SCAN_DIM_SHARE = 0.89
# One graph search of a block whose every row is in the window, at dim 64,
# by block capacity.  Between anchors the cost is interpolated linearly in
# log2(capacity); past the last one the last segment's slope continues.
GRAPH_FULL_SPAN_US = (
    (500, 260.0),
    (2_000, 470.0),
    (4_000, 620.0),
    (8_000, 890.0),
    (16_000, 1_060.0),
)
_LOG2_SIZES = tuple(math.log2(size) for size, _ in GRAPH_FULL_SPAN_US)
_COSTS = tuple(cost for _, cost in GRAPH_FULL_SPAN_US)
# 30 % of a full-span graph call at dim 64 grows with the dimension; the
# rest is interpreter glue that does not (measured 1.1-1.4x the dim-64
# cost at dim 128, 3.2-7.3x at dim 960, rising with block size).
GRAPH_DIM_SHARE = 0.3
# A window covering a fraction c of the block makes the walk step over
# rows outside it.  Measured medians over dims 64, 128 and 960: 1.13x the
# full-span cost at c = 0.45, 1.24x at 0.3, 1.31x at 0.2, 1.51x at 0.15
# and 2.57x at 0.05; modelled as 1 + 0.08 (1/c - 1), capped at 3x.
FILTER_SLOPE = 0.08
FILTER_CAP = 3.0


class PlanStep(NamedTuple):
    """How one selected block is searched.

    Attributes:
        block: The selected block.
        strategy: ``"brute"`` (exact scan of ``rows``) or ``"graph"``
            (search the block's index; the executor answers a cold block
            from its PQ codes instead when compressed cold-tier search is
            on, see ``docs/quantization.md``).
        rows: Store positions of the block inside the query window.
        reason: Why the strategy: ``"open-leaf"`` (the block is not full,
            so it has no index), ``"short-window"`` (span at or below a
            pinned ``brute_force_threshold``), ``"scan-cheaper"`` (the
            cost table prices the scan lower) or ``"built-block"``.
        est_us: The cost table's price of the chosen strategy, in
            microseconds on the reference host.
    """

    block: Block
    strategy: str
    rows: range
    reason: str
    est_us: float


def scan_us(rows: int, dim: int) -> float:
    """Estimated microseconds for one exact scan of ``rows`` rows."""
    per_row = SCAN_US_PER_ROW * (1.0 - SCAN_DIM_SHARE + SCAN_DIM_SHARE * dim / 64)
    return SCAN_FIXED_US + per_row * rows


def graph_us(capacity: int, rows: int, dim: int) -> float:
    """Estimated microseconds for one graph search of a block.

    ``capacity`` is the block's size and ``rows`` how many of its rows lie
    inside the query window.
    """
    sizes, costs = _LOG2_SIZES, _COSTS
    x = math.log2(max(capacity, 1))
    if x <= sizes[0]:
        full = costs[0]
    else:
        i = 1
        while i < len(sizes) - 1 and x > sizes[i]:
            i += 1
        slope = (costs[i] - costs[i - 1]) / (sizes[i] - sizes[i - 1])
        full = costs[i - 1] + slope * (x - sizes[i - 1])
    full *= 1.0 - GRAPH_DIM_SHARE + GRAPH_DIM_SHARE * dim / 64
    if rows <= 0:
        return full * FILTER_CAP
    return full * min(FILTER_CAP, 1.0 + FILTER_SLOPE * max(0.0, capacity / rows - 1.0))


@lru_cache(maxsize=None)
def walkable(capacity: int, dim: int) -> bool:
    """Whether :func:`plan` can ever walk a sealed block of ``capacity`` rows.

    True iff a full-span walk prices below a full scan.  A scan gets cheaper
    as the in-window span falls and a walk dearer (the filter factor is at
    least 1), so a block that is not walkable never plans ``graph``.
    """
    return graph_us(capacity, capacity, dim) < scan_us(capacity, dim)


def plan(
    selected: Sequence[Block],
    window: range,
    params: SearchParams,
    dim: int,
    filled: int,
) -> list[PlanStep]:
    """One :class:`PlanStep` per selected block, in selection order.

    Args:
        selected: The search block set, in time order.
        window: Store positions the query window resolved to.
        params: Query-time parameters; a non-``None``
            ``brute_force_threshold`` pins the fixed scan rule.
        dim: Vector dimension.
        filled: Store length; a block reaching past it is the open leaf.
    """
    threshold = params.brute_force_threshold
    steps = []
    for block in selected:
        lo, hi = block.positions.start, block.positions.stop
        rows = range(max(window.start, lo), min(window.stop, hi, filled))
        span = len(rows)
        scan = scan_us(span, dim)
        if hi > filled:
            strategy, reason, est = BRUTE, "open-leaf", scan
        elif threshold is not None:
            if span <= threshold:
                strategy, reason, est = BRUTE, "short-window", scan
            else:
                strategy, reason = GRAPH, "built-block"
                est = graph_us(block.capacity, span, dim)
        else:
            walk = graph_us(block.capacity, span, dim)
            if scan <= walk:
                strategy, reason, est = BRUTE, "scan-cheaper", scan
            else:
                strategy, reason, est = GRAPH, "built-block", walk
        steps.append(PlanStep(block, strategy, rows, reason, est))
    return steps


def runs(steps: Sequence[PlanStep]) -> list[range]:
    """Index ranges into ``steps`` that execute as one unit each.

    Consecutive ``brute`` steps form one run (their rows are adjacent, so
    one scan answers them all); every other step is a run of its own.
    """
    out: list[range] = []
    start = 0
    for i in range(1, len(steps) + 1):
        if (
            i == len(steps)
            or steps[i].strategy != BRUTE
            or steps[i - 1].strategy != BRUTE
        ):
            out.append(range(start, i))
            start = i
    return out
