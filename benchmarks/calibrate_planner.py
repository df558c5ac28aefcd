"""Measure what the block planner's cost table prices, next to its estimates.

Builds one MBI over a drifting-clusters stream (leaf 500), then times

* an exact scan of the first ``rows`` store rows, for growing ``rows``;
* one graph search of every distinct built block size, over windows that
  cover 100 %, 45 %, 30 %, 20 %, 15 % and 5 % of the block,

printing the best-of-three median microseconds beside the estimate of
``repro.core.planner`` (``scan_us`` / ``graph_us``).  Pin one BLAS thread
so the scan timings match the benchmark's setting::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/calibrate_planner.py \\
        --n 16000 --dim 64

Absolute times follow the host's speed; the table in
``docs/performance.md`` keeps the reference host's dim-64 figures and takes
its dimension and coverage factors from ratios measured here.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import MBIConfig, MultiLevelBlockIndex, SearchParams
from repro.core import planner
from repro.core.brute import brute_force_topk
from repro.datasets.synthetic import SyntheticSpec, generate
from repro.distances.fused import StoreNormCache

COVERAGES = (1.0, 0.45, 0.3, 0.2, 0.15, 0.05)
SCAN_ROWS = (20, 100, 500, 1000, 2000, 4000, 8000, 16000)


def best_median_us(fn, reps: int) -> float:
    """Best of three median call times of ``fn(i)``, in microseconds."""
    fn(0)
    medians = []
    for _ in range(3):
        times = []
        for i in range(reps):
            start = time.perf_counter()
            fn(i)
            times.append(time.perf_counter() - start)
        medians.append(float(np.median(times)))
    return min(medians) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=16_000, help="stream length")
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--reps", type=int, default=40, help="calls per median")
    args = parser.parse_args()

    data = generate(
        SyntheticSpec(
            n_items=args.n, n_queries=256, dim=args.dim, metric="euclidean",
            generator="drifting_clusters", seed=3,
        )
    )
    index = MultiLevelBlockIndex(args.dim, "euclidean", MBIConfig(leaf_size=500))
    index.extend(data.vectors, data.timestamps)
    queries = data.queries
    cache = StoreNormCache(index.store, index.metric)
    params = SearchParams()

    for rows in (r for r in SCAN_ROWS if r <= args.n):
        us = best_median_us(
            lambda i: brute_force_topk(
                index.store, index.metric, queries[i % 256], 10, range(rows), cache
            ),
            args.reps,
        )
        print(
            f"scan  dim={args.dim} rows={rows:6d} us={us:8.1f} "
            f"table={planner.scan_us(rows, args.dim):8.1f}",
            flush=True,
        )
    sizes = set()
    for block in index.iter_blocks():
        if block.backend is None or block.capacity in sizes:
            continue
        sizes.add(block.capacity)
        for coverage in COVERAGES:
            span = max(1, int(coverage * block.capacity))
            us = best_median_us(
                lambda i: block.backend.search(
                    queries[i % 256], 10, range(span), params,
                    np.random.default_rng(i),
                ),
                args.reps,
            )
            print(
                f"graph dim={args.dim} cap={block.capacity:6d} cov={coverage:4.2f} "
                f"us={us:8.1f} "
                f"table={planner.graph_us(block.capacity, span, args.dim):8.1f}",
                flush=True,
            )


if __name__ == "__main__":
    main()
