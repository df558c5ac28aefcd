"""Golden parity of the query pipeline: answers, stats, traces and randomness.

``tests/data/query_pipeline_golden.json`` holds what :func:`records`
returned on the code before the single query executor (commit 24d6c9c,
whose ``search`` still had two executors).  It was written, and is
rewritten, from the repository root with::

    PYTHONPATH=src python -m tests.test_query_pipeline_golden

The index is small and seeded.  The scan is priced 20x its table cost (as
in ``test_trace_consistency``), so the planner walks the larger blocks as
well as scanning.  Every case runs a fixed set of queries and windows
through ``explain`` and then ``search``, each from a fresh seeded
generator:

* ``planner``: the cost-based default;
* ``pinned-0``, ``pinned-64``, ``pinned-1e9``: a pinned
  ``brute_force_threshold``;
* ``tau-0.2``, ``tau-1.0``: a per-query selection threshold;
* ``tiered``, ``tiered-no-prefetch``: a tiny block budget with
  compressed cold-tier search, where wide cold spans answer from PQ codes
  and narrow walked ones promote (up front, or on the miss);
* ``deferred``: sealed blocks whose builds were never run, so a planned
  walk falls back to a scan;
* ``batch``: ``search_batch`` with a trace sink.

A record holds integers and strings only: the positions, the
``QueryStats``, each block event's strategy, window, reason, built flag
and tier, each plan step's strategy, blocks and rows, and the next draw
of the query's generator.  Distances are left out, so last-ulp BLAS
differences between hosts cannot move the fixture.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from repro import MultiLevelBlockIndex
from repro.core import planner

from .conftest import small_mbi_config

GOLDEN = Path(__file__).parent / "data" / "query_pipeline_golden.json"

K = 10
N, DIM, LEAF = 1600, 24, 100
WINDOWS = [
    (-np.inf, np.inf),
    (3.0, 97.0),
    (10.0, 60.0),
    (41.5, 99.5),
    (20.3, 24.1),
    (55.0, 56.0),
    (0.0, 30.0),
    (-5.0, 12.5),
]
QUERIES = 3


def _data():
    rng = np.random.default_rng(2024)
    centers = rng.standard_normal((8, DIM)) * 1.5
    vectors = centers[rng.integers(0, 8, N)] + rng.standard_normal((N, DIM))
    timestamps = np.sort(rng.uniform(0.0, 100.0, N))
    queries = centers[rng.integers(0, 8, QUERIES)] + rng.standard_normal(
        (QUERIES, DIM)
    )
    return vectors, timestamps, queries


def _next(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def _answer(result, rng) -> dict:
    return {
        "positions": [int(p) for p in result.positions],
        "stats": list(astuple(result.stats)),
        "next": _next(rng),
    }


def _traced(trace) -> dict:
    return {
        "positions": list(trace.result_positions),
        "stats": list(astuple(trace.stats)),
        "blocks": [
            [e.strategy, *e.window, e.reason, int(e.built), e.tier]
            for e in trace.blocks
        ],
        "plan": [[s.strategy, list(s.blocks), *s.rows] for s in trace.plan],
    }


def _queries(index, queries, params=None, tau=None) -> list[dict]:
    out = []
    for qi, query in enumerate(queries):
        for wi, (t_start, t_end) in enumerate(WINDOWS):
            seed = 1000 * qi + wi
            rng = np.random.default_rng(seed)
            traced = _traced(
                index.explain(query, K, t_start, t_end, params=params, rng=rng, tau=tau)
            )
            traced["next"] = _next(rng)
            rng = np.random.default_rng(seed)
            plain = _answer(
                index.search(query, K, t_start, t_end, params=params, rng=rng, tau=tau),
                rng,
            )
            out.append({"search": plain, "explain": traced})
    return out


def _batch(index, queries) -> list[dict]:
    out = []
    for wi, (t_start, t_end) in enumerate(WINDOWS):
        rng = np.random.default_rng(wi)
        sink: list = []
        results = index.search_batch(
            queries, K, t_start, t_end, rng=rng, trace_sink=sink
        )
        out.append(
            {
                "answers": [
                    {
                        "positions": [int(p) for p in r.positions],
                        "stats": list(astuple(r.stats)),
                    }
                    for r in results
                ],
                "traces": [_traced(trace) for trace in sink],
                "next": _next(rng),
            }
        )
    return out


def records() -> dict[str, list[dict]]:
    """Every case's records, computed by the code under test."""
    vectors, timestamps, queries = _data()
    config = small_mbi_config(leaf_size=LEAF)
    out: dict[str, list[dict]] = {}
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.delenv("REPRO_MEMORY_BUDGET_MB", raising=False)
        mp.delenv("REPRO_COLD_CODES", raising=False)
        mp.setattr(planner, "SCAN_US_PER_ROW", planner.SCAN_US_PER_ROW * 20)
        # ``walkable`` caches its answers for the unpatched table.
        mp.setattr(planner, "walkable", planner.walkable.__wrapped__)

        index = MultiLevelBlockIndex(DIM, "euclidean", config)
        index.extend(vectors, timestamps)
        out["planner"] = _queries(index, queries)
        for name, threshold in (
            ("pinned-0", 0), ("pinned-64", 64), ("pinned-1e9", 10**9)
        ):
            params = replace(config.search, brute_force_threshold=threshold)
            out[name] = _queries(index, queries, params=params)
        for tau in (0.2, 1.0):
            out[f"tau-{tau}"] = _queries(index, queries, tau=tau)
        out["batch"] = _batch(index, queries)

        cold = replace(
            config,
            cold_codes=True,
            search=replace(config.search, cold_adc_threshold=700),
        )
        for name, prefetch in (("tiered", True), ("tiered-no-prefetch", False)):
            tiered = MultiLevelBlockIndex(DIM, "euclidean", cold)
            tiered.extend(vectors, timestamps)
            tiered.enable_tiering(
                memory_budget_mb=1e-4,
                directory=Path(tmp) / name,
                prefetch_selected=prefetch,
            )
            out[name] = _queries(tiered, queries)

        deferred = MultiLevelBlockIndex(DIM, "euclidean", config)
        chains = []
        for vector, t in zip(vectors, timestamps):
            chains.append(deferred.insert_deferred(vector, float(t))[1])
        for chain in chains[: N // 2]:  # the older half is built
            deferred.build_blocks(chain)
        out["deferred"] = _queries(deferred, queries) + _queries(
            deferred, queries, params=replace(config.search, brute_force_threshold=0)
        )
    return out


@pytest.fixture(scope="module")
def current():
    return records()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "case",
    [
        "planner", "pinned-0", "pinned-64", "pinned-1e9", "tau-0.2",
        "tau-1.0", "batch", "tiered", "tiered-no-prefetch", "deferred",
    ],
)
def test_pipeline_reproduces_the_golden_records(current, golden, case):
    assert len(current[case]) == len(golden[case])
    for i, (got, want) in enumerate(zip(current[case], golden[case])):
        assert got == want, (case, i)


def test_golden_cases_walk_scan_and_answer_from_codes(golden):
    """The fixture exercises every strategy, or its parity would be vacuous."""
    strategies = {
        (case, event[0])
        for case, rows in golden.items()
        if case != "batch"
        for row in rows
        for event in row["explain"]["blocks"]
    }
    assert {("planner", "graph"), ("planner", "brute"), ("tiered", "adc")} <= strategies
    reasons = {
        event[3]
        for row in golden["deferred"]
        for event in row["explain"]["blocks"]
        if event[0] == "brute" and not event[4]
    }
    assert "open-leaf" in reasons
    tiers = {
        event[5]
        for row in golden["tiered-no-prefetch"]
        for event in row["explain"]["blocks"]
    }
    assert {"cold", "promoted"} <= tiers


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(records(), separators=(",", ":")) + "\n")
