"""Differential-oracle harness: every engine pair, randomized workloads.

Each seed replays one randomized interleaving of deferred inserts and
TkNN queries (random windows, ``k``, mixed built/unbuilt block trees)
through four configurations — the wide-beam engine, the legacy greedy
expansion order (``beam_width=1``), the brute-force-everything
configuration and the tiered compressed cold-tier index — and checks every pair against the
strongest invariant it promises (see :mod:`repro.chaos` for the full
list).  A failing seed reproduces with ``repro chaos --diff-seed <seed>``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import (
    ChaosInvariantError,
    _equivalent_up_to_ties,
    run_differential_scenario,
)
from repro.core.results import QueryResult, QueryStats


@pytest.mark.parametrize("seed", range(12))
def test_randomized_workload_agrees_across_engines(seed):
    report = run_differential_scenario(seed)
    assert report.queries_checked > 0
    assert report.inserts > 0
    # Tiny indexes with generous candidate budgets: both engines should be
    # near-exact, not merely above the harness floor.
    assert report.beam_recall >= 0.9
    assert report.greedy_recall >= 0.9


def test_reports_are_deterministic():
    assert run_differential_scenario(3) == run_differential_scenario(3)


def test_violations_embed_the_seed():
    with pytest.raises(ChaosInvariantError) as excinfo:
        # An impossible recall floor forces the failure path.
        run_differential_scenario(0, steps=24, recall_floor=1.1)
    message = str(excinfo.value)
    assert "differential seed 0" in message
    assert "repro chaos --diff-seed 0" in message


def _result(positions, distances):
    positions = np.asarray(positions, dtype=np.int64)
    distances = np.asarray(distances, dtype=np.float64)
    return QueryResult(
        positions=positions,
        distances=distances,
        timestamps=np.zeros(len(positions)),
        stats=QueryStats(),
    )


class TestTieAwareEquivalence:
    """The comparator that separates real divergence from last-ulp ties."""

    def test_identical_results_are_equivalent(self):
        a = _result([3, 1, 2], [0.1, 0.2, 0.3])
        assert _equivalent_up_to_ties(a, a)

    def test_tied_ranks_may_permute(self):
        a = _result([1, 2, 3], [0.1, 0.5, 0.5])
        b = _result([1, 3, 2], [0.1, 0.5, 0.5])
        assert _equivalent_up_to_ties(a, b)

    def test_position_swap_without_tie_is_divergence(self):
        a = _result([1, 2], [0.1, 0.2])
        b = _result([2, 1], [0.1, 0.2])
        assert not _equivalent_up_to_ties(a, b)

    def test_different_distances_are_divergence(self):
        a = _result([1, 2], [0.1, 0.2])
        b = _result([1, 2], [0.1, 0.4])
        assert not _equivalent_up_to_ties(a, b)

    def test_different_lengths_are_divergence(self):
        a = _result([1, 2], [0.1, 0.2])
        b = _result([1], [0.1])
        assert not _equivalent_up_to_ties(a, b)
