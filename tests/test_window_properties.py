"""Property tests for TimeWindow and window resolution edge cases.

ISSUE 6 satellite: half-open ``[ts, te)`` semantics under the awkward
inputs — empty windows (``ts == te``), reversed bounds, ``±inf`` bounds,
and duplicate timestamps sitting exactly on a window boundary — checked
at both layers that interpret windows: :meth:`VectorStore.resolve_window`
(the paper's ``BinarySearch``) and :meth:`MultiLevelBlockIndex.search`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import (
    GraphConfig,
    MBIConfig,
    MultiLevelBlockIndex,
    SearchParams,
    TimeWindow,
    VectorStore,
)
from repro.baselines import exact_tknn
from repro.distances.metrics import resolve_metric
from repro.exceptions import InvalidQueryError

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

DIM = 4


def _duplicate_heavy(n: int, seed: int) -> VectorStore:
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, DIM)).astype(np.float32)
    # Integer timestamps drawn from a range ~n/3 wide: every value repeats.
    timestamps = np.sort(
        rng.integers(0, max(1, n // 3), n).astype(np.float64)
    )
    store = VectorStore(DIM)
    store.extend(vectors, timestamps)
    return store


@st.composite
def duplicate_heavy_store(draw, max_n=80):
    """A store whose timestamps are small sorted integers — dense ties."""
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 2**16))
    return _duplicate_heavy(n, seed)


@st.composite
def window_bounds(draw):
    """Window bounds hitting boundaries, gaps, and infinities."""
    kind = draw(st.sampled_from(["finite", "half", "empty", "all", "none"]))
    a = draw(st.floats(-5, 40, allow_nan=False))
    b = draw(st.floats(-5, 40, allow_nan=False))
    lo, hi = min(a, b), max(a, b)
    if kind == "finite":
        return lo, hi
    if kind == "half":
        return (lo, math.inf) if draw(st.booleans()) else (-math.inf, hi)
    if kind == "empty":
        return lo, lo
    if kind == "all":
        return -math.inf, math.inf
    return (math.inf, math.inf) if draw(st.booleans()) else (-math.inf, -math.inf)


class TestTimeWindow:
    def test_reversed_bounds_raise(self):
        with pytest.raises(InvalidQueryError):
            TimeWindow(2.0, 1.0)
        with pytest.raises(InvalidQueryError):
            TimeWindow(math.inf, -math.inf)

    def test_nan_bounds_raise(self):
        with pytest.raises(InvalidQueryError):
            TimeWindow(math.nan, 1.0)
        with pytest.raises(InvalidQueryError):
            TimeWindow(0.0, math.nan)

    def test_empty_window_contains_nothing(self):
        window = TimeWindow(3.0, 3.0)
        assert window.span == 0.0
        assert not window.contains(3.0)  # half-open: [3, 3) is empty

    def test_infinite_windows(self):
        assert TimeWindow.all_time().contains(0.0)
        assert TimeWindow.all_time().contains(-1e300)
        assert not TimeWindow(math.inf, math.inf).contains(math.inf)
        assert not TimeWindow(-math.inf, -math.inf).contains(-1e300)

    @SETTINGS
    @given(window_bounds(), st.floats(-5, 40, allow_nan=False))
    def test_contains_is_the_half_open_predicate(self, bounds, t):
        window = TimeWindow(*bounds)
        assert window.contains(t) == (bounds[0] <= t < bounds[1])


class TestResolveWindow:
    @SETTINGS
    @given(duplicate_heavy_store(), window_bounds())
    def test_resolution_matches_the_naive_mask(self, store, bounds):
        """resolve_window == the brute-force timestamp filter, always."""
        positions = store.resolve_window(TimeWindow(*bounds))
        mask = (store.timestamps >= bounds[0]) & (store.timestamps < bounds[1])
        expected = np.flatnonzero(mask)
        assert list(positions) == list(expected)

    @SETTINGS
    @given(duplicate_heavy_store())
    def test_duplicate_run_boundaries(self, store):
        """A window starting at a tied timestamp takes the whole run;
        one ending there excludes the whole run."""
        t = float(store.timestamps[len(store) // 2])
        run = np.flatnonzero(store.timestamps == t)
        starting = store.resolve_window(TimeWindow(t, math.inf))
        assert starting.start == run[0]
        ending = store.resolve_window(TimeWindow(-math.inf, t))
        assert ending.stop == run[0]

    @SETTINGS
    @given(duplicate_heavy_store())
    def test_empty_and_unbounded_windows(self, store):
        t = float(store.timestamps[0])
        assert len(store.resolve_window(TimeWindow(t, t))) == 0
        assert store.resolve_window(TimeWindow.all_time()) == range(
            0, len(store)
        )
        assert len(
            store.resolve_window(TimeWindow(math.inf, math.inf))
        ) == 0

    def test_window_of_round_trips_without_ties(self):
        store = VectorStore(DIM)
        rng = np.random.default_rng(5)
        store.extend(
            rng.standard_normal((20, DIM)).astype(np.float32),
            np.arange(20, dtype=np.float64),  # strictly increasing
        )
        for positions in (range(0, 5), range(3, 11), range(11, 20)):
            window = store.window_of(positions)
            assert store.resolve_window(window) == positions
        # The final block's window stays open-ended.
        assert store.window_of(range(11, 20)).end == math.inf

    def test_window_of_empty_range_raises(self):
        store = VectorStore(DIM)
        store.append(np.zeros(DIM, dtype=np.float32), 0.0)
        with pytest.raises(ValueError):
            store.window_of(range(3, 3))


def _exact_mbi(store: VectorStore) -> MultiLevelBlockIndex:
    config = MBIConfig(
        leaf_size=8,
        tau=0.5,
        graph=GraphConfig(n_neighbors=4, exact_threshold=10_000),
        search=SearchParams(
            epsilon=1.2, max_candidates=64, brute_force_threshold=10**9
        ),
    )
    index = MultiLevelBlockIndex(DIM, "euclidean", config)
    index.extend(store.vectors, store.timestamps)
    return index


class TestMBISearchWindows:
    @SETTINGS
    @given(
        duplicate_heavy_store(max_n=60),
        window_bounds(),
        st.integers(0, 2**16),
        st.integers(1, 8),
    )
    # The store's first row is the query rounded to float32: a
    # near-duplicate whose distance the store-wide scan and the window's
    # slice scan once computed differently (4.21e-8 against 5.96e-8).
    @example(_duplicate_heavy(25, 25807), (0.0, 1.0), 25807, 1)
    def test_search_respects_the_window_exactly(self, store, bounds, query_seed, k):
        """Exact-config MBI.search == exact_tknn on every edge-case window."""
        index = _exact_mbi(store)
        metric = resolve_metric("euclidean")
        query = np.random.default_rng(query_seed).standard_normal(DIM)
        got = index.search(query, k, *bounds, rng=np.random.default_rng(1))
        want = exact_tknn(store, metric, query, k, *bounds)
        np.testing.assert_array_equal(got.positions, want.positions)
        np.testing.assert_array_equal(got.distances, want.distances)
        in_window = [
            p
            for p in range(len(store))
            if bounds[0] <= float(store.timestamps[p]) < bounds[1]
        ]
        assert len(got) == min(k, len(in_window))

    def test_empty_window_returns_empty_not_error(self):
        store = VectorStore(DIM)
        rng = np.random.default_rng(0)
        store.extend(
            rng.standard_normal((30, DIM)).astype(np.float32),
            np.repeat(np.arange(10.0), 3),
        )
        index = _exact_mbi(store)
        result = index.search(rng.standard_normal(DIM), 5, 3.0, 3.0)
        assert len(result) == 0

    def test_reversed_window_raises_invalid_query(self):
        store = VectorStore(DIM)
        rng = np.random.default_rng(0)
        store.extend(
            rng.standard_normal((10, DIM)).astype(np.float32),
            np.arange(10, dtype=np.float64),
        )
        index = _exact_mbi(store)
        with pytest.raises(InvalidQueryError):
            index.search(rng.standard_normal(DIM), 3, 5.0, 2.0)
