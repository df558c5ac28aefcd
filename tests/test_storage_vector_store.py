"""Unit and property tests for the append-only vector store."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    DimensionMismatchError,
    TimestampOrderError,
    VectorInputError,
)
from repro.storage import TimeWindow, VectorStore


def make_store(n=10, dim=3, t0=0.0, step=1.0):
    store = VectorStore(dim)
    rng = np.random.default_rng(0)
    for i in range(n):
        store.append(rng.standard_normal(dim), t0 + i * step)
    return store


class TestConstruction:
    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            VectorStore(0)
        with pytest.raises(ValueError):
            VectorStore(-3)

    def test_empty_store(self):
        store = VectorStore(4)
        assert len(store) == 0
        assert store.latest_timestamp == float("-inf")
        assert store.vectors.shape == (0, 4)


class TestAppend:
    def test_append_returns_positions_in_order(self):
        store = VectorStore(2)
        assert store.append(np.zeros(2), 0.0) == 0
        assert store.append(np.ones(2), 1.0) == 1
        assert len(store) == 2

    def test_append_wrong_dim_raises(self):
        store = VectorStore(3)
        with pytest.raises(DimensionMismatchError):
            store.append(np.zeros(4), 0.0)

    def test_append_out_of_order_timestamp_raises(self):
        store = VectorStore(2)
        store.append(np.zeros(2), 5.0)
        with pytest.raises(TimestampOrderError):
            store.append(np.zeros(2), 4.0)

    def test_duplicate_timestamps_allowed(self):
        store = VectorStore(2)
        store.append(np.zeros(2), 1.0)
        store.append(np.ones(2), 1.0)
        assert len(store) == 2

    def test_growth_beyond_initial_capacity(self):
        store = VectorStore(2)
        for i in range(3000):
            store.append(np.full(2, float(i)), float(i))
        assert len(store) == 3000
        vec, t = store.get(2999)
        assert t == 2999.0
        np.testing.assert_array_equal(vec, [2999.0, 2999.0])

    def test_values_stored_as_float32(self):
        store = VectorStore(2)
        store.append(np.array([1.5, -2.5], dtype=np.float64), 0.0)
        assert store.vectors.dtype == np.float32


class TestInputValidation:
    """ISSUE 2 satellite: typed rejection of malformed payloads.

    Every rejection must happen *before* any store state is touched, so
    a bad payload can never corrupt the capacity bookkeeping.
    """

    def test_append_object_dtype_rejected(self):
        store = VectorStore(2)
        with pytest.raises(VectorInputError, match="numeric"):
            store.append(np.array([object(), object()]), 0.0)
        assert len(store) == 0

    def test_append_string_dtype_rejected(self):
        store = VectorStore(2)
        with pytest.raises(VectorInputError, match="numeric"):
            store.append(np.array(["a", "b"]), 0.0)

    def test_append_complex_rejected(self):
        store = VectorStore(2)
        with pytest.raises(VectorInputError, match="complex"):
            store.append(np.array([1 + 2j, 3 + 4j]), 0.0)

    def test_append_wrong_rank_rejected(self):
        store = VectorStore(2)
        with pytest.raises(VectorInputError, match="1-d"):
            store.append(np.zeros((1, 2)), 0.0)
        # ascontiguousarray promotes 0-d scalars to shape (1,), so they
        # fall through to the dimension check instead.
        with pytest.raises(DimensionMismatchError):
            store.append(np.float32(3.0), 0.0)

    def test_append_ragged_rejected(self):
        store = VectorStore(2)
        with pytest.raises(VectorInputError):
            store.append([[1.0], [2.0, 3.0]], 0.0)

    def test_append_nan_timestamp_rejected(self):
        store = VectorStore(2)
        with pytest.raises(VectorInputError, match="NaN"):
            store.append(np.zeros(2), float("nan"))
        assert len(store) == 0
        assert store.latest_timestamp == float("-inf")

    def test_noncontiguous_input_stored_contiguously(self):
        store = VectorStore(3)
        strided = np.arange(12, dtype=np.float32).reshape(2, 6)[:, ::2]
        assert not strided[0].flags["C_CONTIGUOUS"]
        store.append(strided[0], 0.0)
        store.append(strided[1], 1.0)
        assert store.vectors.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(store.vectors[1], [6.0, 8.0, 10.0])

    def test_extend_wrong_rank_rejected(self):
        store = VectorStore(2)
        with pytest.raises(VectorInputError, match="2-d"):
            store.extend(np.zeros(2), np.zeros(1))

    def test_extend_object_dtype_rejected(self):
        store = VectorStore(2)
        with pytest.raises(VectorInputError, match="numeric"):
            store.extend(np.array([[object(), object()]]), np.zeros(1))
        assert len(store) == 0

    def test_extend_nan_timestamp_rejected(self):
        store = VectorStore(2)
        with pytest.raises(VectorInputError, match="NaN"):
            store.extend(np.zeros((2, 2)), np.array([0.0, float("nan")]))
        assert len(store) == 0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_timestamp_rejected(self, bad):
        # After an infinite timestamp no finite row could follow.
        store = VectorStore(2)
        store.append(np.zeros(2), 0.0)
        with pytest.raises(VectorInputError, match="inf"):
            store.append(np.zeros(2), bad)
        with pytest.raises(VectorInputError, match="infinite"):
            store.extend(np.zeros((2, 2)), np.array([1.0, bad]))
        assert len(store) == 1
        store.append(np.ones(2), 1.0)
        assert store.latest_timestamp == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_non_finite_vector_rejected(self, bad):
        # 1e39 overflows float32 storage to inf.
        store = VectorStore(2)
        with pytest.raises(VectorInputError, match="non-finite"):
            store.append(np.array([0.0, bad]), 0.0)
        rows = np.zeros((3, 2))
        rows[2, 1] = bad
        with pytest.raises(VectorInputError, match="non-finite"):
            store.extend(rows, np.arange(3.0))
        assert len(store) == 0

    def test_index_refuses_non_finite_input(self):
        from repro import MultiLevelBlockIndex

        index = MultiLevelBlockIndex(2)
        with pytest.raises(VectorInputError):
            index.extend(np.zeros((2, 2)), np.array([0.0, np.inf]))
        with pytest.raises(VectorInputError):
            index.insert(np.array([np.nan, 0.0]), 0.0)
        assert len(index) == 0
        index.extend(np.ones((2, 2)), np.array([0.0, 1.0]))
        assert len(index) == 2

    def test_extend_nonnumeric_timestamps_rejected(self):
        store = VectorStore(2)
        with pytest.raises(VectorInputError):
            store.extend(np.zeros((1, 2)), np.array(["soon"]))

    def test_empty_store_latest_timestamp_is_minus_inf(self):
        assert VectorStore(7).latest_timestamp == float("-inf")


class TestExtend:
    def test_extend_batch(self):
        store = VectorStore(3)
        vectors = np.arange(12, dtype=np.float32).reshape(4, 3)
        positions = store.extend(vectors, np.arange(4, dtype=np.float64))
        assert positions == range(0, 4)
        np.testing.assert_array_equal(store.vectors, vectors)

    def test_extend_empty_batch(self):
        store = make_store(3)
        assert store.extend(np.empty((0, 3)), np.empty(0)) == range(3, 3)

    def test_extend_mismatched_lengths(self):
        store = VectorStore(2)
        with pytest.raises(ValueError):
            store.extend(np.zeros((3, 2)), np.zeros(2))

    def test_extend_unsorted_batch_raises(self):
        store = VectorStore(2)
        with pytest.raises(TimestampOrderError):
            store.extend(np.zeros((2, 2)), np.array([1.0, 0.0]))

    def test_extend_before_latest_raises(self):
        store = VectorStore(2)
        store.append(np.zeros(2), 10.0)
        with pytest.raises(TimestampOrderError):
            store.extend(np.zeros((1, 2)), np.array([5.0]))


class TestAccess:
    def test_get_out_of_range(self):
        store = make_store(5)
        with pytest.raises(IndexError):
            store.get(5)
        with pytest.raises(IndexError):
            store.get(-1)

    def test_views_are_read_only(self):
        store = make_store(5)
        with pytest.raises(ValueError):
            store.vectors[0, 0] = 42.0
        with pytest.raises(ValueError):
            store.timestamps[0] = 42.0

    def test_iteration_yields_pairs_in_order(self):
        store = make_store(4)
        times = [t for _, t in store]
        assert times == [0.0, 1.0, 2.0, 3.0]

    def test_slice_view(self):
        store = make_store(10)
        view = store.slice(2, 5)
        assert view.shape == (3, 3)
        np.testing.assert_array_equal(view, store.vectors[2:5])


class TestResolveWindow:
    def test_full_window(self):
        store = make_store(10)
        assert store.resolve_window(TimeWindow.all_time()) == range(0, 10)

    def test_half_open_boundaries(self):
        store = make_store(10)  # timestamps 0..9
        window = TimeWindow(2.0, 5.0)
        assert store.resolve_window(window) == range(2, 5)

    def test_empty_window(self):
        store = make_store(10)
        assert store.resolve_window(TimeWindow(3.5, 3.9)) == range(4, 4)

    def test_window_beyond_data(self):
        store = make_store(10)
        assert store.resolve_window(TimeWindow(100.0, 200.0)) == range(10, 10)
        assert store.resolve_window(TimeWindow(-10.0, -5.0)) == range(0, 0)

    def test_ties_resolved_to_full_tie_group(self):
        store = VectorStore(1)
        for t in [0.0, 1.0, 1.0, 1.0, 2.0]:
            store.append(np.zeros(1), t)
        assert store.resolve_window(TimeWindow(1.0, 2.0)) == range(1, 4)

    @given(
        st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=50),
        st.floats(0, 1000, allow_nan=False),
        st.floats(0, 1000, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_resolution_matches_scan(self, times, a, b):
        times = sorted(times)
        store = VectorStore(1)
        for t in times:
            store.append(np.zeros(1), t)
        lo, hi = min(a, b), max(a, b)
        positions = store.resolve_window(TimeWindow(lo, hi))
        expected = [i for i, t in enumerate(times) if lo <= t < hi]
        assert list(positions) == expected


class TestWindowOf:
    def test_interior_range_is_tight(self):
        store = make_store(10)
        window = store.window_of(range(2, 5))
        assert window == TimeWindow(2.0, 5.0)

    def test_final_range_is_open_ended(self):
        store = make_store(10)
        window = store.window_of(range(8, 10))
        assert window.start == 8.0
        assert window.end == float("inf")

    def test_empty_range_raises(self):
        store = make_store(10)
        with pytest.raises(ValueError):
            store.window_of(range(3, 3))

    def test_consecutive_ranges_tile_the_timeline(self):
        store = make_store(12)
        w1 = store.window_of(range(0, 4))
        w2 = store.window_of(range(4, 8))
        assert w1.end == w2.start


class TestConstructors:
    def test_from_arrays_roundtrip(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((20, 4)).astype(np.float32)
        times = np.sort(rng.uniform(0, 10, 20))
        store = VectorStore.from_arrays(vectors, times)
        assert len(store) == 20
        np.testing.assert_array_equal(store.vectors, vectors)
        np.testing.assert_array_equal(store.timestamps, times)

    def test_from_pairs(self):
        pairs = [(np.array([float(i), 0.0]), float(i)) for i in range(5)]
        store = VectorStore.from_pairs(pairs, dim=2)
        assert len(store) == 5

    def test_nbytes_scales_with_size(self):
        small, large = make_store(10), make_store(100)
        assert large.nbytes() == 10 * small.nbytes()

    def test_nbytes_is_exact_not_a_formula(self):
        # The tier cache budgets against this value, so it must equal the
        # sum of .nbytes over the live array views — slack capacity from
        # the growth policy must never be charged.
        store = make_store(37)
        assert store.nbytes() == (
            store.vectors.nbytes + store.timestamps.nbytes
        )
        assert store.vectors.nbytes == 37 * store.dim * 4  # float32 rows

    def test_slice_nbytes_attributes_exact_vector_bytes(self):
        store = make_store(50)
        assert store.slice_nbytes(10, 30) == store.vectors[10:30].nbytes
        # Clamped to the live prefix, empty and inverted ranges are zero.
        assert store.slice_nbytes(40, 400) == store.vectors[40:50].nbytes
        assert store.slice_nbytes(5, 5) == 0
        assert store.slice_nbytes(30, 10) == 0
        # Whole-store attribution adds back up to the vector total.
        assert store.slice_nbytes(0, 50) == store.vectors.nbytes
