"""Append-only store of timestamped vectors, sorted by timestamp.

This is the substrate shared by every index in the library (BSBF, SF, and
MBI all sit on top of it).  Vectors are kept in one contiguous ``float32``
matrix in arrival order, which — because arrival order must follow timestamp
order — doubles as the sorted-by-time layout BSBF's binary search requires.

Positions (row indices) are the canonical vector identifiers throughout the
library: a TkNN result refers to vectors by position, and time windows are
resolved to half-open position ranges with :meth:`VectorStore.resolve_window`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from ..exceptions import (
    DimensionMismatchError,
    TimestampOrderError,
    VectorInputError,
)
from .timeline import TimeWindow

_INITIAL_CAPACITY = 1024


def _as_vector_array(
    data: np.ndarray, dtype: np.dtype, expect_ndim: int
) -> np.ndarray:
    """Convert input to a contiguous numeric array of the storage dtype.

    Raises :class:`~repro.exceptions.VectorInputError` for payloads that
    cannot be stored losslessly-enough: object/string/ragged input, complex
    values, or anything NumPy refuses to cast to the storage dtype.  The
    conversion happens *before* any store state is touched, so a rejected
    input can never corrupt the capacity bookkeeping.
    """
    try:
        array = np.asarray(data)
        if array.dtype == object or array.dtype.kind in "USV":
            raise VectorInputError(
                f"vectors must be numeric, got dtype {array.dtype}"
            )
        if array.dtype.kind == "c":
            raise VectorInputError(
                f"complex vectors are not supported (dtype {array.dtype})"
            )
        with np.errstate(over="ignore"):  # refused below as non-finite
            array = np.ascontiguousarray(array, dtype=dtype)
    except VectorInputError:
        raise
    except (TypeError, ValueError) as error:
        raise VectorInputError(
            f"could not convert input to {dtype} vectors: {error}"
        ) from None
    if array.ndim != expect_ndim:
        raise VectorInputError(
            f"expected a {expect_ndim}-d array, got shape {array.shape}"
        )
    if not np.isfinite(array).all():
        raise VectorInputError(
            "vectors contain non-finite components; every distance to such "
            "a row is NaN or infinite"
        )
    return array


def checked_batch(
    vectors: np.ndarray,
    timestamps: np.ndarray,
    dim: int,
    dtype: np.dtype | type = np.float32,
    latest: float = float("-inf"),
) -> tuple[np.ndarray, np.ndarray]:
    """A batch as a store of ``dim``-dim ``dtype`` rows would hold it, or raise.

    ``latest`` is the newest timestamp already stored: the batch must not
    start before it.  A router that splits one batch over several stores
    checks it whole here before the first store sees a row.

    Raises:
        DimensionMismatchError: If vectors have the wrong dimension.
        VectorInputError: If the payload is non-numeric, has the wrong
            rank or a non-finite component, or any timestamp is not
            finite.
        TimestampOrderError: If the batch violates time order.
        ValueError: If the vector and timestamp counts differ.
    """
    vectors = _as_vector_array(vectors, np.dtype(dtype), expect_ndim=2)
    try:
        timestamps = np.asarray(timestamps, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise VectorInputError(
            f"could not convert timestamps to float64: {error}"
        ) from None
    if timestamps.ndim != 1:
        raise VectorInputError(
            f"timestamps must be 1-d, got shape {timestamps.shape}"
        )
    if vectors.shape[1] != dim:
        raise DimensionMismatchError(dim, int(vectors.shape[1]))
    if len(vectors) != len(timestamps):
        raise ValueError(
            f"got {len(vectors)} vectors but {len(timestamps)} timestamps"
        )
    if len(vectors) == 0:
        return vectors, timestamps
    if not np.isfinite(timestamps).all():
        raise VectorInputError(
            "batch contains NaN or infinite timestamps; either would "
            "break the sorted-by-time invariant"
        )
    if np.any(np.diff(timestamps) < 0):
        raise TimestampOrderError("batch timestamps must be non-decreasing")
    if float(timestamps[0]) < latest:
        raise TimestampOrderError(
            f"batch starts at {float(timestamps[0])}, before latest stored "
            f"timestamp {latest}"
        )
    return vectors, timestamps


def _checked_timestamp(timestamp: float) -> float:
    timestamp = float(timestamp)
    if not math.isfinite(timestamp):
        raise VectorInputError(
            f"timestamp is {timestamp}; NaN compares false against every "
            "bound, and after an infinite timestamp no finite one could "
            "follow, so either would break the sorted-by-time invariant"
        )
    return timestamp


class VectorStore:
    """Growable, append-only array of timestamped vectors.

    Vectors must be appended in non-decreasing timestamp order.  Amortised
    O(1) appends are achieved by doubling the backing buffers.

    Args:
        dim: Dimensionality of every stored vector.
        dtype: Storage dtype for vector components (``float32`` matches what
            ANN systems ship and what the paper's datasets use).
    """

    def __init__(self, dim: int, dtype: np.dtype | type = np.float32) -> None:
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        self._dim = int(dim)
        self._dtype = np.dtype(dtype)
        self._vectors = np.empty((_INITIAL_CAPACITY, self._dim), dtype=self._dtype)
        self._timestamps = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._size = 0

    # ------------------------------------------------------------------ basic

    @property
    def dim(self) -> int:
        """Dimensionality of stored vectors."""
        return self._dim

    def __len__(self) -> int:
        return self._size

    @property
    def vectors(self) -> np.ndarray:
        """Read-only view of all stored vectors, shape ``(len(self), dim)``."""
        view = self._vectors[: self._size]
        view.flags.writeable = False
        return view

    @property
    def timestamps(self) -> np.ndarray:
        """Read-only view of all timestamps, non-decreasing."""
        view = self._timestamps[: self._size]
        view.flags.writeable = False
        return view

    @property
    def latest_timestamp(self) -> float:
        """Timestamp of the most recent vector; ``-inf`` when empty."""
        if self._size == 0:
            return float("-inf")
        return float(self._timestamps[self._size - 1])

    def __iter__(self) -> Iterator[tuple[np.ndarray, float]]:
        for i in range(self._size):
            yield self._vectors[i], float(self._timestamps[i])

    # ---------------------------------------------------------------- appends

    def append(self, vector: np.ndarray, timestamp: float) -> int:
        """Append one timestamped vector; returns its position.

        Raises:
            DimensionMismatchError: If the vector has the wrong dimension.
            VectorInputError: If the payload is non-numeric, has the wrong
                rank or a non-finite component, or the timestamp is not
                finite.
            TimestampOrderError: If ``timestamp`` precedes the latest one.
        """
        vector = _as_vector_array(vector, self._dtype, expect_ndim=1)
        if vector.shape[0] != self._dim:
            raise DimensionMismatchError(self._dim, int(vector.shape[0]))
        timestamp = _checked_timestamp(timestamp)
        if timestamp < self.latest_timestamp:
            raise TimestampOrderError(
                f"timestamp {timestamp} precedes latest stored timestamp "
                f"{self.latest_timestamp}; the store is append-only in time order"
            )
        self._ensure_capacity(self._size + 1)
        self._vectors[self._size] = vector
        self._timestamps[self._size] = timestamp
        self._size += 1
        return self._size - 1

    def check_batch(
        self, vectors: np.ndarray, timestamps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The batch as stored (vectors, float64 timestamps), or raise.

        Raises what :meth:`extend` raises and changes nothing, so a caller
        that appends a batch one row at a time (the index's per-row
        inserts, the service's WAL-first ingest) can refuse a bad batch as
        a whole before its first row goes in.  The rules are
        :func:`checked_batch`'s, against this store's dimension, dtype and
        latest timestamp.
        """
        return checked_batch(
            vectors, timestamps, self._dim, self._dtype, self.latest_timestamp
        )

    def extend(self, vectors: np.ndarray, timestamps: np.ndarray) -> range:
        """Append a batch of timestamped vectors; returns their position range.

        The batch itself must be sorted by timestamp and start no earlier
        than the latest stored timestamp; it is checked whole
        (:meth:`check_batch`) before any row is stored.
        """
        vectors, timestamps = self.check_batch(vectors, timestamps)
        start = self._size
        self._ensure_capacity(self._size + len(vectors))
        self._vectors[start : start + len(vectors)] = vectors
        self._timestamps[start : start + len(vectors)] = timestamps
        self._size += len(vectors)
        return range(start, self._size)

    def _ensure_capacity(self, needed: int) -> None:
        capacity = len(self._timestamps)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        new_vectors = np.empty((capacity, self._dim), dtype=self._dtype)
        new_vectors[: self._size] = self._vectors[: self._size]
        self._vectors = new_vectors
        new_timestamps = np.empty(capacity, dtype=np.float64)
        new_timestamps[: self._size] = self._timestamps[: self._size]
        self._timestamps = new_timestamps

    # ---------------------------------------------------------------- queries

    def get(self, position: int) -> tuple[np.ndarray, float]:
        """The ``(vector, timestamp)`` pair at ``position``."""
        if not 0 <= position < self._size:
            raise IndexError(f"position {position} out of range [0, {self._size})")
        return self._vectors[position].copy(), float(self._timestamps[position])

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Read-only view of vectors at positions ``[start, stop)``."""
        view = self._vectors[start:stop]
        view.flags.writeable = False
        return view

    def resolve_window(self, window: TimeWindow) -> range:
        """Resolve a time window to the half-open position range it covers.

        This is the paper's ``BinarySearch(ts, te, D)`` (Algorithm 1 line 1):
        because positions are sorted by timestamp, ``D[ts:te]`` is exactly the
        contiguous position range ``[lo, hi)`` where ``lo`` is the first
        position with ``t >= ts`` and ``hi`` the first with ``t >= te``.
        Vectors sharing a timestamp keep their arrival order, matching the
        paper's tie-breaking rule (Section 3.1).
        """
        ts = self._timestamps[: self._size]
        lo = int(ts.searchsorted(window.start, side="left"))
        hi = int(ts.searchsorted(window.end, side="left"))
        return range(lo, hi)

    def window_of(self, positions: range) -> TimeWindow:
        """The tightest half-open time window containing a position range.

        The upper bound is the timestamp of the first vector *after* the
        range when one exists (so consecutive ranges produce contiguous
        windows), and ``+inf`` when the range reaches the end of the store —
        the final block of an index stays open-ended until newer data arrives.
        """
        if positions.start >= positions.stop:
            raise ValueError("cannot compute the window of an empty position range")
        start = float(self._timestamps[positions.start])
        if positions.stop < self._size:
            end = float(self._timestamps[positions.stop])
        else:
            end = float("inf")
        return TimeWindow(start, end)

    def nbytes(self) -> int:
        """Bytes used by live data (vectors + timestamps), excluding slack.

        Exact accounting: the value is the sum of ``.nbytes`` over the live
        views of the held arrays, never a formula that could drift from the
        storage layout.  The tier cache budget (:mod:`repro.tiering`) relies
        on this exactness.
        """
        return int(self.vectors.nbytes) + int(self.timestamps.nbytes)

    def slice_nbytes(self, start: int, stop: int) -> int:
        """Exact vector bytes attributable to positions ``[start, stop)``.

        Used by the tier cache to attribute shared-store vector bytes to
        individual blocks.  Clamped to the live prefix; timestamps are not
        included (they are never demoted).
        """
        lo = max(0, int(start))
        hi = min(self._size, int(stop))
        if hi <= lo:
            return 0
        return int(self._vectors[lo:hi].nbytes)

    # ------------------------------------------------------------ convenience

    @classmethod
    def from_arrays(
        cls,
        vectors: np.ndarray,
        timestamps: np.ndarray,
        dtype: np.dtype | type = np.float32,
    ) -> "VectorStore":
        """Build a store from pre-sorted arrays in one shot."""
        vectors = np.asarray(vectors)
        store = cls(vectors.shape[1], dtype=dtype)
        store.extend(vectors, timestamps)
        return store

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[np.ndarray, float]], dim: int
    ) -> "VectorStore":
        """Build a store from an iterable of ``(vector, timestamp)`` pairs."""
        store = cls(dim)
        for vector, timestamp in pairs:
            store.append(vector, timestamp)
        return store
