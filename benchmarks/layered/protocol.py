"""The measurement protocol every workload shares.

Timed phases are cut into equal segments; a timing metric is the median
over segments and carries the across-segment coefficient of variation, so one
stall moves the noise figure and not the metric.  A 1-in-``SAMPLE_EVERY``
sample of answers is kept and re-answered by ``ExactOracle`` after the timed
loop.

Times and rates are reported at the reference host's speed
(:class:`HostSpeed`): the reference VM runs everything a tenth to a third
slower for minutes at a time, which no statistic inside one run can see.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

K = 10
DIM = 64
LEAF_SIZE = 500
SEGMENTS = 6
SAMPLE_EVERY = 20
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Rounds per second of :class:`HostSpeed` on the 2-core reference host when
# nothing disturbs it.  Frozen: it only fixes the scale, so that a
# reported value is the wall-clock value on that host on a quiet day.
REFERENCE_RATE = 2_750.0
BURST = 0.2  # seconds per :meth:`HostSpeed.sample`
PROBE_SHARE = 0.1  # of a closed loop's time goes to :meth:`HostSpeed.round`


def metric(value: float, unit: str, **noise: float) -> dict:
    """One reported number; ``noise`` keys (cv, samples) ride along."""
    return {"value": float(value), "unit": unit, **noise}


def cv(values: Sequence[float]) -> float:
    """Coefficient of variation (population), 0 for a flat or empty series."""
    if len(values) < 2:
        return 0.0
    mean = statistics.fmean(values)
    return statistics.pstdev(values) / mean if mean else 0.0


def peak_rss_mb() -> float:
    """High-water resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resident_mb() -> float:
    """Resident set now, MiB, with garbage collected and the allocator's free
    pages handed back: what the live objects occupy.  (Untrimmed, two runs of
    one seed differ by half: whether ``free`` returns a build's temporaries
    to the system depends on where the heap happens to end.)
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: report untrimmed
        pass
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class HostSpeed:
    """How fast the host ran while something was being timed, against the
    reference host.

    :meth:`round` does a fixed piece of work, a third of a millisecond: half
    interpreter arithmetic, half small NumPy calls gathering rows of a 2 MB
    array, the mix a query is made of.  A quarter as much again runs first,
    off the clock: straight after a query the caches are cold, and a round
    would read a sixth slower than after another round.  A closed loop slips rounds in between its queries until they
    have had ``PROBE_SHARE`` of the time, so the rounds meet the same host as
    the queries, and :meth:`flush` turns each segment's rounds into one
    rate.  Where nothing can be slipped in (a set-up, a service with sixteen
    queries in flight), :meth:`sample` does ``BURST`` seconds of rounds
    before and after, and :meth:`paired` gives each stretch the mean of the
    two.  A factor is a rate over ``REFERENCE_RATE``.  A segment's (or a
    set-up's) time is multiplied by its factor and its rate divided by it
    before the median over segments is taken, so a run during a slow spell
    and one during a fast spell report nearly the same number for the same
    code; the wall-clock value rides along as ``raw``.  The work lives here
    and does not call into the program, so no change to the program moves it.
    """

    def __init__(self) -> None:
        self.rates: list[float] = []
        self.spent = 0.0  # seconds inside :meth:`round`, ever
        self._rounds = 0
        self._seconds = 0.0
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((4000, DIM))
        self._query = rng.standard_normal(DIM)
        self._picks = rng.integers(0, len(self._rows), (32, 32))

    def _work(self, picks: np.ndarray) -> None:
        rows, query = self._rows, self._query
        total = 0
        for i in range(125 * len(picks)):
            total += i * i
        for pick in picks:
            near = rows[pick] @ query
            near[np.argpartition(near, K)[:K]].argsort()

    def round(self) -> float:
        """One round; returns the clock when it ended."""
        arrived = time.perf_counter()
        self._work(self._picks[:8])
        begun = time.perf_counter()
        self._work(self._picks)
        now = time.perf_counter()
        self._rounds += 1
        self._seconds += now - begun
        self.spent += now - arrived
        return now

    def flush(self) -> None:
        """The rounds since the last flush become one rate."""
        if self._rounds:
            self.rates.append(self._rounds / self._seconds)
            self._rounds, self._seconds = 0, 0.0

    def sample(self) -> None:
        end = time.perf_counter() + BURST
        while self.round() < end:
            pass
        self.flush()

    def factors(self) -> list[float]:
        """One per flush: a closed loop's segments."""
        return [rate / REFERENCE_RATE for rate in self.rates]

    def paired(self) -> list[float]:
        """One per stretch between two samples."""
        return [
            (before + after) / 2 / REFERENCE_RATE
            for before, after in zip(self.rates, self.rates[1:])
        ]


def host_block(seed: int, generator_threads: int) -> dict:
    """Where and how a result was measured (every result file carries it)."""
    from repro.eval.timing import calibrated_eval_rate

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "generator_threads": generator_threads,
        "host.calib_evals_per_s": calibrated_eval_rate("euclidean", DIM),
    }


@dataclass
class Sample:
    """One kept answer, with what the oracle needs to re-answer it.

    ``prefix`` brackets how many rows were visible when the answer was
    computed (``None`` when nothing is being ingested): an answer under
    concurrent ingest is right if it is right for some length in it.
    """

    query: np.ndarray
    t_start: float
    t_end: float
    positions: np.ndarray
    distances: np.ndarray
    exact: bool
    prefix: tuple[int, int] | None = None


@dataclass
class LoopResult:
    """What a closed loop saw: one latency per answer, cut into segments."""

    first: int = 0
    latencies: list[float] = field(default_factory=list)
    cuts: list[int] = field(default_factory=lambda: [0])
    durations: list[float] = field(default_factory=list)
    kept: list[tuple[int, object]] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.durations)

    def segments(self) -> list[np.ndarray]:
        lat = np.asarray(self.latencies)
        return [lat[a:b] for a, b in zip(self.cuts, self.cuts[1:])]


def closed_loop(
    answer: Callable[[int], object],
    seconds: float,
    segments: int = SEGMENTS,
    first: int = 0,
    probe: HostSpeed | None = None,
) -> LoopResult:
    """One caller: the next query goes out when the previous one returns.

    ``answer(i)`` runs query ``i`` of the workload's stream.  Every
    ``SAMPLE_EVERY``-th answer is kept for the oracle; none is dropped from
    the latency sample.  Segments are equal spans of the clock; a segment's
    duration is the time its queries took, without the rounds of ``probe``
    slipped in between them (one rate per segment).
    """
    out = LoopResult(first=first)
    latencies, kept = out.latencies, out.kept
    clock = time.perf_counter
    span = seconds / segments
    i = first
    begun = clock()
    spent = probe.spent if probe is not None else 0.0
    for _ in range(segments):
        now = clock()
        seg_end = now + span
        busy = 0.0
        while now < seg_end:
            result = answer(i)
            done = clock()
            latencies.append(done - now)
            busy += done - now
            now = done
            if i % SAMPLE_EVERY == 0:
                kept.append((i, result))
            i += 1
            if probe is not None and probe.spent - spent < PROBE_SHARE * (now - begun):
                now = probe.round()
        out.durations.append(busy)
        out.cuts.append(len(latencies))
        if probe is not None:
            probe.flush()
    return out


def timing_metrics(
    segments: list[np.ndarray], durations: list[float], good_share: float,
    speeds: list[float],
) -> dict[str, dict]:
    """``query_qps`` and ``query_p50_ms`` from segments.

    ``good_share`` scales throughput to *correct* answers per second and
    ``speeds`` (one :class:`HostSpeed` factor per segment) both to the
    reference host.
    """
    qps = [len(seg) / dur * good_share for seg, dur in zip(segments, durations)]
    p50 = [float(np.percentile(seg, 50)) * 1e3 for seg in segments]
    scaled_qps = [value / speed for value, speed in zip(qps, speeds)]
    scaled_p50 = [value * speed for value, speed in zip(p50, speeds)]
    per_segment = int(statistics.median(len(seg) for seg in segments))
    median = statistics.median
    return {
        "query_qps": metric(
            median(scaled_qps), "1/s", raw=median(qps), cv=cv(scaled_qps)
        ),
        "query_p50_ms": metric(
            median(scaled_p50), "ms", raw=median(p50), cv=cv(scaled_p50),
            samples=per_segment,
        ),
    }


def verify(oracle, samples: list[Sample], floor: float) -> tuple[float, int]:
    """Re-answer ``samples`` exactly; returns ``(mean recall, failed)``.

    Where the answer came from exact scans only, it must *be* the oracle's
    answer: the same positions in the same order (or, when two rows tie to
    float32 rounding, the same distances).  Otherwise it counts toward mean
    recall, and a mean below ``floor`` fails every approximate sample.
    """
    from repro.eval.recall import recall_at_k

    recalls: list[float] = []
    failed = 0
    approximate = 0
    for sample in samples:
        best = -1.0
        identical = False
        if sample.prefix is None:
            ends = [sample.t_end]
        else:
            # Rows [0, visible) are exactly those stamped before row
            # ``visible``: timestamps are sorted and the window is half-open.
            stamps = oracle.store.timestamps
            ends = [
                max(sample.t_start, min(sample.t_end, float(stamps[visible])))
                if visible < len(stamps) else sample.t_end
                for visible in range(sample.prefix[0], sample.prefix[1] + 1)
            ]
        for t_end in ends:
            truth = oracle.search(sample.query, K, sample.t_start, t_end)
            if np.array_equal(truth.positions, sample.positions) or (
                len(truth.positions) == len(sample.positions)
                and np.allclose(truth.distances, sample.distances, rtol=1e-5, atol=0)
            ):
                identical = True
                best = 1.0
                break
            best = max(best, recall_at_k(sample.positions, truth.positions))
        recalls.append(best)
        if sample.exact and not identical:
            failed += 1
        elif not sample.exact:
            approximate += 1
    mean = statistics.fmean(recalls) if recalls else math.nan
    if recalls and mean < floor:
        failed += approximate
    return mean, failed
