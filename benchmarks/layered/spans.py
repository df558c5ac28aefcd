"""Spans recorded from outside the program, at each layer's public entry point.

:meth:`Tracer.install` replaces each layer's entry point *where its caller
looks it up* (a class attribute, or the name ``repro.core.mbi`` imported)
with a timing wrapper; :meth:`Tracer.uninstall` puts the originals back.
Nothing under ``src/`` knows it is being measured.  Spans stay in memory and
are written out once, by :meth:`Tracer.dump`, when the benchmark ends.

A span is ``(id, name, start, end, parent, query_id, count)``: ``parent`` is
the id of the span that was open on the same thread when this one started
(``-1`` for a root), ``query_id`` is the id of that thread's root span, and
``count`` is the amount of work seen at the boundary (queries answered, rows
scanned, blocks selected, partial results merged, resident bytes after a tier
call).

A span opened on a thread with no span open has no parent.  Block tasks that a
``QueryExecutor`` runs on pool threads would therefore go unrecorded; no
workload configures one (``ServiceConfig.search_workers`` defaults to none),
and carrying the parent across a pool needs spans inside the program.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

FIELDS = ("id", "name", "start", "end", "parent", "query_id", "count")
# Entry points that answer queries; their ``count`` is the number answered.
QUERY_SPANS = ("mbi.search", "mbi.search_batch")


class Tracer:
    """In-memory span store shared by every wrapper of one traced phase."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # (phase, seconds waited in the admission queue, size of its batch)
        self.admission: list[tuple[str, float, int]] = []
        # Set by the load generator; stamps admission records with the phase.
        self.phase = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        root: bool = False,
        count: Callable[[tuple, object], int] | None = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        A non-root wrapper records only under an open span, so a layer
        shared with the baselines or the oracle (``resolve_window``) costs
        them one attribute lookup and records nothing.
        """
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if not stack and not root:
                return fn(*args, **kwargs)
            span_id = next(ids)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                local.query_id = span_id
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, local.query_id, 0))
                raise
            end = clock()
            stack.pop()
            work = count(args, result) if count is not None else 0
            spans.append((span_id, name, start, end, parent, local.query_id, work))
            return result

        return wrapper

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer boundary; undone by :meth:`uninstall`."""
        import repro.core.mbi as mbi
        from repro.core.backends import GraphBackend
        from repro.distances.fused import StoreNormCache
        from repro.service.admission import AdmissionQueue
        from repro.service.wal import WriteAheadLog
        from repro.storage.vector_store import VectorStore
        from repro.tiering.manager import TierManager

        def resident(args, _result):
            return args[0].cache.resident_bytes

        index = mbi.MultiLevelBlockIndex
        points = [
            (index, "search", "mbi.search", True, lambda _a, _r: 1),
            # Without an executor ``search_batch`` calls ``search`` per query
            # (those spans nest under it); with one it answers block by block.
            (index, "search_batch", "mbi.search_batch", True,
             lambda args, _r: len(args[1])),
            (index, "build_blocks", "build.build_blocks", True,
             lambda args, _r: len(args[1])),
            (VectorStore, "resolve_window", "storage.resolve_window", False, None),
            (mbi, "select_blocks", "selection.select", False,
             lambda _a, result: len(result)),
            (mbi, "brute_force_topk", "brute.scan", False,
             lambda args, _r: len(args[4])),
            # The block-by-block path scans once for the whole batch.
            (StoreNormCache, "topk_batch", "brute.scan", False,
             lambda args, _r: len(args[1]) * len(args[3])),
            (GraphBackend, "search", "graph.search", False, None),
            (mbi, "merge_partial_results", "merge.merge", False,
             lambda args, _r: len(args[0])),
            (mbi, "adc_scan", "adc.scan", False, lambda args, _r: len(args[1])),
            (mbi, "adc_scan_batch", "adc.scan", False,
             lambda args, _r: len(args[0]) * len(args[1])),
            (TierManager, "note_selection", "tiering.note_selection", False, None),
            (TierManager, "resolve", "tiering.resolve", False, resident),
            (TierManager, "resolve_compressed", "tiering.resolve_compressed",
             False, resident),
            (WriteAheadLog, "append", "wal.append", True, None),
        ]
        for owner, attr, name, root, count in points:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), root, count))

        drain = AdmissionQueue.drain
        tracer = self

        def traced_drain(queue, max_batch):
            batch = drain(queue, max_batch)
            if batch:
                now = time.monotonic()  # the clock ``enqueued_at`` uses
                phase = tracer.phase
                tracer.admission.extend(
                    (phase, now - request.enqueued_at, len(batch))
                    for request in batch
                )
            return batch

        self._patch(AdmissionQueue, "drain", traced_drain)

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: ``spans``, ``seconds``, ``count`` (summed), ``peak``.

        The extra entry ``"mbi"`` sums the query entry points
        (``QUERY_SPANS``): ``queries`` answered and ``seconds`` spent, both
        over the outermost such spans only (a ``search`` under a
        ``search_batch`` is the same query), and ``self_seconds``, each such
        span's duration minus what its direct children cover (the children of
        one span never overlap: they run one after another on its thread).
        """
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"spans": 0, "seconds": 0.0, "count": 0, "peak": 0}
        )
        name_of = {span[0]: span[1] for span in self.spans}
        mbi = {"queries": 0, "seconds": 0.0, "self_seconds": 0.0}
        for _id, name, start, end, parent, _query, work in self.spans:
            layer = out[name]
            layer["spans"] += 1
            layer["seconds"] += end - start
            layer["count"] += work
            layer["peak"] = max(layer["peak"], work)
            if name in QUERY_SPANS:
                mbi["self_seconds"] += end - start
                if parent < 0:
                    mbi["queries"] += work
                    mbi["seconds"] += end - start
            if name_of.get(parent) in QUERY_SPANS:
                mbi["self_seconds"] -= end - start
        out["mbi"] = mbi
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every span (and admission record) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": FIELDS,
                    "spans": self.spans,
                    "admission_fields": ("phase", "wait_s", "batch"),
                    "admission": self.admission,
                },
                handle,
            )
