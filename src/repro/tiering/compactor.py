"""Background compaction: demotion sweeps + cold-file merging.

The :class:`Compactor` is the tier's janitor.  One :meth:`~Compactor.run_once`
pass does three things, in order:

1. **Demotion sweep** — every built, unpinned block wholly *before* the
   hot window (see :meth:`~repro.tiering.manager.TierManager.hot_window_start`)
   is demoted to the cold tier (each cold copy is written under the
   tier's read lock; only the final backend detach takes the write
   lock), then
2. **Budget enforcement** — if resident bytes still exceed the budget,
   LRU eviction demotes further blocks, and
3. **Merge sweep** — cold blocks are retargeted at their topmost cold
   ancestor's vector file and orphaned vector files are deleted (the
   paper's multi-level merge rule applied to the cold tier).

:class:`~repro.service.service.IndexService` runs a pass after every
checkpoint (demotion-on-checkpoint); :meth:`~Compactor.start` also
offers a timed background loop for library users.  Either way the tier
manager's RWLock makes the compactor a single writer racing only with
promotions, and every step is crash-safe: the chaos harness kills passes
at the ``tier.demote_write`` and ``tier.compact_rename`` failpoints and
asserts recovered answers stay bit-identical.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exceptions import PersistenceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .manager import TierManager


@dataclass(frozen=True)
class CompactionReport:
    """What one :meth:`Compactor.run_once` pass did.

    Attributes:
        demoted: Blocks moved to the cold tier (sweep + budget).
        retargeted: Cold blocks repointed at an ancestor's vector file.
        errors: Per-block failures absorbed (block stays hot / untouched).
    """

    demoted: int
    retargeted: int
    errors: int


class Compactor:
    """Demotes out-of-window blocks and merges cold files for one tier.

    Args:
        manager: The tier manager to compact.
    """

    def __init__(self, manager: "TierManager") -> None:
        self._manager = manager
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._run_lock = threading.Lock()

    def sweep_candidates(self) -> list:
        """Built blocks wholly before the hot window (demotion targets)."""
        start = self._manager.hot_window_start()
        return [
            block
            for block in list(self._manager._index._blocks.values())
            if block.backend is not None and block.positions.stop <= start
        ]

    def run_once(self) -> CompactionReport:
        """One full pass: demote out-of-window, enforce budget, merge.

        Passes are serialised with an internal lock, so the timed loop
        and an explicit checkpoint-driven call never interleave.
        """
        with self._run_lock:
            errors = 0
            demoted = 0
            for block in self.sweep_candidates():
                try:
                    demoted += 1 if self._manager.demote(block) else 0
                except PersistenceError:
                    errors += 1
            demoted += self._manager.enforce_budget()
            retargeted = self._manager.compact_cold_files()
            return CompactionReport(
                demoted=demoted, retargeted=retargeted, errors=errors
            )

    # --------------------------------------------------------- timed loop

    def start(self, interval: float = 1.0) -> None:
        """Run :meth:`run_once` every ``interval`` seconds on a daemon thread."""
        if self._thread is not None:
            return
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(interval):
                try:
                    self.run_once()
                except Exception:  # pragma: no cover - belt and braces
                    # A background sweep must never take the process down;
                    # per-block errors are already absorbed above, this
                    # catches only unexpected failures.
                    pass

        self._thread = threading.Thread(
            target=_loop, name="repro-compactor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the timed loop (no-op when never started)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=timeout)
        self._thread = None
