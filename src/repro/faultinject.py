"""Deterministic fault-injection failpoints.

A *failpoint* is a named hook compiled into a hot correctness path::

    from ..faultinject import failpoint

    def _flush(self):
        ...
        act = failpoint("wal.fsync")      # no-op unless armed
        if act is None or act.kind != "drop":
            os.fsync(self._handle.fileno())

Disarmed (the production state) a failpoint is one module-global truth
test — no locks, no dict lookups, no allocation — so the hooks can live on
the WAL fsync path, the lock acquire path, and the query path without
measurable overhead.

Armed, a failpoint fires an :class:`Action` on a deterministic *schedule*
of hits: skip the first ``skip`` hits, fire on the next ``times`` hits,
then fall dormant again.  Same arming + same operation sequence ⇒ same
faults, which is what makes every chaos scenario reproducible from its
seed alone (see :mod:`repro.chaos`).

Action kinds
------------

=============  ==============================================================
kind           behaviour
=============  ==============================================================
``raise``      raise an exception from inside :func:`failpoint`
               (``arg``: ``"io"`` → :class:`OSError`, ``"runtime"`` →
               :class:`RuntimeError`, ``"service"`` →
               :class:`~repro.exceptions.ServiceError`)
``delay``      sleep ``arg`` seconds, then continue
``yield``      release the GIL (``time.sleep(arg or 0)``) — a preemption
               point for interleaving tests
``crash``      ``os._exit(137)`` — a hard, unflushed process death
               (subprocess tests only)
``truncate``   *site-interpreted*: returned to the caller, which performs a
               torn write of ``arg`` fewer bytes and raises
``drop``       *site-interpreted*: returned to the caller, which silently
               skips the guarded side effect (e.g. an fsync)
=============  ==============================================================

``raise``/``delay``/``yield``/``crash`` are handled inside
:func:`failpoint`, so instrumented sites get them for free; ``truncate``
and ``drop`` are returned to the site because only it knows what a torn or
dropped side effect means there.

Arming
------

Programmatic (in-process tests)::

    from repro.faultinject import get_failpoints

    fp = get_failpoints()
    with fp.scope({"wal.fsync": "raise:io", "wal.append": "5+truncate:9"}):
        ...   # the 6th append tears 9 bytes off its record and raises

Environment (subprocess / ``kill -9``-style tests): set
``REPRO_FAILPOINTS`` before the interpreter starts; it is parsed and armed
when this module is first imported::

    REPRO_FAILPOINTS="wal.append=12+crash" python ingest_forever.py

Spec grammar (one or more ``;``-separated entries)::

    spec    := point "=" action
    action  := [skip "+"] kind [":" arg] ["*" times]
    point   := dotted lowercase name, e.g. wal.fsync

``skip`` defaults to 0, ``times`` to 1; ``times`` of ``-1`` (or ``inf``)
never expires.  Examples: ``wal.fsync=drop*-1``, ``lock.acquire_write=
yield:0.001*-1``, ``snapshot.rename=raise:io``.

Observability: per-point hit/fire counts are exported to the process
:class:`~repro.observability.metrics.MetricsRegistry` as
``failpoint_hits_total`` / ``failpoint_fires_total`` (and a per-point
``failpoint_<point>_fires_total``), and :meth:`Failpoints.fires` gives
tests a sleep-free synchronization primitive ("wait until the 3rd fsync
fault fired").
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

from .exceptions import ReproError, ServiceError
from .observability.metrics import get_registry

ENV_VAR = "REPRO_FAILPOINTS"

#: Action kinds handled inside :func:`failpoint` itself.
_GENERIC_KINDS = ("raise", "delay", "yield", "crash")
#: Action kinds returned to the instrumented site for interpretation.
_SITE_KINDS = ("truncate", "drop")
KINDS = _GENERIC_KINDS + _SITE_KINDS

#: Exception classes selectable by ``raise:<arg>``.
RAISE_KINDS: dict[str, type[Exception]] = {
    "io": OSError,
    "runtime": RuntimeError,
    "service": ServiceError,
}

_METRICS = get_registry()
_HITS = _METRICS.counter(
    "failpoint_hits_total", "Hits on armed failpoints (fired or not)"
)
_FIRES = _METRICS.counter(
    "failpoint_fires_total", "Failpoint actions actually fired"
)


class FailpointError(ReproError):
    """Invalid failpoint name, action spec, or arming request."""


@dataclass(frozen=True)
class Action:
    """One armed behaviour of a failpoint.

    Attributes:
        kind: One of :data:`KINDS`.
        arg: Kind-specific argument (exception selector, byte count,
            seconds); ``None`` uses the kind's default.
        skip: Hits to let pass unharmed before the first fire.
        times: Fires before the action expires; ``-1`` never expires.
    """

    kind: str
    arg: float | int | str | None = None
    skip: int = 0
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FailpointError(
                f"unknown failpoint action {self.kind!r}; expected one of "
                f"{KINDS}"
            )
        if self.skip < 0:
            raise FailpointError(f"skip must be >= 0, got {self.skip}")
        if self.times < -1 or self.times == 0:
            raise FailpointError(
                f"times must be -1 (unlimited) or >= 1, got {self.times}"
            )
        if self.kind == "raise" and self.arg is not None:
            if self.arg not in RAISE_KINDS:
                raise FailpointError(
                    f"raise arg must be one of {sorted(RAISE_KINDS)}, "
                    f"got {self.arg!r}"
                )
        if self.kind == "truncate":
            if self.arg is None or int(self.arg) < 1:
                raise FailpointError(
                    f"truncate needs a positive byte count, got {self.arg!r}"
                )

    def spec(self) -> str:
        """The parseable text form (inverse of :func:`parse_action`)."""
        text = ""
        if self.skip:
            text += f"{self.skip}+"
        text += self.kind
        if self.arg is not None:
            text += f":{self.arg}"
        if self.times != 1:
            text += f"*{self.times}"
        return text


def parse_action(text: str) -> Action:
    """Parse one ``[skip+]kind[:arg][*times]`` action spec.

    Raises:
        FailpointError: On malformed specs.
    """
    body = text.strip()
    skip = 0
    times = 1
    if "+" in body:
        head, body = body.split("+", 1)
        try:
            skip = int(head)
        except ValueError:
            raise FailpointError(
                f"bad skip count {head!r} in failpoint spec {text!r}"
            ) from None
    if "*" in body:
        body, tail = body.rsplit("*", 1)
        try:
            times = -1 if tail.strip() == "inf" else int(tail)
        except ValueError:
            raise FailpointError(
                f"bad times count {tail!r} in failpoint spec {text!r}"
            ) from None
    arg: float | int | str | None = None
    if ":" in body:
        body, raw = body.split(":", 1)
        raw = raw.strip()
        if body.strip() == "raise":
            arg = raw
        else:
            try:
                arg = int(raw)
            except ValueError:
                try:
                    arg = float(raw)
                except ValueError:
                    raise FailpointError(
                        f"bad numeric arg {raw!r} in failpoint spec {text!r}"
                    ) from None
    return Action(kind=body.strip(), arg=arg, skip=skip, times=times)


def parse_failpoints(text: str) -> dict[str, Action]:
    """Parse a ``;``-separated ``point=action`` list (the env-var format)."""
    mapping: dict[str, Action] = {}
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise FailpointError(
                f"failpoint entry {entry!r} is missing '=' (expected "
                "point=action)"
            )
        point, spec = entry.split("=", 1)
        point = point.strip()
        if not point:
            raise FailpointError(f"empty failpoint name in {entry!r}")
        mapping[point] = parse_action(spec)
    return mapping


def format_failpoints(mapping: Mapping[str, Action]) -> str:
    """Render an arming map back to the env-var format (for subprocesses)."""
    return ";".join(
        f"{point}={action.spec()}" for point, action in sorted(mapping.items())
    )


class _Armed:
    """Mutable firing state of one armed point (guarded by registry lock)."""

    __slots__ = ("action", "hits", "fires")

    def __init__(self, action: Action) -> None:
        self.action = action
        self.hits = 0
        self.fires = 0

    def should_fire(self) -> bool:
        """Count one hit; report whether the schedule says fire now."""
        self.hits += 1
        if self.hits <= self.action.skip:
            return False
        if self.action.times >= 0:
            if self.fires >= self.action.times:
                return False
        self.fires += 1
        return True


class Failpoints:
    """The process-wide failpoint registry.

    All methods are thread-safe.  Hit/fire counters are per *arming*: they
    reset when a point is re-armed, and survive :meth:`disarm` in a
    separate tally so tests can assert on fire counts after the fact.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._points: dict[str, _Armed] = {}
        self._fired: dict[str, int] = {}  # total fires, survives disarm
        self._hit: dict[str, int] = {}  # total hits, survives disarm

    # ------------------------------------------------------------------ arming

    def arm(self, name: str, action: Action | str) -> None:
        """Arm ``name`` with ``action`` (an :class:`Action` or a spec string).

        Re-arming an armed point replaces its action and resets its hit
        counter — each arming is an independent deterministic schedule.
        """
        if not name or "=" in name or ";" in name:
            raise FailpointError(f"invalid failpoint name {name!r}")
        if isinstance(action, str):
            action = parse_action(action)
        with self._lock:
            self._fold_locked(name)
            self._points[name] = _Armed(action)
            _set_active(True)

    def arm_many(self, mapping: Mapping[str, Action | str]) -> None:
        """Arm every ``point -> action`` entry of ``mapping``."""
        for name, action in mapping.items():
            self.arm(name, action)

    def disarm(self, name: str) -> None:
        """Disarm ``name`` (idempotent)."""
        with self._lock:
            self._fold_locked(name)
            self._points.pop(name, None)
            if not self._points:
                _set_active(False)

    def disarm_all(self) -> None:
        """Disarm every point (counters kept; see :meth:`reset`)."""
        with self._lock:
            for name in list(self._points):
                self._fold_locked(name)
            self._points.clear()
            _set_active(False)

    def _fold_locked(self, name: str) -> None:
        """Move a live point's counters into the cumulative tallies."""
        live = self._points.get(name)
        if live is not None:
            self._hit[name] = self._hit.get(name, 0) + live.hits
            self._fired[name] = self._fired.get(name, 0) + live.fires

    def reset(self) -> None:
        """Disarm everything and zero all cumulative counters."""
        with self._lock:
            self._points.clear()
            self._fired.clear()
            self._hit.clear()
            _set_active(False)

    def armed(self) -> dict[str, Action]:
        """The currently armed ``point -> action`` map (a copy)."""
        with self._lock:
            return {
                name: armed.action for name, armed in self._points.items()
            }

    def scope(self, mapping: Mapping[str, Action | str]):
        """Context manager: arm *exactly* ``mapping``, restore prior on exit.

        Prior arming is suspended (not stacked) for the duration, so a
        scoped chaos scenario sees only its own schedule.

        The workhorse of in-process chaos tests::

            with get_failpoints().scope({"wal.fsync": "raise:io"}):
                with pytest.raises(OSError):
                    service.ingest(vector, ts)
        """
        return _Scope(self, dict(mapping))

    # ---------------------------------------------------------------- counters

    def hits(self, name: str) -> int:
        """Cumulative hits on ``name`` while armed (survives disarm)."""
        with self._lock:
            live = self._points.get(name)
            return self._hit.get(name, 0) + (live.hits if live else 0)

    def fires(self, name: str) -> int:
        """Cumulative fires of ``name`` (survives disarm)."""
        with self._lock:
            live = self._points.get(name)
            return self._fired.get(name, 0) + (live.fires if live else 0)

    def wait_for_fires(
        self, name: str, count: int, timeout: float = 10.0
    ) -> bool:
        """Poll until ``name`` fired at least ``count`` times.

        The sleep-free-ish synchronization primitive stress tests use in
        place of hard-coded ``time.sleep`` (the poll interval is bounded
        and the exit condition exact).
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.fires(name) >= count:
                return True
            time.sleep(0.001)
        return self.fires(name) >= count

    # ------------------------------------------------------------------ firing

    def _evaluate(self, name: str) -> Action | None:
        """One hit on ``name``; the action to fire, or ``None``."""
        with self._lock:
            armed = self._points.get(name)
            if armed is None:
                return None
            if not armed.should_fire():
                return None
        _HITS.inc()
        _FIRES.inc()
        _METRICS.counter(
            f"failpoint_{name.replace('.', '_')}_fires_total",
            f"Fires of failpoint {name}",
        ).inc()
        return armed.action

    def __repr__(self) -> str:
        with self._lock:
            points = sorted(self._points)
        return f"Failpoints(armed={points})"


class _Scope:
    """Arm-on-enter / restore-on-exit helper returned by `Failpoints.scope`."""

    def __init__(self, registry: Failpoints, mapping: dict) -> None:
        self._registry = registry
        self._mapping = mapping
        self._previous: dict[str, Action] | None = None

    def __enter__(self) -> Failpoints:
        self._previous = self._registry.armed()
        self._registry.disarm_all()
        self._registry.arm_many(self._mapping)
        return self._registry

    def __exit__(self, *exc_info: object) -> None:
        self._registry.disarm_all()
        if self._previous:
            self._registry.arm_many(self._previous)

    def __iter__(self) -> Iterator[Failpoints]:  # pragma: no cover - guard
        raise TypeError("use 'with failpoints.scope(...)', not iteration")


#: Fast-path flag: ``failpoint()`` returns immediately while this is False.
#: Only :func:`_set_active` (called under the registry lock) writes it.
_ACTIVE = False

_REGISTRY = Failpoints()


def _set_active(active: bool) -> None:
    global _ACTIVE
    _ACTIVE = active


def get_failpoints() -> Failpoints:
    """The process-wide failpoint registry."""
    return _REGISTRY


def failpoint(name: str) -> Action | None:
    """The hook instrumented code calls: fire ``name`` if armed.

    Returns ``None`` in the overwhelmingly common case (disarmed, or armed
    but scheduled not to fire on this hit).  ``raise``/``delay``/``yield``/
    ``crash`` actions are executed here; ``truncate``/``drop`` are returned
    for the call site to interpret.
    """
    if not _ACTIVE:  # production fast path: one global load + truth test
        return None
    action = _REGISTRY._evaluate(name)
    if action is None:
        return None
    kind = action.kind
    if kind == "raise":
        selector = action.arg if action.arg is not None else "io"
        raise RAISE_KINDS[selector](
            f"failpoint {name!r} fired (fire #{_REGISTRY.fires(name)})"
        )
    if kind == "delay":
        time.sleep(float(action.arg) if action.arg is not None else 0.01)
        return None
    if kind == "yield":
        time.sleep(float(action.arg) if action.arg is not None else 0.0)
        return None
    if kind == "crash":
        os._exit(137)
    return action  # truncate / drop: site-interpreted


def install_from_env(environ: Mapping[str, str] | None = None) -> dict[str, Action]:
    """Arm failpoints from :data:`ENV_VAR`; returns what was armed.

    Called once at import so subprocess tests can inject faults into an
    unmodified program by exporting the variable before exec.
    """
    environ = os.environ if environ is None else environ
    text = environ.get(ENV_VAR, "")
    if not text:
        return {}
    mapping = parse_failpoints(text)
    _REGISTRY.arm_many(mapping)
    return mapping


def truncated(data: bytes, action: Action | None) -> tuple[bytes, bool]:
    """Apply a ``truncate`` action to a byte payload.

    Helper for write sites: returns ``(payload, torn)`` where ``torn``
    means the site must raise after writing the shortened payload (a torn
    write never reports success).  Non-truncate actions pass through.
    """
    if action is None or action.kind != "truncate":
        return data, False
    cut = int(action.arg)
    return data[: max(0, len(data) - cut)], True


install_from_env()


__all__ = [
    "Action",
    "ENV_VAR",
    "FailpointError",
    "Failpoints",
    "KINDS",
    "failpoint",
    "format_failpoints",
    "get_failpoints",
    "install_from_env",
    "parse_action",
    "parse_failpoints",
    "truncated",
]
