"""The discrete-event simulation kernel.

A :class:`Simulator` owns a simulated clock and an event queue. Components
schedule callbacks at future simulated times; :meth:`Simulator.run` pops
events in time order, advancing the clock instantaneously between them.
There is no wall-clock anywhere in the library: simulated seconds are the
only notion of time, which is what makes throughput/latency experiments
reproducible and hardware-independent (see DESIGN.md, substitution rule).

The queue is the binary heap of ``events.py``: :meth:`Simulator.run` pops
one ``(time, seq)``-ordered entry per event, so a callback that peeks the
queue mid-run sees the exact global frontier.
"""

from __future__ import annotations

import sys
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable

from ..errors import SimulationError
from .events import Event, EventQueue
from .rng import RandomStreams

__all__ = ["Simulator", "observe_simulators"]

_INF = float("inf")

# Observers notified whenever a Simulator is constructed. The observability
# layer (``repro.obs``) uses this to attach probes/profilers to simulators
# it never gets a direct reference to (e.g. those built inside benchmark
# runners). Empty by default, so normal runs pay nothing.
_simulator_observers: list["_Registration"] = []


class _Registration:
    """One observer registration; a unique token per ``observe_*`` call.

    Registries store these instead of raw callbacks so that removal can
    key on the *registration* (identity semantics — no ``__eq__``), not
    the callback value: registering the same callback twice yields two
    independent removers, and each remover is idempotent.
    """

    __slots__ = ("callback",)

    def __init__(self, callback: Callable[..., None]) -> None:
        self.callback = callback


def _register_observer(
    registry: list[_Registration], callback: Callable[..., None]
) -> Callable[[], None]:
    """Append ``callback`` to ``registry``; return its idempotent remover."""
    registration = _Registration(callback)
    registry.append(registration)

    def remove() -> None:
        try:
            registry.remove(registration)  # identity match on the token
        except ValueError:
            pass  # already removed: removers are idempotent

    return remove


def observe_simulators(callback: Callable[["Simulator"], None]) -> Callable[[], None]:
    """Call ``callback(sim)`` for every Simulator created from now on.

    Returns a zero-argument remover that uninstalls this registration
    (and only this one: double-registering the same callback yields two
    independent removers, each safe to call more than once).
    """
    return _register_observer(_simulator_observers, callback)


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all named random streams (see :class:`RandomStreams`).

    Example
    -------
    >>> sim = Simulator(seed=7)
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run(until=2.0)
    >>> (sim.now, fired)
    (2.0, ['hello'])
    """

    # Fixed layout: `self.now` / the heap alias / `self._probe` are read
    # on every simulated event, and slot access is measurably cheaper than
    # a dict lookup at that frequency.
    __slots__ = (
        "now", "random", "_queue", "_heap", "_seq", "_events_executed",
        "_running", "_run_until", "_probe",
    )

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.random = RandomStreams(seed)
        self._queue = EventQueue()
        # Aliases of the queue's heap and seq counter (never rebound), so
        # post/post_at skip a pointer hop on the hottest scheduling path.
        self._heap = self._queue._heap
        self._seq = self._queue._seq
        self._events_executed = 0
        self._running = False
        self._run_until: float | None = None  # active run(until=...) bound
        self._probe = None  # ProbeBus | None; None keeps the hot path bare
        if _simulator_observers:
            for registration in list(_simulator_observers):
                registration.callback(self)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def probe(self):
        """The attached :class:`~repro.obs.ProbeBus`, or None."""
        return self._probe

    def attach_probe(self, bus) -> None:
        """Publish kernel events (``sim.event``) to ``bus``."""
        self._probe = bus

    def detach_probe(self) -> None:
        """Stop publishing kernel events."""
        self._probe = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` simulated seconds from now.

        Returns the cancellable :class:`Event` handle. Use this (or
        :meth:`at`) for timers that may be cancelled; use :meth:`post` /
        :meth:`post_at` for fire-and-forget callbacks on hot paths.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        return self._queue.push(self.now + delay, fn, args)

    def at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock is already at t={self.now!r}"
            )
        return self._queue.push(time, fn, args)

    def post(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Fast path: run ``fn(*args)`` after ``delay``; not cancellable.

        Identical ordering semantics to :meth:`schedule` (same time/seq
        keys), but no :class:`Event` is allocated and nothing is returned.
        The simulated substrate's hot paths (message legs, queue
        completions) all schedule through here; roughly 95% of events in a
        protocol run are never cancelled and never need the handle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        _heappush(self._heap, (self.now + delay, next(self._seq), fn, args, None))

    def post_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Fast path: run ``fn(*args)`` at absolute ``time``; not cancellable."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock is already at t={self.now!r}"
            )
        _heappush(self._heap, (time, next(self._seq), fn, args, None))

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event. Returns False when the queue is empty."""
        entry = self._queue.pop_entry()
        if entry is None:
            return False
        time = entry[0]
        if time < self.now:
            raise SimulationError("event queue produced an event in the past")
        self.now = time
        self._events_executed += 1
        if self._probe is not None and self._probe.wants("sim.event"):
            fn = entry[2]
            self._probe.emit(
                "sim.event",
                time,
                getattr(fn, "__qualname__", None) or repr(fn),
                seq=entry[1],
            )
        entry[2](*entry[3])
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue empties, ``until`` passes, or the budget.

        When ``until`` is given the clock is advanced exactly to ``until``
        on return whenever no runnable event at or before ``until``
        remains (even if the last event fired earlier, and even if an
        event budget ran out at the same moment the window drained), so
        back-to-back ``run(until=...)`` calls partition simulated time
        cleanly. When a ``max_events`` budget stops the run while events
        at or before ``until`` are still pending, the clock stays at the
        last executed event.

        Semantics are identical to calling :meth:`step` in a loop; the
        loop is inlined because it is the simulator's hottest code.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._run_until = until
        heap = self._heap
        queue = self._queue
        # An absent bound becomes one that never trips, so the loop body
        # carries two plain comparisons. No past-time check: every insert
        # path (schedule/at/post/post_at) already rejects times behind the
        # clock.
        limit = until if until is not None else _INF
        budget = max_events if max_events is not None else sys.maxsize
        executed = 0
        try:
            while heap:
                entry = _heappop(heap)
                time, seq, fn, args, event = entry
                if time > limit or executed >= budget:
                    # Put it back (same key, so the order is unchanged):
                    # the window or the budget is spent.
                    _heappush(heap, entry)
                    break
                if event is not None:
                    if event.cancelled:
                        queue._cancelled -= 1
                        continue
                    event.consumed = True
                self.now = time
                executed += 1
                probe = self._probe
                if probe is not None and probe.wants("sim.event"):
                    probe.emit(
                        "sim.event",
                        time,
                        getattr(fn, "__qualname__", None) or repr(fn),
                        seq=seq,
                    )
                # Empty-args callbacks (timer pokes) take the plain CALL
                # path, not CALL_FUNCTION_EX.
                if args:
                    fn(*args)
                else:
                    fn()
            if until is not None and until > self.now:
                # Advance the clock to the end of the window iff no
                # runnable event at or before `until` remains, whichever
                # bound stopped the loop.
                next_time = queue.peek_time()
                if next_time is None or next_time > until:
                    self.now = until
        finally:
            self._events_executed += executed
            self._running = False
            self._run_until = None

    @property
    def events_executed(self) -> int:
        """Total number of events executed since construction."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events currently queued.

        Every queued callback counts once, resource completions included:
        a server with five jobs in flight holds five pending events.
        """
        return len(self._queue)
