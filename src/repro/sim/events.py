"""Event primitives for the discrete-event simulation kernel.

The kernel is one binary heap (``heapq``) of ``(time, seq, fn, args,
event-or-None)`` tuples. ``seq`` is a monotonically increasing
tie-breaker, so two events scheduled for the same instant fire in the
order they were scheduled — this is what makes simulations bit-for-bit
deterministic for a given seed. ``seq`` is unique, so ordering
comparisons run as C tuple comparisons on ``(time, seq)`` and never
reach the callback.

The last slot is ``None`` on the **fast path**
(:meth:`EventQueue.push_fast`, ``Simulator.post`` / ``post_at``):
events that will never be cancelled — message arrivals, queue
completions, the ~95% case — pay one tuple and one ``heappush``, no
:class:`Event` object. Only cancellable timers go through
:meth:`EventQueue.push`, which allocates the ``Event`` handle that
:meth:`EventQueue.cancel` needs. Cancelled entries stay in the heap as
tombstones and are dropped when they reach the front.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable

__all__ = ["Event", "EventQueue"]


class Event:
    """A scheduled callback that can still be cancelled.

    Use :meth:`cancel` to neutralise an event that is already queued —
    cancelled events are skipped (and dropped lazily) by
    :class:`EventQueue`. Events never participate in ordering themselves;
    the queue orders its ``(time, seq)`` keys.

    A plain ``__slots__`` class rather than a dataclass: one is allocated
    per cancellable timer (~10% of scheduled events in a protocol run),
    and the hand-written ``__init__`` is measurably cheaper.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "consumed")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple[Any, ...] = (),
        cancelled: bool = False,
        consumed: bool = False,  # set when popped; guards late cancels
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = cancelled
        self.consumed = consumed

    def cancel(self) -> None:
        """Mark this event so it will not fire when popped."""
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback (caller must check :attr:`cancelled`)."""
        self.fn(*self.args)

    def __repr__(self) -> str:
        flags = "".join(
            flag for flag, on in ((" cancelled", self.cancelled), (" consumed", self.consumed)) if on
        )
        return f"<Event t={self.time!r} seq={self.seq}{flags}>"


class EventQueue:
    """A binary heap of scheduled callbacks with lazy cancellation.

    ``_cancelled`` counts the tombstones still in the heap, so ``len()``
    is the number of live events in O(1).
    """

    __slots__ = ("_heap", "_seq", "_cancelled")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        # seq is an itertools.count: one C call per ticket, shared with
        # Simulator.post/post_at.
        self._seq = count()
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def __bool__(self) -> bool:
        return len(self) > 0

    def push(self, time: float, fn: Callable[..., None], args: tuple[Any, ...] = ()) -> Event:
        """Insert a cancellable callback firing at ``time``; returns its Event."""
        seq = next(self._seq)
        event = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, fn, args, event))
        return event

    def push_fast(self, time: float, fn: Callable[..., None], args: tuple[Any, ...] = ()) -> None:
        """Fast path: insert a fire-and-forget callback (not cancellable).

        No :class:`Event` is allocated; the entry is a bare tuple.
        """
        heappush(self._heap, (time, next(self._seq), fn, args, None))

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` if it has not fired yet (idempotent).

        Cancelling an event that was already popped (fired) is a no-op:
        a popped event no longer counts towards ``len()``, so counting it
        again would drive the live count negative.
        """
        if not event.cancelled and not event.consumed:
            event.cancel()
            self._cancelled += 1

    def peek_entry(self) -> tuple | None:
        """The next live entry without consuming it, or None if empty.

        Safe to call from inside a running callback. Tombstones at the
        front are discarded on the way, which changes no live count.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[4]
            if event is None or not event.cancelled:
                return entry
            heappop(heap)
            self._cancelled -= 1
        return None

    def pop_entry(self) -> tuple | None:
        """Remove and return the next live entry, or None if empty.

        The entry is ``(time, seq, fn, args, event-or-None)``; a non-None
        event is marked consumed (late cancels become no-ops).
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            event = entry[4]
            if event is not None:
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.consumed = True
            return entry
        return None

    def peek_time(self) -> float | None:
        """Return the firing time of the next live event, or None if empty."""
        entry = self.peek_entry()
        return entry[0] if entry is not None else None

    def pop(self) -> Event | None:
        """Remove and return the next live event, or None if empty.

        Compatibility shim over :meth:`pop_entry`: fast-path entries have
        no :class:`Event`, so one is materialized (already consumed) for
        the caller. Hot loops should use :meth:`pop_entry` directly.
        """
        entry = self.pop_entry()
        if entry is None:
            return None
        event = entry[4]
        if event is None:
            event = Event(
                time=entry[0], seq=entry[1], fn=entry[2], args=entry[3], consumed=True
            )
        return event
