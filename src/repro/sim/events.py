"""Event primitives for the discrete-event engine.

An :class:`Event` couples a firing time with a callback (plus optional
pre-bound arguments).  :class:`EventQueue` is a binary heap of plain
tuples — the monotonically increasing sequence number makes ordering
deterministic for events scheduled at the same instant, which in turn
makes every simulation in the library exactly reproducible for a fixed
seed.

Every heap entry is a 4-tuple; the third element discriminates two
kinds:

* ``(time, seq, HANDLED_MARK, Event)`` — a *handled* event: the
  :class:`Event` object (``__slots__``, no ordering protocol) exists so
  callers can cancel or inspect the scheduled callback (the DCQCN
  increase timer, the block-layer throttle's release timer).
* ``(time, seq, callback, args)`` — an *anonymous* event pushed by
  :meth:`repro.sim.engine.Simulator.schedule_anon` /
  ``schedule_at_anon``: no handle, no cancellation, no per-event
  object allocation.  This is the hot-path shape for fire-and-forget
  work (link serialization/propagation, the flash chip and channel
  stages, Clos tenant ticks) where the handle was pure overhead.  A
  whole pre-scheduled arrival trace is one such entry whose callback
  is the series itself
  (:meth:`repro.sim.engine.Simulator.schedule_series_at`).

Use a handled event only where the caller keeps the handle to cancel
it; both kinds take ``seq`` from the same counter at push time, so
switching a site between them never changes dispatch order.

``HANDLED_MARK`` is a unique sentinel that can never equal a real
callback, so dispatch loops discriminate with a single identity check
(``entry[2] is HANDLED_MARK``) — measurably cheaper than a ``len()``
call per dispatched event.  The two kinds never confuse the heap
ordering: sequence numbers are unique, so tuple comparison is decided
at element 0 or 1 and never reaches the third element.

Cancellation (handled events only) is lazy (cancelled entries stay in
the heap and are skipped when they surface) but *accounted*: a
dead-entry counter makes ``len()`` O(1) (every heap entry is live or
dead, so ``len(heap) - dead`` is the live count), and when dead entries
outnumber live ones the heap is compacted in place, so
cancel-and-reschedule patterns (DCQCN timers, NIC pacing) cannot bloat
the heap.

The tuple format is private to :mod:`repro.sim`: components schedule
through :class:`repro.sim.engine.Simulator`, never by pushing onto the
heap themselves, and only the engine's run loop pops it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: Compaction triggers only above this many dead entries (small heaps
#: never pay the rebuild) and only when dead entries outnumber live ones.
_COMPACT_MIN_DEAD = 64


class _HandledMark:
    """Sentinel type marking handled heap entries (single instance)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<HANDLED_MARK>"

    def __reduce__(self) -> str:
        # Pickle by reference to the module singleton: every run loop
        # distinguishes handled from anonymous heap entries with an
        # ``is HANDLED_MARK`` identity test, so a restored heap must
        # alias the same object, not a fresh instance.
        return "HANDLED_MARK"


#: The sentinel occupying slot 2 of every handled heap entry.
HANDLED_MARK = _HandledMark()


class Event:
    """Handle for a scheduled callback.

    Supports O(1) lazy deletion via :meth:`cancel`: the entry stays in
    the heap but is skipped when popped.  The handle carries the queue's
    dead-entry accounting back-reference while pending; the engine
    detaches it on dispatch so a late ``cancel()`` on an
    already-dispatched event is a no-op.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        queue: "EventQueue | None",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it reaches the top."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._dead += 1
            if (
                queue._dead >= _COMPACT_MIN_DEAD
                and queue._dead * 2 > len(queue._heap)
            ):
                queue._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time} seq={self.seq} {name} {state}>"


class EventQueue:
    """A deterministic min-heap of handled and anonymous event tuples."""

    __slots__ = ("_heap", "_seq", "_dead")

    def __init__(self) -> None:
        self._heap: list[tuple[Any, ...]] = []
        self._seq = 0
        self._dead = 0  # cancelled entries still sitting in the heap

    def __len__(self) -> int:
        return len(self._heap) - self._dead

    def push(self, time: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``; return its handle."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, HANDLED_MARK, ev))
        return ev

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In-place (``heap[:] =``) so the engine's loop-local alias of the
        heap list stays valid even when a callback cancels enough events
        to trigger compaction mid-run.  Surviving entries keep their
        original ``(time, seq)`` keys — anonymous entries are always
        live and always survive — so the heapify rebuilds exactly the
        dispatch order of an uncompacted heap (sequence numbers are
        unique; no comparison ever ties).
        """
        heap = self._heap
        heap[:] = [
            entry
            for entry in heap
            if entry[2] is not HANDLED_MARK or not entry[3].cancelled
        ]
        heapq.heapify(heap)
        self._dead = 0
