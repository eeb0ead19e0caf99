"""The discrete-event simulator engine.

One :class:`Simulator` instance owns the global clock.  Components
(:class:`repro.net.link.Link`, :class:`repro.ssd.device.SSD`, ...)
hold a reference to it and call :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` to arrange future work.

The engine is intentionally minimal — no process abstraction, no
co-routines — because profiling showed plain callback dispatch is the
fastest way to push millions of events through CPython (see
``DESIGN.md`` §5).  :meth:`Simulator.run` works directly on the event
queue's tuple heap: each iteration peeks the head tuple once, pops it,
and dispatches; it is the only code that pops the heap.

Two event kinds flow through the loop (see :mod:`repro.sim.events`):
handled ``(time, seq, HANDLED_MARK, Event)`` entries for anything that
might be cancelled, and anonymous ``(time, seq, callback, args)``
entries (:meth:`Simulator.schedule_anon`) for fire-and-forget hot
paths; one sentinel identity check per dispatch tells them apart.  A
pre-scheduled series (:meth:`Simulator.schedule_series_at`, a whole
arrival trace) is one anonymous entry whose callback is the
:class:`_Series` itself; the loop calls it, and wherever an entry is
named (a dispatch log, a sanitizer's blame) it is named by the
callback it calls, unwrapped from a handled :class:`Event` or a series.

:meth:`Simulator.run` holds exactly one loop, and it dispatches exactly
one event per iteration.  It serves every run: plain runs,
``max_events`` legs (and so
:func:`repro.sim.checkpoint.run_with_checkpoints`), dispatch logs and
sanitizing, strided (``"stride:K"``) or at full fidelity (K = 1).  It
dispatches in chunks: a plain run is one chunk, a ``max_events`` limit
ends the last one, and a sanitizer's component sweep
(:class:`repro.analysis.sanitizer.Sanitizer`) runs between chunks of K
events.  Per event it adds two comparisons to the dispatch: the chunk's
end, and one guard that is true only under a sanitizer or a dispatch
log; behind it sit the clock check that raises
``event-time-monotonic`` and the log line, written before the callback
runs.  The loop stamps a :class:`SanitizerError` raised inside a
callback with the event's time and site.
"""

from __future__ import annotations

import heapq
import os
from itertools import islice
from operator import itemgetter, le
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.sim.events import HANDLED_MARK, Event, EventQueue

if TYPE_CHECKING:
    from repro.analysis.sanitizer import Sanitizer
    from repro.sim.units import Nanoseconds

#: Sentinel "no deadline" for the run loop's ``until`` comparison —
#: far beyond any simulated instant, so one int compare replaces an
#: ``is not None`` check per dispatched event.
_NO_DEADLINE = 1 << 62


def site_label(callback: Callable[..., Any]) -> str:
    """Stable label for a callback site (dispatch trace and sanitizer key).

    Functions and bound methods give their ``__qualname__``; a callable
    instance gives its class's, never a ``repr`` with a memory address.
    """
    return getattr(callback, "__qualname__", None) or type(callback).__qualname__


class SanitizerError(RuntimeError):
    """A runtime invariant of the simulation was violated.

    Raised by :mod:`repro.analysis.sanitizer` (which re-exports it).

    Attributes
    ----------
    invariant:
        Short invariant name (``queue-depth``, ``byte-conservation``, ...).
    detail:
        Human-readable description of the violated state.
    time_ns / site:
        Simulated time and callback site label of the offending event;
        the dispatch loop fills them in when the violation is raised
        from inside a callback (e.g. the FTL GC hook).
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        *,
        time_ns: int | None = None,
        site: str | None = None,
    ) -> None:
        super().__init__(detail)
        self.invariant = invariant
        self.detail = detail
        self.time_ns = time_ns
        self.site = site

    def __str__(self) -> str:
        at = f" at t={self.time_ns}ns" if self.time_ns is not None else ""
        during = f" during {self.site}" if self.site else ""
        return f"[{self.invariant}]{at}{during}: {self.detail}"


class MaxEventsExceeded(RuntimeError):
    """:meth:`Simulator.run` hit its ``max_events`` safety valve.

    Raised *after* the limit-hitting event ran, so the simulator's state
    is partial — ``now`` sits at that event's time and later events are
    still queued — but fully consistent and open for inspection: the
    clock, ``events_dispatched``, and the pending queue all reflect
    exactly what was dispatched.  The attributes carry the same snapshot
    for handlers that only see the exception.
    """

    def __init__(
        self, max_events: int, dispatched: int, pending: int, now: Nanoseconds
    ) -> None:
        super().__init__(
            f"simulation exceeded max_events={max_events} after dispatching "
            f"{dispatched} events in this run() call ({pending} events still "
            f"pending at t={now}); possible livelock — simulator state is "
            f"partial but consistent for inspection"
        )
        self.max_events = max_events
        self.dispatched = dispatched
        self.pending = pending
        self.now = now


class _Series:
    """One pre-scheduled series of anonymous events in a single heap slot.

    Made by :meth:`Simulator.schedule_series_at`.  The heap holds at
    most one entry per series, ``(time, seq, series, ())``, for its next
    event; firing it pushes the entry after it under the ``seq`` that
    was reserved for that entry when the series was scheduled, so every
    event keeps the ``(time, seq)`` key it would have had if pushed up
    front and dispatch order is unchanged.  ``_rest`` holds the
    remaining ``(time, callback, args)`` entries reversed, the one in
    the heap last, so each step is a ``list.pop()`` and a checkpoint
    pickles only what is still to come.  ``_last`` keeps the callback
    of the entry that fired last, which the loop names when a sweep or
    an error raised by that entry needs a site.
    """

    __slots__ = ("_heap", "_rest", "_seq", "_last")

    def __init__(self, heap: list, rest: list, seq: int) -> None:
        self._heap = heap
        self._rest = rest
        #: The sequence number reserved for the entry after the one in
        #: the heap.
        self._seq = seq

    def __call__(self) -> None:
        """Take the due entry, queue its successor and call it."""
        rest = self._rest
        _time, callback, args = rest.pop()
        if rest:
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(self._heap, (rest[-1][0], seq, self, ()))
        self._last = callback
        callback(*args)


def _entry_callback(callback: Any, tail: Any) -> Any:
    """The callback a heap entry calls, unwrapped from a handled event
    or a series; ``None`` for a cancelled event."""
    if callback is HANDLED_MARK:
        return None if tail.cancelled else tail.callback
    if callback.__class__ is _Series:
        return callback._rest[-1][1]
    return callback


def _fired_callback(callback: Any, tail: Any) -> Any:
    """The callback a dispatched heap entry called, unwrapped from a
    handled event or a series."""
    if callback is HANDLED_MARK:
        return tail.callback
    if callback.__class__ is _Series:
        return callback._last
    return callback


def _clock_moved_back(time: int, now: int, callback: Any, tail: Any) -> None:
    """Raise ``event-time-monotonic`` unless the entry is a cancelled event.

    ``callback``/``tail`` are a heap entry's: the error names the
    callback the entry would have called.
    """
    callback = _entry_callback(callback, tail)
    if callback is None:
        return
    raise SanitizerError(
        "event-time-monotonic",
        f"event scheduled at t={time} dispatched after t={now} — the clock "
        f"moved backwards",
        time_ns=time,
        site=site_label(callback),
    )


class Simulator:
    """Single-clock discrete-event simulator.

    Parameters
    ----------
    trace:
        When true, every dispatched event is appended to
        :attr:`dispatch_log` as ``(time, callback_qualname)`` before its
        callback runs — useful in tests, far too slow for real runs.
        The log has one line per dispatched event.
    sanitize:
        When true (or when the ``REPRO_SANITIZE`` environment variable
        is set and ``sanitize`` is left as ``None``), a
        :class:`repro.analysis.sanitizer.Sanitizer` is attached: the
        run checks runtime invariants (clock monotonicity, queue depths,
        byte conservation, ...) on every event and raises
        :class:`SanitizerError` on violation.  The string form
        ``"stride:K"`` (e.g. ``"stride:64"``, also accepted in
        ``REPRO_SANITIZE``) runs the invariant sweep every K-th event
        instead, between the loop's chunks, and still checks the clock
        on every event — see DESIGN.md §6.  The sanitized run is
        bit-identical to a plain one, just slower.
    """

    #: ``__slots__`` keeps every hot attribute (``now`` above all — read
    #: and written once per dispatched event) a fixed-offset slot load
    #: instead of a dict lookup.
    __slots__ = (
        "now",
        "_queue",
        "_trace",
        "dispatch_log",
        "events_dispatched",
        "sanitizer",
        "watchdog",
    )

    def __init__(
        self, *, trace: bool = False, sanitize: bool | str | None = None
    ) -> None:
        self.now: Nanoseconds = 0
        self._queue = EventQueue()
        self._trace = trace
        self.dispatch_log: list[tuple[int, str]] = []
        self.events_dispatched: int = 0
        #: The runtime sanitizer under ``sanitize``, else ``None``;
        #: components register themselves on it when it is set, and
        #: :meth:`run` calls its sweep (see the module docstring).
        self.sanitizer: "Sanitizer | None" = None
        if sanitize is None:
            from repro.analysis.sanitizer import env_sanitize_mode

            sanitize = env_sanitize_mode(os.environ.get("REPRO_SANITIZE"))
        if sanitize:
            from repro.analysis.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(sanitize)
        #: Quiescence hook (``run_testbed`` installs the stuck-I/O check
        #: of :mod:`repro.experiments.runner`): called with the simulator
        #: once per :meth:`run` call, only when the event heap fully
        #: drained — i.e. the model has nothing left to do.  Zero
        #: per-event cost.  The hook may raise (``StuckIOError``) to turn
        #: a silent wedge into a diagnostic failure.
        self.watchdog: "Callable[[Simulator], None] | None" = None

    # -- scheduling -----------------------------------------------------
    def schedule(
        self, delay: Nanoseconds, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` ns from now.

        Extra positional ``args`` are stored on the event handle and
        passed to the callback at dispatch — cheaper than allocating a
        closure per scheduled call on hot paths.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self._queue.push(self.now + delay, callback, *args)

    def schedule_at(
        self, time: Nanoseconds, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self._queue.push(time, callback, *args)

    def schedule_anon(
        self, delay: Nanoseconds, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` ``delay`` ns from now, handle-free.

        The anonymous twin of :meth:`schedule`: no :class:`Event` is
        allocated and the call cannot be cancelled.  Use on
        fire-and-forget hot paths (per-packet link steps); keep
        :meth:`schedule` for anything a component may need to cancel.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        # The push is inlined: this is the per-packet scheduling path,
        # and an extra call frame measurably shows up on the incast cell.
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        heapq.heappush(queue._heap, (self.now + delay, seq, callback, args))

    def schedule_at_anon(
        self, time: Nanoseconds, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at absolute ``time``, handle-free."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        heapq.heappush(queue._heap, (time, seq, callback, args))

    def schedule_series_at(
        self, entries: Sequence[tuple[Nanoseconds, Callable[..., None], tuple]]
    ) -> None:
        """Schedule ``callback(*args)`` at ``time`` for each entry, handle-free.

        ``entries`` is a list of ``(time, callback, args)`` in
        non-decreasing time order, none before ``now`` (checked, not
        sorted).  The dispatch order, event count
        and every output are exactly those of one
        :meth:`schedule_at_anon` per entry, in list order, made at this
        call: the series reserves one sequence number per entry now.
        The heap, however, holds one entry for the whole series rather
        than ``len(entries)``, so pre-scheduling a whole arrival trace
        leaves every other push and pop at the depth of the model's
        working set.
        """
        if not entries:
            return
        # The check runs in C (``map`` over ``operator.le``); only a
        # failing series pays for the Python walk that names the entry.
        times = list(map(itemgetter(0), entries))
        if times[0] < self.now or not all(map(le, times, islice(times, 1, None))):
            prev = self.now
            for time in times:
                if time < prev:
                    if prev == self.now:
                        raise ValueError(
                            f"cannot schedule in the past: {time} < {self.now}"
                        )
                    raise ValueError(
                        f"series times must be non-decreasing: {time} after {prev}"
                    )
                prev = time
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + len(entries)
        series = _Series(queue._heap, list(reversed(entries)), seq + 1)
        heapq.heappush(queue._heap, (entries[0][0], seq, series, ()))

    def schedule_recurring_anon(
        self,
        interval_ns: Nanoseconds,
        callback: Callable[[], None],
        *,
        until_ns: Nanoseconds,
    ) -> None:
        """Fire ``callback()`` every ``interval_ns`` until ``until_ns``.

        The recurring twin of :meth:`schedule_anon` for coarse-clock
        subsystems (the fluid background-traffic domain of
        :mod:`repro.net.fluid` above all): exactly one anonymous heap
        entry exists per series at any moment — the driver reschedules
        itself after invoking ``callback`` — so a domain ticking every
        ~100 µs costs the heap one slot, not one entry per future tick.
        The last firing is the largest ``now + k * interval_ns`` that is
        ``<= until_ns``; the series then ends (nothing to cancel — the
        driver simply stops rescheduling).
        """
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        first_ns = self.now + interval_ns
        if first_ns <= until_ns:
            self.schedule_at_anon(
                first_ns, self._recurring_tick, interval_ns, until_ns, callback
            )

    def _recurring_tick(
        self,
        interval_ns: Nanoseconds,
        until_ns: Nanoseconds,
        callback: Callable[[], None],
    ) -> None:
        """Driver for :meth:`schedule_recurring_anon` (one hop per tick)."""
        callback()
        next_ns = self.now + interval_ns
        if next_ns <= until_ns:
            self.schedule_at_anon(
                next_ns, self._recurring_tick, interval_ns, until_ns, callback
            )

    # -- execution ------------------------------------------------------
    def run(
        self, until: Nanoseconds | None = None, max_events: int | None = None
    ) -> int:
        """Dispatch events in time order.

        Every run takes the one dispatch loop (see the module
        docstring); a dispatch log or a sanitizer only observes it.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time; the
            clock is advanced to ``until`` itself.  ``None`` runs until
            the queue drains.
        max_events:
            Safety valve for tests; raises :class:`MaxEventsExceeded` (a
            ``RuntimeError``) when hit so a livelocked model fails loudly
            rather than hanging CI.  The simulator is left mid-run —
            clock advanced, remaining events queued — but consistent, so
            callers may inspect ``now``, ``pending()``, and
            ``events_dispatched`` after catching the error.

        Returns
        -------
        int
            The number of events dispatched during this call.
        """
        deadline = _NO_DEADLINE if until is None else until
        limit = _NO_DEADLINE if max_events is None else max_events
        sanitizer = self.sanitizer
        dispatched = self._run_lean(deadline, limit)
        if sanitizer is not None:
            sanitizer.finish(self, dispatched)
        if until is not None and until > self.now:
            self.now = until
        if self.watchdog is not None and not self._queue._heap:
            self.watchdog(self)
        return dispatched

    def _run_lean(self, deadline: int, limit: int) -> int:
        """The loop: events in chunks that end at a sweep or the limit.

        A plain run is one chunk.  Under a sanitizer each chunk ends at
        its countdown (one event at full fidelity) and its component
        sweep runs between chunks; a ``max_events`` limit ends the last
        chunk.  The per-event work is the dispatch plus one guard that
        only a sanitizer or a dispatch log gets past.
        """
        queue = self._queue
        heap = queue._heap  # the queue compacts in place; alias stays valid
        heappop = heapq.heappop
        sanitizer = self.sanitizer
        checking = sanitizer is not None
        trace = self._trace
        log = self.dispatch_log
        observing = checking or trace
        if sanitizer is None:
            stride = countdown = _NO_DEADLINE
        else:
            stride = sanitizer.stride
            countdown = sanitizer.countdown
        dispatched = start = 0
        time = 0
        callback: Any = None
        tail: Any = None
        try:
            while True:
                # The chunk ends at the next sweep or at the limit (a
                # limit below 1 still dispatches one event).
                stop = start + countdown
                if stop > limit:
                    stop = limit if limit > start else start + 1
                while heap:
                    time, _seq, callback, tail = heap[0]
                    if time > deadline:
                        break
                    heappop(heap)
                    if observing:
                        if checking and time < self.now:
                            _clock_moved_back(time, self.now, callback, tail)
                        if trace:
                            site = _entry_callback(callback, tail)
                            if site is not None:
                                log.append((time, site_label(site)))
                    if callback is not HANDLED_MARK:
                        self.now = time
                        callback(*tail)
                    else:
                        ev = tail
                        if ev.cancelled:
                            queue._dead -= 1
                            continue
                        ev._queue = None
                        self.now = time
                        args = ev.args
                        if args:
                            ev.callback(*args)
                        else:
                            ev.callback()
                    dispatched += 1
                    if dispatched == stop:
                        break
                countdown -= dispatched - start
                start = dispatched
                if dispatched != stop:
                    break  # drained, or the next event is past the deadline
                if not countdown:
                    countdown = stride
                    sanitizer.sample(  # type: ignore[union-attr]
                        time, _fired_callback(callback, tail)
                    )
                if dispatched >= limit:
                    raise MaxEventsExceeded(limit, dispatched, len(queue), self.now)
        except SanitizerError as err:
            # A violation raised inside a callback (e.g. the FTL GC hook)
            # gets the dispatch context stamped on the way out.
            if err.site is None:
                err.site = site_label(_fired_callback(callback, tail))
            if err.time_ns is None:
                err.time_ns = time
            raise
        finally:
            self.events_dispatched += dispatched
            if sanitizer is not None:
                sanitizer.countdown = countdown - (dispatched - start)
        return dispatched

    def discard_pending(self) -> None:
        """Drop every scheduled event; the world cannot be continued.

        For a caller that stops a run early and keeps only what it
        measured: pending entries hold bound methods of the world's
        components, so dropping them lets reference counting, not the
        cyclic garbage collector, free the world.
        """
        self._queue._heap.clear()
        self._queue._dead = 0

    def pending(self) -> int:
        """Number of live events still scheduled (O(1))."""
        return len(self._queue)
