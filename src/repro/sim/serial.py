"""Checkpointable serial-id counters.

Several modules hand out monotonically increasing ids (flow ids,
message ids, request ids) from process-global
``itertools.count()`` objects.  Those counters are invisible to
checkpoint/restore: a C ``count`` can neither report its position nor
be rewound, so a simulator restored in a fresh process would restart
id allocation at zero and diverge from the uninterrupted run (message
reassembly keys and ECMP flow hashes both consume the ids).

:class:`SerialCounter` is a drop-in replacement — ``next(counter)``
works unchanged — that registers itself under a stable name so
:mod:`repro.sim.checkpoint` can snapshot every counter's position into
the payload and restore it on load.
"""

from __future__ import annotations

from typing import Iterator

#: All live counters by name.  Populated at import time by the modules
#: that own a counter; iterated in sorted order for determinism.
_REGISTRY: dict[str, "SerialCounter"] = {}

#: Restored positions waiting for their counter's module to be imported.
#: A checkpoint may carry counters whose owning module the restoring
#: process has not imported yet (the module's objects were absent from
#: the pickled graph); the position is adopted at registration time.
_PENDING: dict[str, int] = {}


class SerialCounter:
    """A named, snapshot-able ``itertools.count()`` equivalent."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, start: int = 0) -> None:
        if name in _REGISTRY:
            raise ValueError(f"duplicate SerialCounter name: {name!r}")
        self.name = name
        self.value = _PENDING.pop(name, start)
        _REGISTRY[name] = self

    def __next__(self) -> int:
        value = self.value
        self.value = value + 1
        return value

    def __iter__(self) -> Iterator[int]:
        return self

    def __repr__(self) -> str:
        return f"SerialCounter({self.name!r}, value={self.value})"

    def __reduce__(self) -> tuple[object, ...]:
        # Counters are module-level singletons: pickle by name so a
        # restored object graph aliases the registry's instance instead
        # of forking a private copy.
        return (_lookup, (self.name,))


def _lookup(name: str) -> SerialCounter:
    return _REGISTRY[name]


def snapshot_counters() -> dict[str, int]:
    """Position of every registered counter, keyed by name."""
    return {name: _REGISTRY[name].value for name in sorted(_REGISTRY)}


def restore_counters(state: dict[str, int]) -> None:
    """Rewind/advance counters to ``state``.

    Counters not registered yet (their owning module is not imported in
    this process) have their position parked in ``_PENDING`` and adopted
    when the module's import registers them; counters that exist here
    but not in ``state`` are left untouched (a newer module's counter
    the old run never used).
    """
    for name in sorted(state):
        counter = _REGISTRY.get(name)
        if counter is not None:
            counter.value = state[name]
        else:
            _PENDING[name] = state[name]
