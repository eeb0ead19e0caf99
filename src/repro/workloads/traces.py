"""Trace container: an ordered sequence of :class:`IORequest`.

A :class:`Trace` owns its requests sorted by arrival time and provides
filtering, windowing, persistence (a small CSV dialect; no third-party
formats so traces round-trip offline) and merging of per-stream traces
into one arrival-ordered stream.
"""

from __future__ import annotations

import csv
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.workloads.request import IORequest, OpType

_CSV_FIELDS = ("arrival_ns", "op", "lba", "size_bytes")
#: Sort key: arrival time, ties broken by request id (a C call per
#: request, no Python frame).
_ARRIVAL_ORDER = attrgetter("arrival_ns", "req_id")


class Trace:
    """An arrival-ordered sequence of I/O requests."""

    def __init__(self, requests: Iterable[IORequest]) -> None:
        self.requests: list[IORequest] = sorted(requests, key=_ARRIVAL_ORDER)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self.requests)

    def __getitem__(self, idx: int) -> IORequest:
        return self.requests[idx]

    # -- selections ------------------------------------------------------
    def reads(self) -> "Trace":
        return Trace(r for r in self.requests if r.is_read)

    def writes(self) -> "Trace":
        return Trace(r for r in self.requests if not r.is_read)

    def window(self, start_ns: int, end_ns: int) -> "Trace":
        """Requests with ``start_ns <= arrival < end_ns``."""
        if end_ns < start_ns:
            raise ValueError(f"window end {end_ns} before start {start_ns}")
        return Trace(r for r in self.requests if start_ns <= r.arrival_ns < end_ns)

    # -- bulk views --------------------------------------------------------
    def arrivals(self) -> np.ndarray:
        return np.array([r.arrival_ns for r in self.requests], dtype=np.int64)

    def sizes(self) -> np.ndarray:
        return np.array([r.size_bytes for r in self.requests], dtype=np.int64)

    def interarrivals(self) -> np.ndarray:
        """Differences of consecutive arrival times (empty for <2 requests)."""
        arr = self.arrivals()
        return np.diff(arr) if arr.size >= 2 else np.array([], dtype=np.int64)

    @property
    def duration_ns(self) -> int:
        """Span from first to last arrival (0 for <2 requests)."""
        if len(self.requests) < 2:
            return 0
        return self.requests[-1].arrival_ns - self.requests[0].arrival_ns

    def total_bytes(self) -> int:
        return int(self.sizes().sum()) if self.requests else 0

    def read_ratio(self) -> float:
        """Fraction of requests that are reads (0.0 for an empty trace)."""
        if not self.requests:
            return 0.0
        return sum(1 for r in self.requests if r.is_read) / len(self.requests)

    # -- persistence ------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the trace as CSV with a header row."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_FIELDS)
            for r in self.requests:
                writer.writerow((r.arrival_ns, r.op.name, r.lba, r.size_bytes))

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace previously written by :meth:`save`.

        A file with another header or a malformed row raises
        ``ValueError`` naming the file (and the line).
        """
        requests = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != _CSV_FIELDS:
                raise ValueError(f"{path}: not a trace file (header {header!r})")
            for row in reader:
                try:
                    request = IORequest(
                        arrival_ns=int(row[0]),
                        op=OpType[row[1]],
                        lba=int(row[2]),
                        size_bytes=int(row[3]),
                    )
                except (ValueError, KeyError, IndexError) as err:
                    raise ValueError(
                        f"{path}:{reader.line_num}: bad trace row {row!r} ({err!r})"
                    ) from err
                requests.append(request)
        return cls(requests)


def merge_traces(traces: Sequence[Trace]) -> Trace:
    """Merge several traces into one arrival-ordered trace."""
    merged: list[IORequest] = []
    for t in traces:
        merged.extend(t.requests)
    return Trace(merged)
