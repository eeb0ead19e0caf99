"""Separate submission queues with WRR fetch — §III-A, Fig. 4-b.

The SSQ driver is the storage-side control point SRC manipulates:

* reads enter RSQ, writes enter WSQ — unless the **consistency check**
  finds an overlapping-LBA request still waiting in some SQ, in which
  case the new request joins that same queue so dependent I/Os retire
  in submission order;
* the device fetches by **token WRR** (:class:`repro.nvme.wrr.TokenWRR`);
  a fetched command consumes a token of *its own I/O type* regardless of
  which queue held it, preserving the demanded weight ratio;
* the configured queue depth is **partitioned** between the types in
  proportion to the weights, bounding per-type in-flight commands.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.nvme.wrr import TokenWRR
from repro.workloads.request import IORequest, OpType

#: See :attr:`SSQDriver.DEPENDENCY_BUCKET_BYTES`.
_BUCKET = 4096
#: Hot-path Enum members as globals: a member load costs ~10x a global
#: load on CPython 3.11 (DESIGN §5b).
_READ = OpType.READ


class SSQDriver:
    """Separate read/write submission queues with weighted fetch."""

    __slots__ = (
        "wrr",
        "consistency_check",
        "rsq",
        "wsq",
        "_doorbell",
        "submitted",
        "fetched",
        "consistency_redirects",
        "weight_log",
        "_pending_buckets",
        "_stalled",
    )

    #: Dependency-detection granularity in bytes.  Requests are indexed
    #: by the 4 KiB buckets they touch; bucket collision is a
    #: conservative superset of sector overlap.
    DEPENDENCY_BUCKET_BYTES = _BUCKET

    def __init__(
        self,
        read_weight: int = 1,
        write_weight: int = 1,
        *,
        consistency_check: bool = True,
    ) -> None:
        self.wrr = TokenWRR(read_weight, write_weight)
        #: §III-A data-consistency mechanism; disable only for ablation
        #: studies (dependent I/Os may then retire out of order).
        self.consistency_check = consistency_check
        self.rsq: deque[IORequest] = deque()
        self.wsq: deque[IORequest] = deque()
        self._doorbell: Callable[[], None] | None = None
        self.submitted = 0
        self.fetched = 0
        self.consistency_redirects = 0
        #: History of (submit-time) weight changes, for experiment plots.
        self.weight_log: list[tuple[int, int, int]] = []
        # bucket -> signed refcount: how many waiting requests touch this
        # address bucket, and which SQ holds them (positive: RSQ,
        # negative: WSQ).  Plain ints keep the index out of the cyclic GC.
        self._pending_buckets: dict[int, int] = {}
        #: True while the last fetch stalled on a slot-blocked head (see
        #: :meth:`submit`); cleared by a fetch that returns a command.
        self._stalled = False

    def connect(self, device) -> None:
        """Bind to a device; submissions will ring its doorbell."""
        self._doorbell = device.doorbell
        device.attach_driver(self)
        sim = getattr(device, "sim", None)
        sanitizer = getattr(sim, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.track_wrr(self.wrr, name="SSQDriver.wrr")

    # -- weight control (SRC's knob) -----------------------------------------
    def set_weights(self, read_weight: int, write_weight: int, *, now_ns: int = 0) -> None:
        self.wrr.set_weights(read_weight, write_weight)
        self.weight_log.append((now_ns, read_weight, write_weight))
        self._stalled = False
        # A weight change can unblock fetch immediately (e.g. a larger
        # write partition); let the device re-evaluate.
        if self._doorbell is not None:
            self._doorbell()

    @property
    def weight_ratio(self) -> float:
        return self.wrr.weight_ratio

    # -- host side -----------------------------------------------------------
    def submit(self, request: IORequest, now_ns: int | None = None) -> None:
        """Enqueue with the consistency check, then ring the doorbell.

        The doorbell is skipped when it cannot fetch: the last fetch
        stalled on a slot-blocked head and ``request`` joins a non-empty
        queue.  A re-fetch would then see the same non-empty queues and
        tokens (so :meth:`TokenWRR.choose` picks the same class, and any
        round reset already happened), the same head and the same
        in-flight counts, which move only through a fetch (one that
        returns a command clears the stall) or a completion (which kicks
        the device itself).
        """
        if now_ns is not None:
            request.submit_ns = now_ns
        queue = self.rsq if request.is_read else self.wsq
        if self.consistency_check:
            # Index the request's buckets.  Nearly every request touches
            # no indexed bucket: one C-level test and one update, inline.
            first = request.lba * 512
            buckets = range(first // _BUCKET, (first + request.size_bytes - 1) // _BUCKET + 1)
            pending = self._pending_buckets
            if pending.keys().isdisjoint(buckets):
                pending.update(dict.fromkeys(buckets, 1 if queue is self.rsq else -1))
            else:
                queue = self._follow_dependency(buckets, queue)
        ring = not (self._stalled and queue)
        queue.append(request)
        self.submitted += 1
        if ring and self._doorbell is not None:
            self._doorbell()

    def _follow_dependency(
        self, buckets: range, natural: deque[IORequest]
    ) -> deque[IORequest]:
        """Pick the SQ of a request that touches an indexed bucket, and
        index its ``buckets``, in one walk.

        The request joins the SQ of the first touched bucket that still
        has a waiting request (counting a redirect when that is not its
        ``natural`` queue).  Overlap is tracked at
        :data:`DEPENDENCY_BUCKET_BYTES` granularity through an index
        updated on submit/fetch, so the check is O(pages touched)
        instead of a queue scan.  Buckets already indexed keep their
        queue (later requests to a bucket follow the same SQ, so
        repointing is unnecessary) and gain a reference; fresh buckets
        take the chosen SQ's sign.
        """
        pending = self._pending_buckets
        sign = 0
        fresh = []
        for bucket in buckets:
            count = pending.get(bucket)
            if count is None:
                fresh.append(bucket)
                continue
            if not sign:
                sign = 1 if count > 0 else -1
            pending[bucket] = count + 1 if count > 0 else count - 1
        for bucket in fresh:
            pending[bucket] = sign
        target = self.rsq if sign > 0 else self.wsq
        if target is not natural:
            self.consistency_redirects += 1
        return target

    # -- device side (SubmissionSource) -----------------------------------------
    def has_pending(self) -> bool:
        return bool(self.rsq or self.wsq)

    def fetch(
        self, inflight_reads: int, inflight_writes: int, queue_depth: int
    ) -> IORequest | None:
        # WRR chooses by queue occupancy; the skip-if-empty rule (serve
        # the other queue without moving tokens) applies only to truly
        # empty queues.  A slot-blocked head instead *stalls* fetch until
        # its class completes a command — this is what makes the token
        # ratio authoritative for throughput control, while the QD
        # partition guarantees each class its own slots so a class whose
        # completions are back-pressured (reads under congestion) can
        # never occupy the whole device.
        rsq, wsq, wrr = self.rsq, self.wsq, self.wrr
        choice = wrr.choose(bool(rsq), bool(wsq))
        if choice is None:
            return None
        queue = rsq if choice is _READ else wsq
        head = queue[0]
        # The QD partition: split by the weight ratio, a slot kept per class.
        write_slots = max(1, queue_depth * wrr.write_weight // (wrr.read_weight + wrr.write_weight))
        if head.is_read:
            if inflight_reads >= max(1, queue_depth - write_slots):
                self._stalled = True
                return None
        elif inflight_writes >= write_slots:
            self._stalled = True
            return None
        self._stalled = False
        # Tokens move only when both queues competed for the turn.
        if rsq and wsq:
            wrr.consume(head.op)
        queue.popleft()
        pending = self._pending_buckets
        if pending:  # empty without the consistency check
            first = head.lba * 512
            for bucket in range(first // _BUCKET, (first + head.size_bytes - 1) // _BUCKET + 1):
                count = pending.get(bucket)
                if count is None:
                    continue
                if count > 1:
                    pending[bucket] = count - 1
                elif count < -1:
                    pending[bucket] = count + 1
                else:
                    del pending[bucket]
        self.fetched += 1
        return head

    # -- introspection ----------------------------------------------------------
    def queued(self) -> int:
        return len(self.rsq) + len(self.wsq)

    def queue_lengths(self) -> tuple[int, int]:
        return len(self.rsq), len(self.wsq)
