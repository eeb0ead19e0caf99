"""Property test: the one-pass SSQ dependency check matches a two-pass model.

The reference below is the textbook form of the §III-A consistency
check: walk the request's 4 KiB buckets once to find a waiting
overlapping request's queue, then walk them again to index the request
under the chosen queue.  Under any interleaving of submissions and
fetches the driver must place every request in the same queue, count
the same redirects, and hold the same bucket refcounts.
"""

from __future__ import annotations

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nvme.ssq import SSQDriver
from repro.workloads.request import IORequest, OpType

BUCKET = SSQDriver.DEPENDENCY_BUCKET_BYTES


def buckets_of(request: IORequest) -> range:
    first = request.lba * 512
    return range(first // BUCKET, (first + request.size_bytes - 1) // BUCKET + 1)


class TwoPassReference:
    """Queues and bucket index kept by the two-pass check."""

    def __init__(self) -> None:
        self.queues = {"r": deque(), "w": deque()}
        self.pending: dict[int, list] = {}  # bucket -> [queue name, refcount]
        self.redirects = 0

    def submit(self, request: IORequest) -> None:
        natural = "r" if request.is_read else "w"
        target = None
        for bucket in buckets_of(request):  # pass 1: find a dependency
            entry = self.pending.get(bucket)
            if entry is not None:
                target = entry[0]
                break
        if target is None:
            target = natural
        elif target != natural:
            self.redirects += 1
        for bucket in buckets_of(request):  # pass 2: index under target
            entry = self.pending.get(bucket)
            if entry is None:
                self.pending[bucket] = [target, 1]
            else:
                entry[1] += 1
        self.queues[target].append(request)

    def fetched(self, name: str, request: IORequest) -> None:
        assert self.queues[name].popleft() is request
        for bucket in buckets_of(request):
            entry = self.pending[bucket]
            entry[1] -= 1
            if entry[1] == 0:
                del self.pending[bucket]


submits = st.tuples(
    st.booleans(),  # read?
    st.integers(min_value=0, max_value=63),  # lba (sectors): buckets 0-7
    st.integers(min_value=1, max_value=24),  # size in 512 B sectors
)
ops = st.lists(st.one_of(submits, st.just("fetch")), max_size=80)
weights = st.integers(min_value=1, max_value=8)


def driver_buckets(driver: SSQDriver) -> dict[int, tuple[str, int]]:
    # The driver codes each bucket as a signed refcount: positive for RSQ.
    return {b: ("r" if n > 0 else "w", abs(n)) for b, n in driver._pending_buckets.items()}


@settings(max_examples=300)
@given(ops=ops, rw=weights, ww=weights)
# A request spanning two buckets whose waiting requests sit in different
# queues follows the first bucket's queue.
@example(ops=[(True, 0, 8), (False, 8, 8), (False, 0, 16)], rw=1, ww=1)
def test_one_pass_submit_matches_two_pass_reference(ops, rw, ww):
    driver = SSQDriver(rw, ww)
    ref = TwoPassReference()
    for op in ops:
        if op == "fetch":
            head_r = driver.rsq[0] if driver.rsq else None
            got = driver.fetch(0, 0, 64)
            if got is not None:
                ref.fetched("r" if got is head_r else "w", got)
        else:
            is_read, lba, sectors = op
            request = IORequest(
                arrival_ns=0,
                op=OpType.READ if is_read else OpType.WRITE,
                lba=lba,
                size_bytes=sectors * 512,
            )
            driver.submit(request)
            ref.submit(request)
        assert list(map(id, driver.rsq)) == list(map(id, ref.queues["r"]))
        assert list(map(id, driver.wsq)) == list(map(id, ref.queues["w"]))
        assert driver.consistency_redirects == ref.redirects
        assert driver_buckets(driver) == {b: tuple(e) for b, e in ref.pending.items()}
