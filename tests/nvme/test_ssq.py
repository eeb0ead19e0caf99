"""SSQ driver: routing, WRR fetch, QD partition, consistency check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvme.ssq import SSQDriver
from repro.workloads.request import IORequest, OpType


def req(op=OpType.READ, lba=0, size=512, arrival=0):
    return IORequest(arrival_ns=arrival, op=op, lba=lba, size_bytes=size)


def distinct_lba(i):
    """LBAs spaced far apart so requests never share a dependency bucket."""
    return i * 1_000_000


class TestRouting:
    def test_reads_to_rsq_writes_to_wsq(self):
        d = SSQDriver()
        d.submit(req(OpType.READ, lba=distinct_lba(1)))
        d.submit(req(OpType.WRITE, lba=distinct_lba(2)))
        assert d.queue_lengths() == (1, 1)

    def test_queued_and_has_pending(self):
        d = SSQDriver()
        assert not d.has_pending()
        d.submit(req(OpType.READ, lba=distinct_lba(1)))
        assert d.has_pending()
        assert d.queued() == 1


class TestConsistency:
    def test_overlapping_write_follows_waiting_read(self):
        d = SSQDriver()
        d.submit(req(OpType.READ, lba=0, size=4096))
        d.submit(req(OpType.WRITE, lba=0, size=4096))  # same bucket
        # The dependent write joins the RSQ behind the read.
        assert len(d.rsq) == 2
        assert len(d.wsq) == 0
        assert d.consistency_redirects == 1

    def test_overlapping_read_follows_waiting_write(self):
        d = SSQDriver()
        d.submit(req(OpType.WRITE, lba=64, size=4096))
        d.submit(req(OpType.READ, lba=64, size=512))
        assert len(d.wsq) == 2
        assert d.consistency_redirects == 1

    def test_dependent_pair_fetched_in_submission_order(self):
        d = SSQDriver(1, 8)  # heavy write preference
        first = req(OpType.READ, lba=0, size=4096)
        second = req(OpType.WRITE, lba=0, size=4096)
        d.submit(first)
        d.submit(second)
        a = d.fetch(0, 0, 64)
        b = d.fetch(1, 0, 64)
        assert a is first and b is second

    def test_dependency_cleared_after_fetch(self):
        d = SSQDriver()
        d.submit(req(OpType.READ, lba=0, size=4096))
        d.fetch(0, 0, 64)
        # The bucket is free again: a new write goes to its natural queue.
        d.submit(req(OpType.WRITE, lba=0, size=4096))
        assert len(d.wsq) == 1

    def test_non_overlapping_not_redirected(self):
        d = SSQDriver()
        d.submit(req(OpType.READ, lba=0, size=4096))
        d.submit(req(OpType.WRITE, lba=distinct_lba(5), size=4096))
        assert d.consistency_redirects == 0

    def test_same_type_overlap_no_redirect_counted(self):
        d = SSQDriver()
        d.submit(req(OpType.READ, lba=0, size=4096))
        d.submit(req(OpType.READ, lba=0, size=4096))
        # Same natural queue: placement unchanged, not a redirect.
        assert d.consistency_redirects == 0
        assert len(d.rsq) == 2


class TestFetch:
    def test_wrr_ratio_when_both_backlogged(self):
        d = SSQDriver(1, 3)
        for i in range(8):
            d.submit(req(OpType.READ, lba=distinct_lba(i)))
            d.submit(req(OpType.WRITE, lba=distinct_lba(100 + i)))
        ops = [d.fetch(0, 0, 1024).op for _ in range(8)]
        assert ops.count(OpType.WRITE) == 6
        assert ops.count(OpType.READ) == 2

    def test_empty_wsq_serves_reads_without_token_move(self):
        d = SSQDriver(1, 4)
        for i in range(5):
            d.submit(req(OpType.READ, lba=distinct_lba(i)))
        for _ in range(5):
            assert d.fetch(0, 0, 64).is_read
        # Tokens untouched: a following mixed burst still honors 1:4.
        assert d.wrr.read_tokens == 1
        assert d.wrr.write_tokens == 4

    def test_partition_blocks_overfetched_type(self):
        d = SSQDriver(1, 1)  # partition 32/32 at QD 64
        for i in range(4):
            d.submit(req(OpType.WRITE, lba=distinct_lba(i)))
        # Writes at their slot cap: fetch stalls (no read available and
        # the write head is ineligible).
        assert d.fetch(0, 32, 64) is None

    def test_partition_lets_other_type_proceed_when_queue_empty(self):
        d = SSQDriver(1, 1)
        d.submit(req(OpType.READ, lba=distinct_lba(1)))
        # Writes capped but WSQ empty: the read proceeds.
        assert d.fetch(0, 32, 64) is not None

    def test_blocked_turn_stalls_strictly(self):
        """When it's the read's turn but read slots are full, fetch waits."""
        d = SSQDriver(1, 1)
        d.submit(req(OpType.READ, lba=distinct_lba(1)))
        d.submit(req(OpType.WRITE, lba=distinct_lba(2)))
        first = d.fetch(0, 0, 64)  # write turn first at (1,1)
        assert first.op is OpType.WRITE
        # Read's turn now, but read slots are exhausted: stall even
        # though more writes could be fetched.
        d.submit(req(OpType.WRITE, lba=distinct_lba(3)))
        assert d.fetch(32, 1, 64) is None

    def test_fetch_empty_returns_none(self):
        assert SSQDriver().fetch(0, 0, 64) is None


class TestWeights:
    def test_set_weights_logged_and_applied(self):
        d = SSQDriver()
        d.set_weights(1, 5, now_ns=777)
        assert d.weight_ratio == 5.0
        assert d.weight_log == [(777, 1, 5)]

    def test_partition_split(self):
        # 1:3 at QD 64: 16 read slots, 48 write slots.
        d = SSQDriver(1, 3)
        d.submit(req(OpType.READ, lba=distinct_lba(1)))
        assert d.fetch(16, 0, 64) is None
        assert d.fetch(15, 0, 64).is_read
        d.submit(req(OpType.WRITE, lba=distinct_lba(2)))
        assert d.fetch(0, 48, 64) is None
        assert d.fetch(0, 47, 64).op is OpType.WRITE
        # Both classes always keep at least one slot.
        for weights, op in (((1, 63), OpType.READ), ((63, 1), OpType.WRITE)):
            d2 = SSQDriver(*weights)
            d2.submit(req(op, lba=distinct_lba(3)))
            assert d2.fetch(0, 0, 1).op is op

    def test_weight_change_rings_doorbell(self):
        class FakeDevice:
            rings = 0

            def doorbell(self):
                FakeDevice.rings += 1

            def attach_driver(self, drv):
                pass

        d = SSQDriver()
        d.connect(FakeDevice())
        before = FakeDevice.rings
        d.set_weights(1, 2)
        assert FakeDevice.rings == before + 1


class TestDoorbell:
    """When a submit rings (the device-level property test is
    ``test_ssq_doorbell.py``)."""

    class Device:
        def __init__(self):
            self.rings = []

        def doorbell(self):
            self.rings.append(1)

        def attach_driver(self, driver):
            pass

    def connected(self, *weights):
        device = self.Device()
        d = SSQDriver(*weights)
        d.connect(device)
        return d, device.rings

    def test_submit_to_non_empty_queue_after_a_stall_does_not_ring(self):
        d, rings = self.connected(1, 1)
        d.submit(req(OpType.WRITE, lba=distinct_lba(1)))
        assert d.fetch(0, 32, 64) is None  # write head slot-blocked
        d.submit(req(OpType.WRITE, lba=distinct_lba(2)))
        assert len(rings) == 1
        # An empty queue changes what WRR can choose: that submit rings.
        d.submit(req(OpType.READ, lba=distinct_lba(3)))
        assert len(rings) == 2

    def test_fetching_a_command_clears_the_stall(self):
        d, rings = self.connected(1, 1)
        for i in range(2):
            d.submit(req(OpType.WRITE, lba=distinct_lba(i)))
        assert d.fetch(0, 32, 64) is None
        assert d.fetch(0, 0, 64) is not None
        d.submit(req(OpType.WRITE, lba=distinct_lba(3)))
        assert len(rings) == 3

    def test_weight_change_clears_the_stall(self):
        d, rings = self.connected(1, 1)
        d.submit(req(OpType.WRITE, lba=distinct_lba(1)))
        assert d.fetch(0, 32, 64) is None
        d.set_weights(1, 4)
        d.submit(req(OpType.WRITE, lba=distinct_lba(2)))
        assert len(rings) == 3


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 50)), min_size=1, max_size=60))
def test_every_submitted_request_is_fetched_exactly_once_property(specs):
    d = SSQDriver(1, 2)
    submitted = []
    for is_read, lba_bucket in specs:
        r = req(OpType.READ if is_read else OpType.WRITE, lba=lba_bucket * 8, size=512)
        submitted.append(r)
        d.submit(r)
    fetched = []
    while True:
        got = d.fetch(0, 0, 10**6)
        if got is None:
            break
        fetched.append(got)
    assert len(fetched) == len(submitted)
    assert {r.req_id for r in fetched} == {r.req_id for r in submitted}
    # The dependency index fully drains with the queues.
    assert not d._pending_buckets
