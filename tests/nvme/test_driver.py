"""Default FIFO NVMe driver tests."""

from repro.nvme.driver import DefaultNvmeDriver
from repro.workloads.request import IORequest, OpType


def req(i, op=OpType.READ):
    return IORequest(arrival_ns=i, op=op, lba=i * 100, size_bytes=512)


def test_fifo_order_single_queue():
    d = DefaultNvmeDriver()
    for i in range(5):
        d.submit(req(i))
    fetched = [d.fetch(0, 0, 64).arrival_ns for _ in range(5)]
    assert fetched == [0, 1, 2, 3, 4]


def test_no_type_awareness():
    d = DefaultNvmeDriver()
    d.submit(req(0, OpType.READ))
    d.submit(req(1, OpType.WRITE))
    d.submit(req(2, OpType.READ))
    ops = [d.fetch(0, 0, 64).op for _ in range(3)]
    assert ops == [OpType.READ, OpType.WRITE, OpType.READ]


def test_fetch_empty_returns_none():
    assert DefaultNvmeDriver().fetch(0, 0, 64) is None


def test_has_pending_and_queued():
    d = DefaultNvmeDriver()
    assert not d.has_pending()
    d.submit(req(0))
    d.submit(req(1))
    assert d.has_pending()
    assert d.queued() == 2
    d.fetch(0, 0, 64)
    assert d.queued() == 1


def test_counters():
    d = DefaultNvmeDriver()
    d.submit(req(0))
    d.fetch(0, 0, 64)
    assert d.submitted == 1
    assert d.fetched == 1


def test_submit_stamps_time():
    d = DefaultNvmeDriver()
    r = req(0)
    d.submit(r, now_ns=123)
    assert r.submit_ns == 123


def test_doorbell_rings_connected_device():
    class FakeDevice:
        def __init__(self):
            self.rings = 0

        def doorbell(self):
            self.rings += 1

        def attach_driver(self, driver):
            self.driver = driver

    d = DefaultNvmeDriver()
    dev = FakeDevice()
    d.connect(dev)
    assert dev.driver is d
    d.submit(req(0))
    assert dev.rings == 1

