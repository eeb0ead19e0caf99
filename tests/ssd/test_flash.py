"""Flash backend: two-stage service, alternation, channel contention."""

import pytest

from repro.sim.engine import Simulator
from repro.ssd.flash import FlashBackend
from repro.ssd.transactions import PageTransaction, TxnKind
from tests.conftest import FAST_SSD


def make_backend():
    sim = Simulator()
    return sim, FlashBackend(sim, FAST_SSD)


def txn(kind, chip=0, done=None, pages=FAST_SSD.page_bytes):
    return PageTransaction(kind=kind, chip_index=chip, page_bytes=pages, on_done=done)


def test_single_read_latency():
    sim, backend = make_backend()
    done = []
    backend.submit(txn(TxnKind.READ, done=lambda t: done.append(sim.now)))
    sim.run()
    expected = FAST_SSD.read_latency_ns + FAST_SSD.page_transfer_ns
    assert done == [expected]


def test_single_program_latency():
    sim, backend = make_backend()
    done = []
    backend.submit(txn(TxnKind.PROGRAM, done=lambda t: done.append(sim.now)))
    sim.run()
    expected = FAST_SSD.page_transfer_ns + FAST_SSD.write_latency_ns
    assert done == [expected]


def test_erase_skips_channel():
    sim, backend = make_backend()
    done = []
    t = PageTransaction(kind=TxnKind.ERASE, chip_index=0, page_bytes=0,
                        on_done=lambda t: done.append(sim.now))
    backend.submit(t)
    sim.run()
    assert done == [FAST_SSD.erase_latency_ns]


def test_same_chip_reads_serialise():
    sim, backend = make_backend()
    done = []
    for _ in range(3):
        backend.submit(txn(TxnKind.READ, chip=0, done=lambda t: done.append(sim.now)))
    sim.run()
    # Chip sense serialises; channel transfer pipelines behind it.
    read, xfer = FAST_SSD.read_latency_ns, FAST_SSD.page_transfer_ns
    assert done[0] == read + xfer
    assert done[1] >= 2 * read
    assert done[2] >= 3 * read


def test_different_chips_run_in_parallel():
    sim, backend = make_backend()
    done = []
    # Chips on different channels: fully parallel.
    backend.submit(txn(TxnKind.READ, chip=0, done=lambda t: done.append(sim.now)))
    backend.submit(txn(TxnKind.READ, chip=2, done=lambda t: done.append(sim.now)))
    sim.run()
    expected = FAST_SSD.read_latency_ns + FAST_SSD.page_transfer_ns
    assert done == [expected, expected]


def test_channel_shared_between_chips():
    sim, backend = make_backend()
    done = []
    # Chips 0 and 1 share channel 0: their transfers serialise.
    backend.submit(txn(TxnKind.READ, chip=0, done=lambda t: done.append(sim.now)))
    backend.submit(txn(TxnKind.READ, chip=1, done=lambda t: done.append(sim.now)))
    sim.run()
    assert done[0] == FAST_SSD.read_latency_ns + FAST_SSD.page_transfer_ns
    assert done[1] == FAST_SSD.read_latency_ns + 2 * FAST_SSD.page_transfer_ns


def test_alternation_prevents_read_starvation():
    """A backlog of slow programs must not starve queued reads."""
    sim, backend = make_backend()
    order = []
    for i in range(4):
        backend.submit(txn(TxnKind.PROGRAM, chip=0, done=lambda t, i=i: order.append(("w", i))))
    backend.submit(txn(TxnKind.READ, chip=0, done=lambda t: order.append(("r", 0))))
    sim.run()
    # The read completes after at most two writes, not after all four.
    read_pos = order.index(("r", 0))
    assert read_pos <= 2


def test_mapping_and_gc_reads_use_read_queue():
    """Mapping and GC reads are served like host reads (chip, then
    channel, from the read queue); GC programs like host programs."""
    read = FAST_SSD.read_latency_ns + FAST_SSD.page_transfer_ns
    program = FAST_SSD.page_transfer_ns + FAST_SSD.write_latency_ns
    for kind, expected in [
        (TxnKind.READ, read),
        (TxnKind.MAPPING_READ, read),
        (TxnKind.GC_READ, read),
        (TxnKind.PROGRAM, program),
        (TxnKind.GC_PROGRAM, program),
    ]:
        sim, backend = make_backend()
        done = []
        backend.submit(txn(kind, done=lambda t: done.append(sim.now)))
        sim.run()
        assert done == [expected], kind
    # Behind a program backlog, a mapping read alternates in as a read.
    sim, backend = make_backend()
    order = []
    for i in range(4):
        backend.submit(txn(TxnKind.PROGRAM, done=lambda t, i=i: order.append(("w", i))))
    backend.submit(txn(TxnKind.MAPPING_READ, done=lambda t: order.append(("r", 0))))
    sim.run()
    assert order.index(("r", 0)) <= 2


def test_completed_counter_and_pending():
    sim, backend = make_backend()
    for i in range(5):
        backend.submit(txn(TxnKind.READ, chip=i % FAST_SSD.n_chips))
    assert backend.pending() > 0
    sim.run()
    assert backend.completed == 5
    assert backend.pending() == 0


def test_transaction_validation():
    with pytest.raises(ValueError):
        PageTransaction(kind=TxnKind.READ, chip_index=-1, page_bytes=1)
    with pytest.raises(ValueError):
        PageTransaction(kind=TxnKind.READ, chip_index=0, page_bytes=-1)

