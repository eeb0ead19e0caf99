"""IORequest semantics: validation, overlap, latency accessors."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads.request import IORequest, OpType


def req(lba=0, size=4096, op=OpType.READ, arrival=0):
    return IORequest(arrival_ns=arrival, op=op, lba=lba, size_bytes=size)


def test_optype_read_flag():
    assert OpType.READ.is_read
    assert not OpType.WRITE.is_read


def test_request_ids_are_unique():
    assert req().req_id != req().req_id


def test_stamped_request_pickles():
    r = req(lba=8, size=8192, op=OpType.WRITE, arrival=5)
    r.initiator, r.target = "h0", "t1"
    r.submit_ns, r.fetch_ns, r.device_done_ns, r.complete_ns = 6, 7, 9, 12
    back = pickle.loads(pickle.dumps(r))
    assert back == r
    assert back.req_id == r.req_id


def test_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        req(size=0)
    with pytest.raises(ValueError):
        req(lba=-1)
    with pytest.raises(ValueError):
        IORequest(arrival_ns=-1, op=OpType.READ, lba=0, size_bytes=1)


def test_lba_end_rounds_up_to_sectors():
    # 1 byte still occupies one 512-byte sector.
    assert req(lba=10, size=1).lba_end == 11
    assert req(lba=10, size=512).lba_end == 11
    assert req(lba=10, size=513).lba_end == 12


def test_overlap_detection():
    a = req(lba=0, size=4096)  # sectors [0, 8)
    b = req(lba=7, size=512)  # sector 7
    c = req(lba=8, size=512)  # sector 8
    assert a.overlaps(b)
    assert b.overlaps(a)
    assert not a.overlaps(c)
    assert not c.overlaps(a)


def test_overlap_is_reflexive():
    a = req(lba=100, size=1024)
    assert a.overlaps(a)


def test_latency_accessors_require_completion():
    r = req()
    with pytest.raises(ValueError):
        _ = r.total_latency_ns
    with pytest.raises(ValueError):
        _ = r.device_latency_ns
    r.fetch_ns, r.device_done_ns, r.complete_ns = 10, 30, 50
    assert r.device_latency_ns == 20
    assert r.total_latency_ns == 50


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_overlap_symmetry_property(lba_a, size_a, lba_b, size_b):
    a, b = req(lba=lba_a, size=size_a), req(lba=lba_b, size=size_b)
    assert a.overlaps(b) == b.overlaps(a)


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**7))
def test_lba_end_covers_size_property(lba, size):
    r = req(lba=lba, size=size)
    covered_bytes = (r.lba_end - r.lba) * 512
    assert covered_bytes >= size
    assert covered_bytes - size < 512
