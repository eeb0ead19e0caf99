"""Unit-conversion tests."""

import pytest

from repro.sim import units


def test_time_constants_are_nanoseconds():
    assert units.NS == 1
    assert units.US == 1_000
    assert units.MS == 1_000_000
    assert units.SEC == 1_000_000_000


def test_size_constants():
    assert units.KIB == 1024
    assert units.MIB == 1024**2
    assert units.GIB == 1024**3


def test_gbps_constant_is_bytes_per_ns():
    # 1 Gbps = 0.125 GB/s = 0.125 bytes/ns.
    assert units.GBPS == pytest.approx(0.125)


def test_throughput_gbps_inverse_of_rate():
    # Moving 5 GB in one second is 40 Gbps.
    assert units.throughput_gbps(5_000_000_000, units.SEC) == pytest.approx(40.0)


def test_bytes_per_ns_rejects_bad_duration():
    with pytest.raises(ValueError):
        units.bytes_per_ns(10, 0)

