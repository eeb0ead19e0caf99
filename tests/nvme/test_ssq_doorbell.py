"""Property test: SSQ doorbells skipped after a fetch stall change nothing.

After a fetch stalls on a slot-blocked head, ``SSQDriver.submit`` does
not ring the doorbell for a request that joins a non-empty queue: the
re-fetch would see the same queues, tokens, head and in-flight counts.
The reference driver below always rings.  On a small-queue-depth device
with random weights, overlapping addresses (so the consistency check
redirects) and a weight change mid-run, both must complete the same
requests at the same times and count the same redirects.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvme.ssq import SSQDriver
from repro.sim.engine import Simulator
from repro.ssd.controller import SSDController
from repro.ssd.device import SSD
from repro.workloads.request import IORequest, OpType
from tests.conftest import FAST_SSD


class AlwaysRings(SSQDriver):
    """An SSQ driver that rings the doorbell on every submit."""

    def submit(self, request: IORequest, *, now_ns: int | None = None) -> None:
        self._stalled = False
        super().submit(request, now_ns=now_ns)


def run(driver_cls, config, rows, weights, new_weights, switch_ns, until=None):
    """Replay ``rows`` into a fresh device; weights change at ``switch_ns``."""
    sim = Simulator()
    ssd = SSD(sim, config)
    driver = driver_cls(*weights)
    driver.connect(ssd)
    ssd.set_cq_listener(ssd.auto_drain)
    controller = ssd.controller
    for arrival, is_read, lba, size in rows:
        request = IORequest(arrival, OpType.READ if is_read else OpType.WRITE, lba, size)
        sim.schedule_at_anon(arrival, _submit, driver, sim, request)
    sim.schedule_at_anon(switch_ns, driver.set_weights, *new_weights)
    sim.run(until=until)
    log = [
        (t, r.arrival_ns, r.op, r.lba, r.size_bytes, r.fetch_ns)
        for t, r in controller.completion_log
    ]
    return log, driver, controller, sim.events_dispatched


def _submit(driver, sim, request) -> None:
    driver.submit(request, now_ns=sim.now)


def trace_rows(gaps, ops, lbas, sizes):
    rows, t = [], 0
    for gap, is_read, lba, size in zip(gaps, ops, lbas, sizes):
        t += gap
        rows.append((t, is_read, lba, size * 512))
    return rows


weights = st.tuples(st.integers(1, 8), st.integers(1, 8))


@settings(max_examples=40, deadline=None)
@given(
    queue_depth=st.integers(2, 6),
    policy=st.sampled_from(("write_through", "write_back")),
    initial=weights,
    changed=weights,
    n=st.integers(10, 80),
    data=st.data(),
)
def test_skipped_doorbells_change_no_completion(
    queue_depth, policy, initial, changed, n, data
):
    config = dataclasses.replace(
        FAST_SSD, queue_depth=queue_depth, write_cache_policy=policy
    )
    rows = trace_rows(
        data.draw(st.lists(st.integers(0, 3_000), min_size=n, max_size=n)),
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        # 64 sectors = 8 dependency buckets: requests overlap often.
        data.draw(st.lists(st.integers(0, 63), min_size=n, max_size=n)),
        data.draw(st.lists(st.integers(1, 32), min_size=n, max_size=n)),
    )
    switch_ns = data.draw(st.integers(0, rows[-1][0]))
    got, driver, _, events = run(SSQDriver, config, rows, initial, changed, switch_ns)
    want, reference, _, want_events = run(
        AlwaysRings, config, rows, initial, changed, switch_ns
    )
    assert got == want
    assert len(got) == n
    assert driver.consistency_redirects == reference.consistency_redirects
    assert driver.fetched == reference.fetched
    assert events == want_events


def test_saturated_device_kicks_less_than_it_submits(monkeypatch):
    # Up to the last arrival, as the training sweep measures: the device
    # falls ever further behind, so most submits find fetch stalled.
    kicks: dict[SSDController, int] = {}
    kick = SSDController.kick

    def counting_kick(controller: SSDController) -> None:
        kicks[controller] = kicks.get(controller, 0) + 1
        kick(controller)

    monkeypatch.setattr(SSDController, "kick", counting_kick)
    config = dataclasses.replace(FAST_SSD, queue_depth=4)
    n = 400
    rows = trace_rows(
        [200] * n, [i % 3 != 0 for i in range(n)], [64 * i for i in range(n)], [16] * n
    )
    args = (config, rows, (1, 4), (1, 2), rows[n // 2][0], rows[-1][0])
    got, driver, controller, _ = run(SSQDriver, *args)
    want, _, reference, _ = run(AlwaysRings, *args)
    assert got == want
    assert driver.submitted == n
    assert kicks[reference] >= n
    assert kicks[controller] < n
