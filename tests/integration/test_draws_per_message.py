"""A message that is not sent draws nothing.

A lazy ack and a stamp for a replica the read does not name are *kept*, not
sent: their link owes the draw eager drawing would have taken, and pays it
in bulk (``skip``) just before its next real one.  So over a seeded
fault-free cell ``LatencyModel.delay`` runs once per message sent, where it
used to run for every kept message too: 2,599 times for 1,313 sends on the
§6 cell below and 2,972 for 1,532 on the 4 + 28 open-loop cell.
"""

import pytest

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import LatencyModel
from repro.sim.rng import Normal
from repro.workloads.generators import OpenLoopUpdater, PoissonReader
from repro.workloads.scenarios import build_paper_scenario


@pytest.fixture
def delay_calls(monkeypatch):
    calls = []
    delay = LatencyModel.delay

    def counting(self, message, rng):
        calls.append(None)
        return delay(self, message, rng)

    monkeypatch.setattr(LatencyModel, "delay", counting)
    return calls


def paper_cell():
    scenario = build_paper_scenario(
        deadline=0.16,
        min_probability=0.9,
        lazy_update_interval=2.0,
        staleness_threshold=2,
        total_requests=40,
        seed=7,
    )
    scenario.run()
    return scenario.testbed


def open_loop_4_28():
    testbed = build_testbed(
        ServiceConfig(
            num_primaries=4,
            num_secondaries=28,
            window_size=40,
            read_service_time=Normal(0.050, 0.020, floor=0.005),
        ),
        seed=11,
    )
    service = testbed.service
    PoissonReader(
        testbed.sim,
        service.create_client("reader", read_only_methods={"get"}),
        testbed.rng,
        QoSSpec(staleness_threshold=4, deadline=0.200, min_probability=0.9),
        rate=12.0,
        duration=3.0,
    )
    OpenLoopUpdater(
        testbed.sim,
        service.create_client("feed", read_only_methods={"get"}),
        testbed.rng,
        rate=0.5,
        duration=3.0,
    )
    testbed.sim.run(until=5.0)
    return testbed


@pytest.mark.parametrize("cell", [paper_cell, open_loop_4_28], ids=["paper_cell", "open_loop_4_28"])
def test_one_latency_draw_per_message_sent(cell, delay_calls):
    network = cell().network
    assert network.fault_free
    assert network.messages_dropped.value == 0
    assert network.messages_sent.value > 500
    assert len(delay_calls) == network.messages_sent.value
