"""Each message sent takes one value of its link's delay stream.

A link's delays are a block stream (``repro.sim.rng``): its cursor says how
many blocks it has drawn and how many of the last block's values are still
unread, so the values a link has taken are read off the cursor.  Over a
seeded fault-free cell every message sent takes exactly one — a lazy ack
or a stamp for a replica the read does not name is never sent, and takes
none.
"""

import pytest

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.sim.rng import Normal, block_size
from repro.workloads.generators import OpenLoopUpdater, PoissonReader
from repro.workloads.scenarios import build_paper_scenario


def values_taken(link):
    """The delays ``link`` has handed out so far."""
    return sum(block_size(k) for k in range(link.block)) - len(link.values)


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
def test_one_latency_draw_per_message_sent(cell):
    network = cell().network
    assert network.messages_dropped.value == 0
    assert network.messages_sent.value > 400
    links = list(network._records.values())
    assert sum(values_taken(link) for link in links) == network.messages_sent.value
    assert all(values_taken(link) > 0 for link in links)
