"""Every message the fabric numbers enters through ``Network.send``.

The perf ledger's tracer (``benchmarks/ledger/tracer.py``) bills the ``net``
layer by wrapping ``Network.send``, and the tests' network spies override
it.  The group layer holds each peer's ``Link`` record, so a private fast
path that builds and schedules a ``Message`` off the record is one line
away — and would leave the tracer and every spy blind to it.  Here the
same class-level wrap collects the ``msg_id`` of each message ``send``
returns, and the fabric's own ``msg_id`` counter says how many it numbered:
the two must be the same ids.
"""

import pytest

from repro.experiments.chaos import run_campaign
from repro.net.network import Network
from repro.workloads.scenarios import build_paper_scenario


@pytest.fixture
def entered(monkeypatch):
    """``{network: msg_ids of the messages Network.send returned}``."""
    ids = {}
    send = Network.send

    def recording_send(net, sender, recipient, payload, size_bytes=256):
        message = send(net, sender, recipient, payload, size_bytes)
        ids.setdefault(net, []).append(message.msg_id)
        return message

    monkeypatch.setattr(Network, "send", recording_send)
    return ids


def numbered(net):
    return list(range(1, next(net._msg_ids)))  # msg_ids run from 1


def test_a_paper_cell_sends_every_message_through_network_send(entered):
    scenario = build_paper_scenario(total_requests=60, seed=3)
    scenario.run()
    net = scenario.testbed.network
    assert entered[net] == numbered(net)
    assert len(entered[net]) > 500


def test_a_fault_campaign_sends_every_message_through_network_send(entered):
    run_campaign(seed=5, duration=2.0)
    [(net, ids)] = entered.items()
    assert ids == numbered(net)
    assert len(ids) > 500
