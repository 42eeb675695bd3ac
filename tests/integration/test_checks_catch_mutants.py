"""The chaos audit is shown to catch something: each row plants one bug
and pins seeds whose campaign the audit then fails, on the check meant to
catch it.  "The audit passes" is evidence only for a check that some broken
program fails.

Each mutant is a small patch of the sequential handler, applied with
``monkeypatch`` for one campaign.  Each row pins at most ten seeds.
"""

import dataclasses

import pytest

from repro.core.handlers.catchup import CatchUp
from repro.core.handlers.sequential import SequentialReplicaHandler
from repro.core.requests import RequestKind
from repro.experiments.chaos import run_campaign


def snapshot_never_lands(monkeypatch):
    """A rejoining primary never installs the sequencer's snapshot."""
    monkeypatch.setattr(
        CatchUp, "_on_state_transfer_snapshot", lambda self, snap: None
    )


def sequencer_stops_applying(monkeypatch):
    """The sequencer binds the updates it assigns but never applies them:
    the old semantics, where its commit frontier froze at promotion."""
    drain = SequentialReplicaHandler._drain_commit_queue

    def mutant(self):
        if not self.is_sequencer:
            drain(self)

    monkeypatch.setattr(SequentialReplicaHandler, "_drain_commit_queue", mutant)


def secondary_serves_past_threshold(monkeypatch):
    """A secondary serves reads up to 5 versions staler than asked."""
    bind = SequentialReplicaHandler._bind

    def mutant(self, pending, gsn):
        request = pending.request
        if self.is_secondary and request.kind is RequestKind.READ:
            qos = dataclasses.replace(
                request.qos, staleness_threshold=request.qos.staleness_threshold + 5
            )
            pending.request = dataclasses.replace(request, qos=qos)
        bind(self, pending, gsn)

    monkeypatch.setattr(SequentialReplicaHandler, "_bind", mutant)


#: (mutant, the checks meant to catch it, seeds where they do).  Caught on
#: 20/20 of seeds 0–19 (the audit before the recovery check: 0/20), on
#: every regression seed (21/21), and on 15/50 of seeds 0–49.
ROWS = [
    (snapshot_never_lands, ("recovery",), range(10)),
    (
        sequencer_stops_applying,
        ("order", "durability"),
        (74, 75, 110, 128, 146, 226, 258, 286, 292, 30),
    ),
    (
        secondary_serves_past_threshold,
        ("staleness",),
        (0, 4, 6, 15, 17, 21, 26, 27, 28, 36),
    ),
]


@pytest.mark.parametrize(
    "mutate, checks, seed",
    [
        pytest.param(mutate, checks, seed, id=f"{mutate.__name__}-{seed}")
        for mutate, checks, seeds in ROWS
        for seed in seeds
    ],
)
def test_audit_catches_the_mutant(monkeypatch, mutate, checks, seed):
    mutate(monkeypatch)
    violations = run_campaign(seed, duration=20.0).violations
    caught = {v.split(":", 1)[0] for v in violations}
    assert caught & set(checks), violations
