"""The chaos audit is shown to catch something: each row plants one bug
and pins seeds whose campaign the audit then fails, on the check meant to
catch it.  "The audit passes" is evidence only for a check that some broken
program fails.

Each mutant is a small patch of the sequential handler or of the group
layer, applied with ``monkeypatch`` for one campaign.  Each row pins at most
ten seeds.
"""

import dataclasses

import pytest

from repro.core.handlers.catchup import CatchUp
from repro.core.handlers.sequential import SequentialReplicaHandler
from repro.core.requests import LazyUpdate, RequestKind
from repro.experiments.chaos import run_campaign
from repro.groups.multicast import FifoSender
from repro.sim.rng import seed_for


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


def sender_ignores_drop_reports(monkeypatch):
    """A group message the fabric drops is never resent."""
    monkeypatch.setattr(FifoSender, "on_ack", lambda self, dropped: None)


def lazy_update_drop_ignored(monkeypatch):
    """A lazy update the fabric drops is never resent; everything else is."""
    on_ack = FifoSender.on_ack

    def mutant(self, dropped):
        if not isinstance(dropped.payload.payload, LazyUpdate):
            on_ack(self, dropped)

    monkeypatch.setattr(FifoSender, "on_ack", mutant)


def watchdog_resumes_on_read_stamps_alone(monkeypatch):
    """Only a read stamp resumes an idle commit-gap watchdog, so a
    sequencer's, which sees no stamp, never runs again."""
    watch = CatchUp.watch_gap
    monkeypatch.setattr(CatchUp, "watch_gap", lambda self: None)
    bind = SequentialReplicaHandler._bind

    def mutant(self, pending, gsn):
        bind(self, pending, gsn)
        if pending.request.kind is RequestKind.READ:
            watch(self.catchup)

    monkeypatch.setattr(SequentialReplicaHandler, "_bind", mutant)


#: (mutant, the checks meant to catch it, seeds where they do).  Caught on
#: 20/20 of seeds 0–19 (the audit before the recovery check: 0/20), on
#: every regression seed (21/21), on 14/50 of seeds 0–49, and on 43/50 of
#: seeds 0–49.  The last two rows were 16/50 and 40/50 while link delays
#: were drawn one ``random.gauss`` per message; the block-drawn delays
#: moved four of the third row's seeds (4, 17, 26, 36) out of its catch
#: set, and it now pins the first ten seeds that catch it.
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
        (0, 10, 15, 20, 21, 27, 28, 30, 33, 38),
    ),
    (
        sender_ignores_drop_reports,
        ("recovery", "order", "durability"),
        (0, 1, 2, 4, 5, 7, 8, 9, 13, 14),
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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: the audit misses a dropped lazy update; a later "
    "update's snapshot or the rejoin's fresh epoch covers the hole",
)
def test_audit_catches_a_dropped_lazy_update(monkeypatch):
    """The open row: the mutant is live (campaigns drop lazy updates: 140
    over seeds 0–9) but no check fails on any of seeds 0–59."""
    lazy_update_drop_ignored(monkeypatch)
    caught = [seed for seed in range(10) if run_campaign(seed, duration=20.0).violations]
    assert caught


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: the audit misses a sequencer left unsynced; its "
    "reads come late and its updates go unacked, and no check counts either",
)
def test_audit_catches_a_watchdog_that_resumes_only_on_read_stamps(monkeypatch):
    """The open row: on ``repro chaos`` seed 35 the mutant leaves the promoted
    sequencer unsynced — 147 of 255 reads late and 9 of 99 updates acked,
    against 0 and 99 — yet every check passes.  On the other 149 seeds of
    ``repro chaos --seeds 150`` it changes nothing."""
    watchdog_resumes_on_read_stamps_alone(monkeypatch)
    result = run_campaign(seed_for(0, "chaos", 35), duration=20.0)
    assert result.violations
