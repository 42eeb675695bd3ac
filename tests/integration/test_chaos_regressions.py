"""Chaos seeds that once broke the protocol or its audit, replayed whole.

Each case is one seeded 20 s campaign (≈ 0.3 s of host time) that must
audit clean.  The seeds:

* 74, 75, 110, 128, 146, 226, 258, 286 and 292 lost acked updates, or
  diverged, when a rejoining primary was served by a donor that lacked
  the acked suffix;
* 30, 57, 133, 259, 282 and 289 left two primaries recovering forever
  (every candidate donor was itself recovering), which the audit hid
  until it judged recovering primaries;
* 291 broke a fix that put a never-committing sequencer in the donor
  rotation;
* 640 and 967 stuck behind a hole in a promoted sequencer's log;
* 1348 served reads from a CSN that went backwards: a recovering primary
  put an update in service, and the snapshot landed under it;
* 1874 gave one GSN to two requests: a primary was promoted in the same
  view change that re-admitted another, and never gathered the GSNs the
  old sequencer had assigned;
* 1187 was a false staleness report: the read was judged against a
  failover re-stamp issued after it was answered;
* ``membership_outage`` seed 45 was judged the same way: the outage held
  the stamp broadcast back until after the reads it stamped were answered.
"""

import pytest

from repro.experiments.chaos import run_campaign

SEEDS = (
    74, 75, 110, 128, 146, 226, 258, 286, 292,
    30, 57, 133, 259, 282, 289,
    291, 640, 967, 1187,
    1348, 1874,
)


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_seed_is_clean(seed):
    result = run_campaign(seed, duration=20.0)
    assert result.clean, result.violations


def test_membership_outage_seed_is_clean():
    result = run_campaign(45, duration=20.0, membership_outage=True)
    assert result.clean, result.violations
