"""Group-communication substrate (Maestro/Ensemble stand-in).

The paper's middleware "depend[s] on Maestro-Ensemble to provide reliable,
virtual synchrony, and FIFO messaging guarantees ... and to inform the
group members when changes in the group membership occur", with a leader
elected per group.  This package provides exactly those guarantees over the
simulated network:

* :mod:`repro.groups.membership` — views (whose rank-0 member is the
  group's leader) and a membership service that installs new views on
  join/leave/crash (a crash evicted when a heartbeat detector would have,
  from the fabric's fault transitions; no beat is sent);
* :mod:`repro.groups.multicast` — reliable (the fabric's drop reports,
  each resent at its deadline), per-sender FIFO group multicast with
  duplicate suppression;
* :mod:`repro.groups.group` — :class:`GroupEndpoint`, the base class
  protocol handlers inherit to participate in groups.
"""

from repro.groups.membership import MembershipConfig, MembershipService, View
from repro.groups.group import GroupEndpoint

__all__ = [
    "MembershipConfig",
    "MembershipService",
    "View",
    "GroupEndpoint",
]
