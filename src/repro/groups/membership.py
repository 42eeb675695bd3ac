"""Group membership: views, joins/leaves, heartbeat-based crash eviction.

Members join named groups through a :class:`MembershipService` endpoint
(the stand-in for the Ensemble stack).  The service installs a new
:class:`View` — an immutable, rank-ordered member list with a monotonically
increasing view id — whenever membership changes, and multicasts it to all
members of the group (plus any observers).

Crash detection: members periodically send heartbeats (scheduled by
:class:`~repro.groups.group.GroupEndpoint`); the service sweeps for members
whose last heartbeat is older than ``suspect_timeout`` and evicts them.
On a fault-free fabric (:attr:`~repro.net.network.Network.fault_free`, fixed
before the clock starts) no beat can go missing, so none is sent: the sweep
counts a member as heard from when its endpoint would have beaten.  Once
every tracked member beats that way a sweep has nothing left to do, so the
chain stops until the next admission or eviction.
Rank order (= join order) is preserved across views, which makes leader
election deterministic (:attr:`View.leader`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.message import Message
from repro.net.network import Endpoint, Network
from repro.sim.tracing import NULL_TRACE, Trace


@dataclass(frozen=True)
class View:
    """An installed membership view: ordered member names + view id."""

    group: str
    view_id: int
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.view_id < 0:
            raise ValueError(f"negative view id {self.view_id!r}")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members in view: {self.members!r}")

    @property
    def leader(self) -> Optional[str]:
        """The rank-0 member, or None for an empty view.

        Every member learns the same view from the membership service, so
        all agree on the leader without extra messages.
        """
        return self.members[0] if self.members else None

    def __contains__(self, member: str) -> bool:
        return member in self.members

    def __len__(self) -> int:
        return len(self.members)


def walk_grid(since: float, period: float, now: float) -> float:
    """Where a periodic chain that went idle at ``since`` stands at ``now``.

    The chain would have fired at ``since + k·period``, by repeated addition:
    the floats its own ``schedule(period)`` calls produce.  Returns the last
    of those firings that is past, and the chain resumes one ``period``
    after it.  A firing due at ``now`` itself is still to come, so it runs
    after whatever is happening now.
    """
    last = since
    while last + period < now:
        last += period
    return last


# ---------------------------------------------------------------------------
# Wire payloads
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class JoinMsg:
    group: str
    member: str


@dataclass(frozen=True)
class LeaveMsg:
    group: str
    member: str


@dataclass(frozen=True)
class HeartbeatMsg:
    member: str
    groups: tuple[str, ...]


@dataclass(frozen=True)
class ViewChangeMsg:
    view: View


@dataclass
class MembershipConfig:
    """Tuning knobs for the failure detector, which sweeps once per
    heartbeat."""

    heartbeat_interval: float = 0.25
    suspect_timeout: float = 1.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.suspect_timeout <= self.heartbeat_interval:
            raise ValueError("suspect_timeout must exceed heartbeat_interval")


class MembershipService(Endpoint):
    """Central membership coordinator (the Ensemble-stack stand-in).

    It is an ordinary network endpoint: joins, leaves, and heartbeats reach
    it as messages, and views are installed by multicasting
    :class:`ViewChangeMsg` to members.  It can itself be crashed by the
    fault injector to study membership-service outages.
    """

    DEFAULT_NAME = "membership"

    def __init__(
        self,
        name: str = DEFAULT_NAME,
        config: Optional[MembershipConfig] = None,
        trace: Trace = NULL_TRACE,
    ) -> None:
        super().__init__(name)
        self.config = config or MembershipConfig()
        self.trace = trace
        self._views: dict[str, View] = {}
        self._last_heartbeat: dict[str, float] = {}
        self._observers: list[Callable[[View], None]] = []
        self._watchers: dict[str, set[str]] = {}
        # Set while the service itself is crashed, so the first sweep
        # after it recovers grants heartbeat amnesty instead of
        # mass-evicting every member whose heartbeats it slept through.
        self._amnesty_pending = False
        # The sweep that found nothing left to do and stopped the chain, on
        # a fault-free fabric; None while the chain runs.
        self._idle_since: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attached(self, network: Network, host) -> None:
        super().attached(network, host)
        self._schedule_sweep()

    def _schedule_sweep(self) -> None:
        self.sim.schedule(self.config.heartbeat_interval, self._sweep)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def view_of(self, group: str) -> View:
        """Current view of ``group`` (empty view if never joined)."""
        view = self._views.get(group)
        if view is None:
            view = View(group, 0, ())
            self._views[group] = view
        return view

    def groups(self) -> list[str]:
        return sorted(self._views)

    def observe(self, callback: Callable[[View], None]) -> None:
        """Invoke ``callback`` on every installed view (for experiments)."""
        self._observers.append(callback)

    def watch(self, group: str, endpoint: str) -> None:
        """Deliver future view changes of ``group`` to a non-member.

        Clients watch the replica groups they select from; primaries watch
        the secondary group they lazily update, and vice versa.
        """
        self._watchers.setdefault(group, set()).add(endpoint)

    # ------------------------------------------------------------------
    # Local API (used for initial wiring before the simulation starts)
    # ------------------------------------------------------------------
    def register(self, group: str, member: str) -> View:
        """Synchronously add a member (initial topology construction)."""
        return self._admit(group, member)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, JoinMsg):
            self._admit(payload.group, payload.member)
        elif isinstance(payload, LeaveMsg):
            self._evict(payload.group, payload.member, reason="leave")
        elif isinstance(payload, HeartbeatMsg):
            self._last_heartbeat[payload.member] = self.now
        # Unknown payloads are ignored: the service is deaf to app traffic.

    def beats_land_in_time(self, member: str, interval: float) -> bool:
        """Whether beats sent every ``interval`` over ``member``'s link can
        be taken as received: the fabric trusts the link, with a beat's
        mean delay leaving it ``interval`` to spare inside
        ``suspect_timeout``, or the very first one could arrive after the
        member was suspected."""
        assert self.network is not None
        return self.network.trusted(
            member,
            self.name,
            self.config.suspect_timeout - interval,
            size_bytes=64,
            margin=1.0,
        )

    def _admit(self, group: str, member: str) -> View:
        self._resume_sweeps()
        view = self.view_of(group)
        if member in view:
            return view
        new_view = View(group, view.view_id + 1, view.members + (member,))
        self._install(new_view)
        # A fresh member gets heartbeat credit so it is not evicted before
        # its first heartbeat fires.
        now = self.now if self.network is not None else 0.0
        self._last_heartbeat.setdefault(member, now)
        return new_view

    def _evict(self, group: str, member: str, reason: str) -> None:
        self._resume_sweeps()
        view = self.view_of(group)
        if member not in view:
            return
        members = tuple(m for m in view.members if m != member)
        new_view = View(group, view.view_id + 1, members)
        self.trace.emit(
            self.now if self.network else 0.0,
            "membership.evict",
            member,
            group=group,
            reason=reason,
        )
        self._install(new_view)

    def _install(self, view: View) -> None:
        self._views[view.group] = view
        for observer in self._observers:
            observer(view)
        if self.network is None:
            return
        self.trace.emit(
            self.now,
            "membership.view",
            view.group,
            view_id=view.view_id,
            members=list(view.members),
        )
        recipients = set(view.members) | self._watchers.get(view.group, set())
        self.multicast(sorted(recipients), ViewChangeMsg(view))

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        if self.network is not None and self.network.is_up(self.name):
            if self._amnesty_pending:
                # The service just recovered from an outage during which
                # no heartbeat could reach it.  Members are only as stale
                # as their *delivery* gap, not their liveness: reset the
                # clock for everyone and let the next sweeps re-detect the
                # genuinely dead (they stay silent; the live re-heartbeat
                # within one heartbeat interval).
                self._amnesty_pending = False
                for member in self._last_heartbeat:
                    self._last_heartbeat[member] = max(
                        self._last_heartbeat[member], self.now
                    )
                self.trace.emit(
                    self.now,
                    "membership.amnesty",
                    self.name,
                    members=sorted(self._last_heartbeat),
                )
            deadline = self.now - self.config.suspect_timeout
            suspects = [
                member
                for member, seen in self._last_heartbeat.items()
                if seen < deadline
            ]
            if suspects and self.network.fault_free:
                suspects = [m for m in suspects if not self._heard_lazily(m)]
            for member in suspects:
                del self._last_heartbeat[member]
                for group in list(self._views):
                    self._evict(group, member, reason="suspected")
        elif self.network is not None:
            self._amnesty_pending = True
        if self.network.fault_free and all(
            map(self._beats_lazily, self._last_heartbeat)
        ):
            # All a sweep could do now is credit lazy beats, and no fault can
            # come to make one of them go missing: stop here.
            self._idle_since = self.now
        else:
            self._schedule_sweep()

    def _resume_sweeps(self) -> None:
        """Re-arm an idle sweep on the grid its chain would have walked
        (:func:`walk_grid`) when a member is admitted or evicted.  A sweep
        due at this very instant still runs, after it."""
        if self._idle_since is None:
            return
        interval = self.config.heartbeat_interval
        last = walk_grid(self._idle_since, interval, self.now)
        self._idle_since = None
        self.sim.schedule_at(last + interval, self._sweep)

    def _beats_lazily(self, member: str) -> bool:
        """Whether ``member``'s endpoint is up, due to beat and not sending
        (``GroupEndpoint.beats_lazily``)."""
        network = self.network
        return network.is_up(member) and getattr(
            network.endpoint(member), "beats_lazily", False
        )

    def _heard_lazily(self, member: str) -> bool:
        """Fault-free fabric: a member whose endpoint beats lazily is
        heard from now."""
        if self._beats_lazily(member):
            self._last_heartbeat[member] = self.now
            return True
        return False
