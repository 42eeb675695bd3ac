"""Group membership: views, joins/leaves, crash eviction.

Members join named groups through a :class:`MembershipService` endpoint
(the stand-in for the Ensemble stack).  The service installs a new
:class:`View` — an immutable, rank-ordered member list with a monotonically
increasing view id — whenever membership changes, and multicasts it to all
members of the group (plus any observers).

Crash detection models a heartbeat detector rather than running one.  Each
member would beat every ``heartbeat_interval`` from its attach time, and
the service would sweep on its own grid, evicting a member whose last beat
landed more than ``suspect_timeout`` ago.  No beat is sent and no sweep
runs: the fabric tells the service of every fault transition
(:meth:`~repro.net.network.Network.watch_faults`), and for each member it
can no longer hear — crashed, cut off from it, slowed past ``suspect_timeout
- heartbeat_interval``, or in no group — the service schedules one check at
the sweep instant the beat detector would have evicted it at.  A member
heard again before that instant is not evicted.  Random loss never evicts
(DESIGN.md §8.4).  Rank order (= join order) is preserved across views,
which makes leader election deterministic (:attr:`View.leader`).
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


class Grid:
    """The instants of a timer armed at ``origin`` and re-armed every
    ``period``: ``origin + period``, then ``period`` later each time, by
    repeated addition — the floats its ``schedule(period)`` calls produce."""

    __slots__ = ("period", "_first", "_at")

    def __init__(self, origin: float, period: float) -> None:
        self.period = period
        self._first = self._at = origin + period

    def last_by(self, time: float) -> Optional[float]:
        """The last instant at or before ``time`` (None: there is none)."""
        at = self._at
        if at > time:
            at = self._first
            if at > time:
                return None
        period = self.period
        while at + period <= time:
            at += period
        self._at = at
        return at

    def first_after(self, time: float) -> float:
        """The first instant after ``time``."""
        last = self.last_by(time)
        return self._first if last is None else last + self.period


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
class ViewChangeMsg:
    view: View


@dataclass
class MembershipConfig:
    """Tuning knobs for the failure detector: the beat and sweep period and
    how long a member may go unheard."""

    heartbeat_interval: float = 0.25
    suspect_timeout: float = 1.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.suspect_timeout <= self.heartbeat_interval:
            raise ValueError("suspect_timeout must exceed heartbeat_interval")


class MembershipService(Endpoint):
    """Central membership coordinator (the Ensemble-stack stand-in).

    It is an ordinary network endpoint: joins and leaves reach it as
    messages, and views are installed by multicasting
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
        self._observers: list[Callable[[View], None]] = []
        self._watchers: dict[str, set[str]] = {}
        # Every member the detector watches, in admission order, with when
        # it was last heard from: kept current only while the service
        # cannot hear it (one it can hear is heard from now).
        self._heard: dict[str, float] = {}
        # The members the service can hear: since when, and a beat's mean
        # delay from each then.
        self._audible: dict[str, tuple[float, float]] = {}
        self._checks: set[float] = set()  # instants with a check scheduled
        self._sweeps: Optional[Grid] = None
        # Set by a check that found the service itself crashed, so the first
        # check after it recovers grants amnesty instead of mass-evicting
        # every member it could not hear while it was down.
        self._amnesty_pending = False
        # The views the fabric lost on their way, by (recipient, group):
        # each is sent again once the recipient can be reached, while it is
        # still its group's view (:meth:`_resend_lost_views`).
        self._lost_views: dict[tuple[str, str], View] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attached(self, network: Network, host) -> None:
        super().attached(network, host)
        self._sweeps = Grid(network.sim.now, self.config.heartbeat_interval)
        network.watch_faults(self._reassess)
        for member in self._heard:
            self._assess(member, admitted=True)

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
        """Synchronously add a member (initial topology construction and
        recovery).  The view is installed but not multicast: each caller
        hands the new views to the endpoints that hold them itself."""
        return self._admit(group, member, announce=False)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, JoinMsg):
            self._admit(payload.group, payload.member)
        elif isinstance(payload, LeaveMsg):
            self._evict(payload.group, payload.member, reason="leave")
        # Unknown payloads are ignored: the service is deaf to app traffic.

    def dropped(self, message: Message) -> None:
        """A view the fabric lost is kept for :meth:`_resend_lost_views`:
        a member that missed one would act on a stale view (name an
        evicted lazy publisher, say) until the group's next view change."""
        payload = message.payload
        if not isinstance(payload, ViewChangeMsg):
            return
        self._lost_views[(message.recipient, payload.view.group)] = payload.view
        if self._reachable(message.recipient):
            # Lost at random: no fault transition will come to resend it.
            self.sim.schedule(self.config.heartbeat_interval, self._resend_lost_views)

    def _reachable(self, member: str) -> bool:
        network = self.network
        return (
            network.is_up(self.name)
            and network.is_up(member)
            and not network.is_cut(self.name, member)
        )

    def _resend_lost_views(self) -> None:
        """Send each lost view that is still its group's view to its
        recipient, if it can be reached now; forget the superseded ones."""
        for key, view in list(self._lost_views.items()):
            recipient, group = key
            if self._views.get(group) is not view:
                del self._lost_views[key]
            elif self._reachable(recipient):
                del self._lost_views[key]
                self.send(recipient, ViewChangeMsg(view))

    def _admit(self, group: str, member: str, announce: bool = True) -> View:
        view = self.view_of(group)
        if member in view:
            return view
        new_view = View(group, view.view_id + 1, view.members + (member,))
        self._install(new_view, announce)
        if member not in self._heard:
            # A fresh member is credited as heard from now.
            self._heard[member] = self.now if self.network is not None else 0.0
            if self.network is not None:
                self._assess(member, admitted=True)
        return new_view

    def _evict(self, group: str, member: str, reason: str) -> None:
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

    def _install(self, view: View, announce: bool = True) -> None:
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
        if announce:
            recipients = set(view.members) | self._watchers.get(view.group, set())
            self.multicast(sorted(recipients), ViewChangeMsg(view))

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    def _beat_delay(self, member: str) -> Optional[float]:
        """A beat's mean delay from ``member``, or None if the service
        cannot hear it now: either end is down, ``member`` is in no group,
        a cut blocks ``member -> service``, or a beat would come too late
        to be counted before the next sweep."""
        network, config = self.network, self.config
        if not (
            network.is_up(self.name)
            and network.is_up(member)
            and getattr(network.endpoint(member), "joined_any", False)
            and not network.is_cut(member, self.name)
        ):
            return None
        delay = network.latency_for(member, self.name).mean_delay(64)
        return delay if delay <= config.suspect_timeout - config.heartbeat_interval else None

    def _reassess(self) -> None:
        """A fault transition: find whom the service can no longer hear,
        and resend the views lost on the way to whom it can reach again."""
        if self._lost_views:
            self._resend_lost_views()
        for member in self._heard:
            self._assess(member)
        if self._amnesty_pending or not self.network.is_up(self.name):
            # Come to the next sweep, which finds the service down or grants
            # the amnesty its outage earned.
            self._check_at(self._sweeps.first_after(self.now))

    def _assess(self, member: str, admitted: bool = False) -> None:
        """Whether the service can hear ``member`` now; when it can no longer
        (or cannot from its admission), schedule the check for it."""
        now = self.now
        delay = self._beat_delay(member)
        was = self._audible.get(member)
        if delay is not None:
            self._audible[member] = (now if was is None else was[0], delay)
            return
        if was is None:
            if admitted:
                self._check_for(member)
            return  # still unheard
        del self._audible[member]
        since, delay = was
        # Its last beat to land: one sent while it was heard.  One still in
        # flight lands unless a cut or a crashed service drops it.
        network = self.network
        lost_in_flight = not network.is_up(self.name) or network.is_cut(
            member, self.name
        )
        endpoint = network.endpoint(member)
        last = endpoint.beat_grid.last_by(now - delay if lost_in_flight else now)
        if last is not None and last >= since:
            self._heard[member] = last + delay
        self._check_for(member)

    def _check_for(self, member: str) -> None:
        """Schedule the check at the first sweep that finds ``member``
        unheard for longer than ``suspect_timeout`` (or the next one)."""
        heard, timeout = self._heard[member], self.config.suspect_timeout
        sweeps = self._sweeps
        at = sweeps.first_after(max(heard + timeout, self.now))
        while not heard < at - timeout:
            at += sweeps.period
        self._check_at(at)

    def _check_at(self, at: float) -> None:
        if at not in self._checks:
            self._checks.add(at)
            self.sim.schedule_at(at, self._check)

    def _check(self) -> None:
        """One sweep: evict every member unheard for ``suspect_timeout``."""
        now = self.now
        self._checks.discard(now)
        if not self.network.is_up(self.name):
            self._amnesty_pending = True
            return
        heard = self._heard
        if self._amnesty_pending:
            # The service just recovered from an outage during which no
            # member could reach it.  Members are only as stale as their
            # *delivery* gap, not their liveness: reset the clock for
            # everyone and let later sweeps re-detect the genuinely dead.
            self._amnesty_pending = False
            for member in heard:
                heard[member] = max(heard[member], now)
                if member not in self._audible:
                    self._check_for(member)
            self.trace.emit(
                now, "membership.amnesty", self.name, members=sorted(heard)
            )
            return
        deadline = now - self.config.suspect_timeout
        suspects = [
            member
            for member, seen in heard.items()
            if seen < deadline and member not in self._audible
        ]
        for member in suspects:
            self._assess(member)  # joined a group since it was admitted?
            if member in self._audible:
                continue
            del heard[member]
            for group in list(self._views):
                self._evict(group, member, reason="suspected")
