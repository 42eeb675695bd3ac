"""GroupEndpoint: the base class for protocol participants.

A :class:`GroupEndpoint` is a network endpoint that

* maintains local copies of the views of every group it belongs to or
  watches, updated by :class:`~repro.groups.membership.ViewChangeMsg`;
* sends periodic heartbeats to the membership service so crashes are
  detected and evicted — for real once the fabric expects faults, and
  evaluated at the service's sweep without being sent while it is
  fault-free (no beat can go missing there, so none is put on the wire);
* offers reliable FIFO group messaging (``gmcast`` / ``gsend``) built on
  :mod:`repro.groups.multicast` — settled at the sender the instant it is
  delivered while the fabric is fault-free and the channel fast (no ack
  can go missing there, so none is sent), acked on the wire otherwise;
* dispatches inbound traffic to overridable hooks:
  :meth:`on_group_message` (reliable FIFO payloads),
  :meth:`on_view_change`, and :meth:`on_message` (plain unicasts).

The middleware's gateway handlers (:mod:`repro.core`) all inherit from it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Collection, Optional

from repro.groups.membership import (
    HeartbeatMsg,
    JoinMsg,
    LeaveMsg,
    MembershipService,
    View,
    ViewChangeMsg,
    walk_grid,
)
from repro.groups.multicast import (
    FifoReceiver,
    FifoSender,
    GroupAckMsg,
    GroupDataMsg,
)
from repro.net.message import Message
from repro.net.network import Endpoint, Network
from repro.net.node import Host


#: A message is settled at delivery only while its channel's modelled round
#: trip (mean delay of the data out plus the ack back) times this margin is
#: inside ``rto``, so that no ack could have come back late.  A LAN's ~0.6 ms
#: against 50 ms is; a WAN's ~100 ms genuinely retransmits and is not.
ACK_ROUND_TRIP_MARGIN = 4.0


class GroupEndpoint(Endpoint):
    """A network endpoint that participates in membership-managed groups."""

    def __init__(
        self,
        name: str,
        membership: str = MembershipService.DEFAULT_NAME,
        heartbeat_interval: float = 0.25,
        rto: float = 0.05,
    ) -> None:
        super().__init__(name)
        self.membership_name = membership
        self.heartbeat_interval = heartbeat_interval
        self._rto = rto
        self.views: dict[str, View] = {}
        self._joined: set[str] = set()
        # The frozen heartbeat payload for the current ``_joined``; built on
        # the first beat after a membership change, then reused.
        self._heartbeat_msg: Optional[HeartbeatMsg] = None
        # The first tick of the beats that are evaluated at the sweep and not
        # sent; None while this endpoint beats for real.
        self._lazy_since: Optional[float] = None
        # Recipient -> _ack_draw's verdict on the channel to it.
        self._ack_draws: dict[str, Optional[Callable[[], float]]] = {}
        self._sender: Optional[FifoSender] = None
        self._receiver: Optional[FifoReceiver] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attached(self, network: Network, host: Optional[Host]) -> None:
        super().attached(network, host)
        self._sender = FifoSender(
            self.sim, self.name, self._raw_send, rto=self._rto
        )
        self._receiver = FifoReceiver(self._fifo_deliver, self._fifo_ack)
        self.sim.schedule(self.heartbeat_interval, self._first_heartbeat)

    def _raw_send(self, recipient: str, payload: Any, size_bytes: int) -> bool:
        """Transmit; true when the message will be settled at delivery.

        Runs for every group message, so it reads what is already resolved:
        the fabric's fault-free fact (false from the instant
        ``expect_faults`` flips it) and the cached verdict on the channel.
        """
        network = self.network
        network.send(self.name, recipient, payload, size_bytes)
        if not network.fault_free:
            return False
        draws = self._ack_draws
        if recipient in draws:
            return draws[recipient] is not None
        return self._ack_draw(recipient) is not None

    def _ack_draw(self, recipient: str) -> Optional[Callable[[], float]]:
        """Judge, once, how a message to ``recipient`` is acked while the
        fabric is fault-free: on the wire (None), or settled at delivery —
        by a call that draws the unsent ack's delay all the same, because
        its link stream is shared with the data flowing the other way.

        Judged at the first transmit, not in :meth:`attached`, so every link
        and fault injector set up before the clock starts is seen;
        ``set_link`` after that ends the fault-free state.
        """
        network, sender = self.network, self._sender
        if not self._ack_draws:
            network.on_first_fault(sender.expect_loss)
        out = network.latency_for(self.name, recipient)
        back = network.latency_for(recipient, self.name)
        round_trip = out.mean_delay() + back.mean_delay(64)
        draw = None
        if network.is_up(recipient) and (
            ACK_ROUND_TRIP_MARGIN * round_trip < sender.rto
        ):
            ack = Message(recipient, self.name, None, self.now, 64)
            stream = network.rng.stream(f"net.link.{recipient}->{self.name}")
            draw = partial(back.delay, ack, stream)
        self._ack_draws[recipient] = draw
        return draw

    def _fifo_ack(self, origin: str, data: GroupDataMsg) -> None:
        network = self.network
        if network.fault_free:
            # No ack can go missing: where the origin vouched for the
            # channel, settle the message there, now.
            peer = network.endpoint(origin)
            draw = peer._ack_draws.get(self.name)
            if draw is not None:
                draw()
                peer._sender.on_ack(data, self.name)
                return
        ack = GroupAckMsg(data.group, origin, data.seq, data.epoch)
        network.send(self.name, origin, ack, 64)

    @property
    def up(self) -> bool:
        """False while this endpoint is crashed (timers should no-op)."""
        return self.network is not None and self.network.is_up(self.name)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, group: str) -> None:
        """Join a group (asynchronously, via the membership service)."""
        self._joined.add(group)
        self._heartbeat_msg = None
        self.send(self.membership_name, JoinMsg(group, self.name), size_bytes=64)

    def assume_membership(self, group: str) -> None:
        """Mark this endpoint as a member without a join round-trip.

        Used by topology builders that register members directly with the
        membership service before the simulation starts; it arms the
        heartbeat path so crash detection works from t=0.
        """
        self._joined.add(group)
        self._heartbeat_msg = None

    def leave(self, group: str) -> None:
        self._joined.discard(group)
        self._heartbeat_msg = None
        self.send(self.membership_name, LeaveMsg(group, self.name), size_bytes=64)

    def adopt_view(self, view: View) -> None:
        """Install a view locally (initial wiring or ViewChangeMsg).

        The one place a view is installed: whatever is derived from the
        views (:meth:`_refresh_roles`) is re-derived here, before
        :meth:`on_view_change` runs.
        """
        previous = self.views.get(view.group)
        if previous is not None and previous.view_id >= view.view_id:
            return
        self.views[view.group] = view
        self._refresh_roles()
        if self._sender is not None and previous is not None:
            for member in previous.members:
                if member not in view:
                    self._sender.forget_recipient(view.group, member)
            for member in view.members:
                if member not in previous and member != self.name:
                    # A newly (re)joined member: open a fresh channel
                    # epoch so it does not wait on sequence numbers from
                    # before its join/crash.
                    self._sender.reset_channel(view.group, member)
        self.on_view_change(view, previous)

    def view_of(self, group: str) -> View:
        view = self.views.get(group)
        if view is None:
            view = View(group, 0, ())
            self.views[group] = view
        return view

    def is_member(self, group: str) -> bool:
        return self.name in self.view_of(group)

    @property
    def beats_lazily(self) -> bool:
        """True while this endpoint's beats are due but not sent: the
        membership sweep counts the member as heard from instead."""
        return self._lazy_since is not None and bool(self._joined)

    def _first_heartbeat(self) -> None:
        """The first tick: beat, unless no beat of this endpoint can go missing.

        That is the case while the fabric is fault-free and the service
        vouches that the link to it is fast enough.  The endpoint then
        arms no timer and sends nothing until the fabric says a fault is
        coming (:meth:`_resume_heartbeats`).  Decided here and not in
        :meth:`attached`, so every link and fault injector set up before
        the clock starts is seen.
        """
        network = self.network
        assert network is not None
        service = (
            network.endpoint(self.membership_name)
            if network.fault_free and network.is_up(self.membership_name)
            else None
        )
        if isinstance(service, MembershipService) and service.beats_land_in_time(
            self.name, self.heartbeat_interval
        ):
            self._lazy_since = self.now
            network.on_first_fault(self._resume_heartbeats)
        else:
            self._heartbeat()

    def _resume_heartbeats(self) -> None:
        """A fault is about to apply: account for the beats not sent, then
        beat for real on the tick grid the timer chain would have walked.

        The service is credited with the arrival of the latest tick (one
        modelled link delay after it), or of the tick before while that one
        would still be in flight.  A tick due at this very instant counts as
        past (:func:`~repro.groups.membership.walk_grid`).
        """
        assert self.network is not None and self._lazy_since is not None
        now = self.now
        interval = self.heartbeat_interval
        landed, tick = walk_grid(self._lazy_since, interval, now, due_now_ran=True)
        self._lazy_since = None
        if self._joined:
            service = self.network.endpoint(self.membership_name)
            delay = service.beat_delay(self.name)
            if tick + delay <= now:
                landed = tick
            if landed is not None:
                service.heard_from(self.name, landed + delay)
        self.sim.schedule_at(tick + interval, self._heartbeat)

    def _heartbeat(self) -> None:
        if self.network is None:
            return
        if self.up and self._joined:
            message = self._heartbeat_msg
            if message is None:
                message = self._heartbeat_msg = HeartbeatMsg(
                    self.name, tuple(sorted(self._joined))
                )
            self.send(self.membership_name, message, size_bytes=64)
        self.sim.schedule(self.heartbeat_interval, self._heartbeat)

    # ------------------------------------------------------------------
    # Reliable FIFO group messaging
    # ------------------------------------------------------------------
    def gmcast(
        self,
        group: str,
        payload: Any,
        size_bytes: int = 256,
        only: Optional[Collection[str]] = None,
    ) -> int:
        """Reliable FIFO multicast to the current view of ``group`` — to
        those of its members that ``only`` names, when it names any.

        Returns the number of recipients (self excluded).
        """
        if self._sender is None:
            raise RuntimeError(f"{self.name} not attached")
        members = self.view_of(group).members
        if only is not None:
            members = self._named(members, only, size_bytes)
        return self._sender.send_to_all(group, members, payload, size_bytes)

    def _named(
        self, members: tuple[str, ...], only: Collection[str], size_bytes: int
    ) -> list[str]:
        """The members that ``only`` names, in view order.

        Any other member is sent nothing and takes no sequence number, but
        the delay of the message it is not sent is drawn all the same, and
        discarded: that link's stream also times what *is* sent there (its
        ack's is not: nothing else draws from that direction).  Looked up in
        the route table per call, so ``set_link`` and ``degrade_*`` are seen.
        """
        network, name = self.network, self.name
        routes = network._routes
        # One stand-in for all of them: a delay model reads only the size.
        unsent = Message(name, "", None, self.now, size_bytes)
        named = []
        for member in members:
            if member in only:
                named.append(member)
            elif member != name:
                rng, latency = routes.get((name, member)) or network._route(
                    name, member
                )
                latency.delay(unsent, rng)
        return named

    def gsend(
        self, group: str, member: str, payload: Any, size_bytes: int = 256
    ) -> None:
        """Reliable FIFO unicast to one member over the group channel."""
        if self._sender is None:
            raise RuntimeError(f"{self.name} not attached")
        self._sender.send(group, member, payload, size_bytes)

    @property
    def fifo_sender(self) -> FifoSender:
        if self._sender is None:
            raise RuntimeError(f"{self.name} not attached")
        return self._sender

    @property
    def fifo_receiver(self) -> FifoReceiver:
        if self._receiver is None:
            raise RuntimeError(f"{self.name} not attached")
        return self._receiver

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        # Tested in traffic order: data is most of what arrives, and its
        # acks are the next most wherever they travel.
        payload = message.payload
        if isinstance(payload, GroupDataMsg):
            assert self._receiver is not None
            self._receiver.on_data(payload)
        elif isinstance(payload, GroupAckMsg):
            assert self._sender is not None
            self._sender.on_ack(payload, message.sender)
        elif isinstance(payload, ViewChangeMsg):
            self.adopt_view(payload.view)
        else:
            self.on_message(message)

    def _fifo_deliver(self, group: str, sender: str, payload: Any) -> None:
        self.on_group_message(group, sender, payload)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def on_group_message(self, group: str, sender: str, payload: Any) -> None:
        """Reliable FIFO payload from a fellow member.  Override."""

    def _refresh_roles(self) -> None:
        """Re-derive what this endpoint caches from :attr:`views` (called by
        :meth:`adopt_view` after each install).  Override."""

    def on_view_change(self, view: View, previous: Optional[View]) -> None:
        """A new view was installed.  Override for failover logic."""

    def on_message(self, message: Message) -> None:
        """A non-group unicast arrived.  Override."""
