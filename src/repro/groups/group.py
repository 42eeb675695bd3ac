"""GroupEndpoint: the base class for protocol participants.

A :class:`GroupEndpoint` is a network endpoint that

* maintains local copies of the views of every group it belongs to or
  watches, updated by :class:`~repro.groups.membership.ViewChangeMsg`;
* sends periodic heartbeats to the membership service so crashes are
  detected and evicted — for real on a fabric that expects faults, and
  evaluated at the service's sweep without being sent on a fault-free one
  (no beat can go missing there, so none is put on the wire);
* offers reliable FIFO group messaging (``gmcast`` / ``gsend``) built on
  :mod:`repro.groups.multicast` — on a channel the fabric trusts
  (:meth:`~repro.net.network.Network.trusted`) no ack can go missing, so
  none is sent and the sender keeps no books; acked on the wire otherwise.
  The endpoint holds the fabric's :class:`~repro.net.network.Link` record
  of each peer and caches that verdict on it;
* dispatches inbound traffic to overridable hooks:
  :meth:`on_group_message` (reliable FIFO payloads),
  :meth:`on_view_change`, and :meth:`on_message` (plain unicasts).

The middleware's gateway handlers (:mod:`repro.core`) all inherit from it.
"""

from __future__ import annotations

from typing import Any, Collection, Optional

from repro.groups.membership import (
    HeartbeatMsg,
    JoinMsg,
    LeaveMsg,
    MembershipService,
    View,
    ViewChangeMsg,
)
from repro.groups.multicast import (
    RTO,
    FifoReceiver,
    FifoSender,
    GroupAckMsg,
    GroupDataMsg,
)
from repro.net.message import Message
from repro.net.network import Endpoint, Link, Network
from repro.net.node import Host


class GroupEndpoint(Endpoint):
    """A network endpoint that participates in membership-managed groups."""

    def __init__(
        self,
        name: str,
        membership: str = MembershipService.DEFAULT_NAME,
        heartbeat_interval: float = 0.25,
    ) -> None:
        super().__init__(name)
        self.membership_name = membership
        self.heartbeat_interval = heartbeat_interval
        self.views: dict[str, View] = {}
        self._joined: set[str] = set()
        # The frozen heartbeat payload for the current ``_joined``; built on
        # the first beat after a membership change, then reused.
        self._heartbeat_msg: Optional[HeartbeatMsg] = None
        # Whether this endpoint's beats are evaluated at the sweep and not
        # sent (decided at its first tick, for the whole run).
        self._lazy_beats = False
        self._sender: Optional[FifoSender] = None
        self._receiver: Optional[FifoReceiver] = None
        # The fabric's record of the link to each peer, by peer name.
        self._links: dict[str, Link] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attached(self, network: Network, host: Optional[Host]) -> None:
        super().attached(network, host)
        self._sender = FifoSender(self.sim, self.name, self._raw_send)
        self._receiver = FifoReceiver(self._fifo_deliver, self._fifo_ack)
        self.sim.schedule(self.heartbeat_interval, self._first_heartbeat)

    def _link(self, peer: str) -> Link:
        """The record of ``self -> peer``, asked of the fabric once."""
        link = self._links[peer] = self.network.link(self.name, peer)
        return link

    def _judge(self, link: Link) -> bool:
        """The ack guard's verdict on ``link``, cached on it until the
        fabric expects faults: trusted with a message and its ack."""
        verdict = link.verdict = self.network.trusted(
            link.sender, link.recipient, RTO, reply_bytes=64
        )
        return verdict

    def _raw_send(self, recipient: str, payload: Any, size_bytes: int) -> bool:
        """Transmit; true when the channel is trusted with the message and
        its ack (the *ack guard*), so the sender keeps no books on it.

        The verdict is the link's, so ``_fifo_ack`` at the other end reads
        the same one.
        """
        self.network.send(self.name, recipient, payload, size_bytes)
        link = self._links.get(recipient) or self._link(recipient)
        verdict = link.verdict
        return self._judge(link) if verdict is None else verdict

    def _fifo_ack(self, origin: str, data: GroupDataMsg) -> None:
        link = self._links.get(origin) or self._link(origin)
        inbound = link.reverse
        verdict = inbound.verdict
        if verdict is None:
            verdict = self._judge(inbound)
        if verdict:
            # The origin kept no books on it: no ack, but its draw is kept,
            # because that link's stream also times data flowing back.
            link.owed += 1
            return
        ack = GroupAckMsg(data.group, origin, data.seq, data.epoch)
        self.network.send(self.name, origin, ack, 64)

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

    def has_joined(self, group: str) -> bool:
        """Whether this endpoint is a member of ``group`` (joined or assumed,
        and not left)."""
        return group in self._joined

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

    @property
    def beats_lazily(self) -> bool:
        """True while this endpoint's beats are due but not sent: the
        membership sweep counts the member as heard from instead."""
        return self._lazy_beats and bool(self._joined)

    def _first_heartbeat(self) -> None:
        """The first tick: beat, unless no beat of this endpoint can go missing.

        That is the case when the service vouches that the fabric trusts
        the link to it (:meth:`MembershipService.beats_land_in_time`).  The
        endpoint then arms no timer and sends nothing for the rest of the
        run.  Decided here and not in :meth:`attached`, so every link and
        fault injector set up before the clock starts is seen.
        """
        network = self.network
        assert network is not None
        service = (
            network.endpoint(self.membership_name)
            if network.is_up(self.membership_name)
            else None
        )
        if isinstance(service, MembershipService) and service.beats_land_in_time(
            self.name, self.heartbeat_interval
        ):
            self._lazy_beats = True
        else:
            self._heartbeat()

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
            members = self._named(members, only)
        return self._sender.send_to_all(group, members, payload, size_bytes)

    def _named(
        self, members: tuple[str, ...], only: Collection[str]
    ) -> list[str]:
        """The members that ``only`` names, in view order.

        Any other member is sent nothing and takes no sequence number, but
        the message it is not sent is kept (``Link.owed``): that link's
        stream also times what *is* sent there (its ack's is not: nothing
        else draws from that direction).
        """
        name, links, named = self.name, self._links, []
        for member in members:
            if member in only:
                named.append(member)
            elif member != name:
                (links.get(member) or self._link(member)).owed += 1
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
