"""GroupEndpoint: the base class for protocol participants.

A :class:`GroupEndpoint` is a network endpoint that

* maintains local copies of the views of every group it belongs to or
  watches, updated by :class:`~repro.groups.membership.ViewChangeMsg`;
* is watched by the membership service while it is in a group: its beat
  schedule (:attr:`beat_grid`) is what the service's failure detector
  reckons with, though no beat is sent;
* offers reliable FIFO group messaging (``gmcast`` / ``gsend``) built on
  :mod:`repro.groups.multicast`: a message the fabric drops comes back to
  it (:meth:`dropped`) and is resent; one delivered leaves nothing behind;
* dispatches inbound traffic to overridable hooks:
  :meth:`on_group_message` (reliable FIFO payloads),
  :meth:`on_view_change`, and :meth:`on_message` (plain unicasts).

The middleware's gateway handlers (:mod:`repro.core`) all inherit from it.
"""

from __future__ import annotations

from typing import Any, Collection, Optional

from repro.groups.membership import (
    Grid,
    JoinMsg,
    LeaveMsg,
    MembershipService,
    View,
    ViewChangeMsg,
)
from repro.groups.multicast import FifoReceiver, FifoSender, GroupDataMsg
from repro.net.message import Message
from repro.net.network import Endpoint, Network
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
        self._sender: Optional[FifoSender] = None
        self._receiver: Optional[FifoReceiver] = None
        # When its beats would be due: every heartbeat_interval from attach.
        self.beat_grid: Optional[Grid] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attached(self, network: Network, host: Optional[Host]) -> None:
        super().attached(network, host)
        self._sender = FifoSender(self.sim, self.name, self._raw_send)
        self._receiver = FifoReceiver(self._fifo_deliver)
        self.beat_grid = Grid(self.sim.now, self.heartbeat_interval)

    def _raw_send(self, recipient: str, payload: Any, size_bytes: int) -> None:
        self.network.send(self.name, recipient, payload, size_bytes)

    @property
    def up(self) -> bool:
        """False while this endpoint is crashed (timers should no-op)."""
        return self.network is not None and self.network.is_up(self.name)

    @property
    def joined_any(self) -> bool:
        """Whether it is in some group, and so heard from by the membership
        service whenever it can reach it."""
        return bool(self._joined)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, group: str) -> None:
        """Join a group (asynchronously, via the membership service)."""
        self._joined.add(group)
        self.send(self.membership_name, JoinMsg(group, self.name), size_bytes=64)

    def assume_membership(self, group: str) -> None:
        """Mark this endpoint as a member without a join round-trip.

        Used by topology builders that register members directly with the
        membership service; called before :meth:`MembershipService.register`,
        the service hears it from the moment it is admitted.
        """
        self._joined.add(group)

    def has_joined(self, group: str) -> bool:
        """Whether this endpoint is a member of ``group`` (joined or assumed,
        and not left)."""
        return group in self._joined

    def leave(self, group: str) -> None:
        self._joined.discard(group)
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
            # An evicted member gets no resend; a newly (re)joined one does
            # not wait on sequence numbers from before its join or crash.
            for member in set(previous.members).symmetric_difference(view.members):
                if member != self.name:
                    self._sender.reset_channel(view.group, member)
        self.on_view_change(view, previous)

    def view_of(self, group: str) -> View:
        view = self.views.get(group)
        if view is None:
            view = View(group, 0, ())
            self.views[group] = view
        return view

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
            members = [member for member in members if member in only]
        return self._sender.send_to_all(group, members, payload, size_bytes)

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
        # Tested in traffic order: data is most of what arrives.
        payload = message.payload
        if isinstance(payload, GroupDataMsg):
            assert self._receiver is not None
            self._receiver.on_data(payload)
        elif isinstance(payload, ViewChangeMsg):
            self.adopt_view(payload.view)
        else:
            self.on_message(message)

    def dropped(self, message: Message) -> None:
        if isinstance(message.payload, GroupDataMsg):
            assert self._sender is not None
            self._sender.on_ack(message)

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
