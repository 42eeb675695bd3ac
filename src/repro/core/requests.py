"""The request model and every protocol wire payload.

§2: "a client application has to explicitly specify all the read-only
methods it invokes on an object by their names.  If an operation is not
specified as read-only, then our middleware considers it to be an update
operation."  :class:`ReadOnlyRegistry` implements exactly that contract.

The remaining dataclasses are the payloads exchanged by the client-side and
server-side gateway handlers: requests/replies, GSN assignments from the
sequencer, lazy state updates, performance broadcasts (§5.4), and the
sequencer-failover messages (§4.1 notes failure handling; details were
omitted from the paper, ours are documented in DESIGN.md).

None of the payloads is frozen: one or more is built per operation, and a
frozen dataclass pays ``object.__setattr__`` per field.  Treat instances
as immutable.  Request ids are drawn per fabric
(:attr:`repro.net.network.Network.request_ids`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

from repro.core.qos import QoSSpec


class RequestKind(Enum):
    """Read-only vs. state-modifying invocations (§2's request model)."""

    READ = "read"
    UPDATE = "update"


class ReadOnlyRegistry:
    """The set of method names a client has declared read-only (§2)."""

    def __init__(self, read_only_methods: Optional[set[str]] = None) -> None:
        self._read_only = set(read_only_methods or ())

    def declare(self, method: str) -> None:
        if not method:
            raise ValueError("method name must be non-empty")
        self._read_only.add(method)

    def kind_of(self, method: str) -> RequestKind:
        """READ iff the method was declared read-only; UPDATE otherwise."""
        if method in self._read_only:
            return RequestKind.READ
        return RequestKind.UPDATE

    def read_only_methods(self) -> set[str]:
        return set(self._read_only)


# ---------------------------------------------------------------------------
# Client <-> replica payloads
# ---------------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class Request:
    """A client operation as transmitted to the selected replicas.

    A read may name its ``targets`` — the replicas it was dispatched to, the
    sequencer excluded — so that the sequencer stamps it there and nowhere
    else; ``None`` asks for the paper's stamp broadcast.  The handful of
    names does not change the modelled size: a request travels as 256 bytes
    either way, so its own delay draw on a bandwidth-limited link holds.
    """

    request_id: int
    client: str
    method: str
    args: tuple
    kind: RequestKind
    qos: Optional[QoSSpec]  # present for reads; None for updates
    sent_at: float
    # Protocol-specific piggyback (e.g. the causal handler's dependency
    # vector); None for the sequential and FIFO handlers.
    context: Any = None
    targets: Optional[tuple[str, ...]] = None  # reads only; see above

    def __post_init__(self) -> None:
        if self.kind is RequestKind.READ and self.qos is None:
            raise ValueError("read requests must carry a QoS specification")
        targets = self.targets
        if targets is not None:
            if self.kind is not RequestKind.READ:
                raise ValueError("only read requests name their targets")
            if not targets or not all(targets):
                raise ValueError(f"targets must name replicas, got {targets!r}")
            if len(set(targets)) != len(targets):
                raise ValueError(f"duplicate target in {targets!r}")

    @property
    def staleness_threshold(self) -> int:
        if self.qos is None:
            raise ValueError("update requests have no staleness threshold")
        return self.qos.staleness_threshold


@dataclass(slots=True, unsafe_hash=True)
class Reply:
    """A replica's response.

    ``t1`` is the piggybacked ``t_s + t_q + t_b`` the client uses to derive
    the two-way gateway delay ``t_g = t_p - t_m - t_1`` (§5.4).  ``gsn`` is
    the replica's commit sequence number when it served the request — the
    version of the response, used to verify staleness bounds in tests.
    """

    request_id: int
    replica: str
    kind: RequestKind
    value: Any
    t1: float
    gsn: int
    deferred: bool = False
    # Protocol-specific piggyback (the causal handler returns the
    # replica's committed vector clock so the client's next update can
    # depend on everything this response reflected).
    context: Any = None


# ---------------------------------------------------------------------------
# Sequencer payloads (§4.1)
# ---------------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class OverloadReply:
    """An explicit bounce instead of a late (or never) response.

    Sent by a replica that *sheds* a read — bounded queue full, deadline
    already passed, predicted wait exceeding the remaining budget, or a
    deferred read expiring/being dropped during recovery — so the client
    learns immediately that this replica will not answer, instead of
    riding out a timing failure.  ``retry_after`` is the replica's own
    back-pressure hint (seconds); the client must not re-dispatch to the
    same replica before it elapses.  ``queue_depth`` and ``pressure``
    feed the client-side degradation ladder (DESIGN.md §11).
    """

    request_id: int
    replica: str
    reason: str  # "queue-full" | "deadline-passed" | "predicted-late"
    #            | "defer-full" | "defer-expired" | "defer-dropped-recovery"
    retry_after: float
    queue_depth: int
    pressure: int = 0  # the replica's discrete pressure level at shed time


@dataclass(slots=True, unsafe_hash=True)
class GsnAssign:
    """GSN assignment broadcast by the sequencer.

    For an update the sequencer advances the GSN and ``advances`` is True;
    for a read it broadcasts the *current* GSN without advancing.
    """

    request_id: int
    gsn: int
    advances: bool


@dataclass(slots=True, unsafe_hash=True)
class GsnQuery:
    """A replica re-requests the GSN for a buffered read.

    Not in the paper (failure handling was omitted); used when the
    sequencer crashed after receiving a read but before broadcasting its
    GSN, so buffered reads do not hang forever.
    """

    request_id: int
    replica: str


# ---------------------------------------------------------------------------
# Lazy update propagation (§3, §4.1.2)
# ---------------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class LazyUpdate:
    """State snapshot the lazy publisher multicasts to the secondary group.

    ``published_at`` is the publisher's send timestamp; secondaries use it
    to split a deferred read's wait into lazy-publisher lag (time until
    the publisher sent) and network delay (time in flight) — the staleness
    attribution of DESIGN.md §15.
    """

    publisher: str
    epoch: int  # publisher-local counter of lazy propagations
    csn: int  # publisher's commit sequence number at snapshot time
    snapshot: Any
    published_at: Optional[float] = None


@dataclass(slots=True, unsafe_hash=True)
class PublisherSuspicion:
    """A secondary's report that the lazy publisher has gone gray.

    Secondaries run a φ-accrual detector over lazy-update inter-arrival
    times (DESIGN.md §14); when φ crosses the suspect threshold the
    secondary multicasts this to the primary group, which deterministically
    designates the next ranked serving primary as publisher.  Not in the
    paper — its publisher is fixed by view rank and only a crash (view
    change) moves the role, so an alive-but-slow publisher would starve
    the secondary tier indefinitely.
    """

    suspect: str
    reporter: str


# ---------------------------------------------------------------------------
# Online performance monitoring (§5.4)
# ---------------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class StalenessInfo:
    """The lazy publisher's extra broadcast fields (§5.4.1).

    ``n_u`` updates arrived in the ``t_u`` seconds since the publisher's
    last performance broadcast; ``n_l`` updates arrived in the ``t_l``
    seconds since its last lazy propagation.  ``lazy_interval`` is the
    ``T_L`` currently in effect — normally the configured constant, but
    the adaptive controller (:mod:`repro.core.tuning`) retunes it, and
    clients need the live value for the ``t_l`` modulo of §5.4.1.
    """

    n_u: int
    t_u: float
    n_l: int
    t_l: float
    lazy_interval: Optional[float] = None


@dataclass(slots=True, unsafe_hash=True)
class PerfBroadcast:
    """Measurements a replica publishes to all clients after a read.

    ``tb`` is None unless the read was deferred.  ``staleness`` is present
    only on broadcasts from the lazy publisher.
    """

    replica: str
    ts: float
    tq: float
    tb: Optional[float]
    staleness: Optional[StalenessInfo] = None


# ---------------------------------------------------------------------------
# Sequencer failover (our completion of §4.1's omitted failure handling)
# ---------------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class SequencerSyncRequest:
    """New sequencer asks surviving primaries for their GSN state."""

    new_sequencer: str
    sync_id: int


@dataclass(slots=True, unsafe_hash=True)
class SequencerSyncReply:
    """A primary's view of sequencing state, for GSN recovery.

    ``max_gsn`` is the highest GSN the member has seen (assigned or
    committed); ``assignments`` maps request id → GSN for every assignment
    the member knows about (uncommitted plus a bounded tail of recent
    commits, so members that missed a broadcast can be caught up);
    ``unassigned`` lists update requests it has buffered that never
    received a GSN assignment, so the new sequencer can (re)assign them
    deterministically.
    """

    member: str
    sync_id: int
    max_gsn: int
    csn: int
    assignments: tuple[tuple[int, int], ...]  # (request_id, gsn), sorted by gsn
    unassigned: tuple[int, ...]  # request ids, sorted


@dataclass(slots=True, unsafe_hash=True)
class StateTransferRequest:
    """A rejoining primary asks the current sequencer for a state transfer.

    Not in the paper (§4.1's failure handling was omitted); our completion
    is documented in DESIGN.md §9.  The sequencer answers with its own
    sequencing state and relays the request to a *donor* — a live serving
    primary — which ships the committed application state.
    """

    requester: str
    xfer_id: int  # requester-local transfer attempt counter


@dataclass(slots=True, unsafe_hash=True)
class StateTransferRelay:
    """Sequencer-to-donor forwarding of a :class:`StateTransferRequest`.

    ``max_gsn`` carries the sequencer's authoritative GSN so the donor's
    snapshot reply also brings the requester's ``my_gsn`` current even if
    the donor itself lags.
    """

    requester: str
    xfer_id: int
    max_gsn: int


@dataclass(slots=True, unsafe_hash=True)
class StateTransferSnapshot:
    """The donor's reply to a rejoining primary: everything needed to
    re-enter the primary group at full strength.

    * ``snapshot``/``csn`` — the committed application state and its commit
      sequence number (a consistent cut: the simulation is single-threaded
      and the donor captures both in one step);
    * ``max_gsn`` — the highest GSN known (donor's, joined with the
      sequencer's via the relay);
    * ``commit_wait`` — the *uncommitted log suffix*: updates the donor has
      buffered with an assigned GSN above ``csn``, shipped as full
      ``(gsn, Request)`` pairs so the requester can commit them in order
      (it missed the client multicasts while crashed);
    * ``assignments`` — request id → GSN bindings (dedup across failover
      re-broadcasts);
    * ``skips`` — no-op GSNs declared by past failovers, still above
      ``csn``.

    ``snapshot`` is ``None`` when no donor existed (the requester was the
    only serving primary); the requester then keeps its retained state.
    """

    member: str
    xfer_id: int
    csn: int
    max_gsn: int
    snapshot: Any
    commit_wait: tuple[tuple[int, "Request"], ...] = ()
    unassigned: tuple["Request", ...] = ()
    assignments: tuple[tuple[int, int], ...] = ()
    skips: tuple[int, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class GsnSkip:
    """Sequencer-declared no-op GSNs.

    After a failover the new sequencer may find GSNs below its recovered
    maximum that no surviving member can attribute to a request (the old
    sequencer assigned them and crashed before any broadcast survived).
    Members treat these as committed no-ops so the commit order has no
    holes.
    """

    gsns: tuple[int, ...]


# ---------------------------------------------------------------------------
# Outcomes delivered to the client application
# ---------------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class ReadOutcome:
    """What the client application learns about one read."""

    request_id: int
    value: Any
    response_time: Optional[float]  # None if no reply ever arrived
    timing_failure: bool
    replicas_selected: int
    first_replica: Optional[str]
    deferred: bool
    gsn: int  # version of the delivered response (-1 if none)


@dataclass(slots=True, unsafe_hash=True)
class UpdateOutcome:
    """What the client application learns about one update."""

    request_id: int
    value: Any
    response_time: float
    first_replica: str
    gsn: int
