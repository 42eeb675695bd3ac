"""Timed consistency handlers (Figure 2).

Each ordering guarantee a service offers is implemented as a pair of
gateway handlers — a server-side replica handler and (optionally
specialized) client-side handler.  The paper implements the sequential
handler and depicts a FIFO one; we implement both plus a causal handler.
:class:`~repro.core.service.ReplicatedService` resolves the pair for its
``ServiceConfig.ordering`` through the two tables below.
"""

from typing import Type

from repro.core.client import ClientHandler
from repro.core.qos import OrderingGuarantee
from repro.core.handlers.sequential import SequentialReplicaHandler
from repro.core.handlers.fifo import FifoReplicaHandler
from repro.core.handlers.causal import CausalClientHandler, CausalReplicaHandler

_REPLICA_HANDLERS: dict[OrderingGuarantee, type] = {
    OrderingGuarantee.SEQUENTIAL: SequentialReplicaHandler,
    OrderingGuarantee.FIFO: FifoReplicaHandler,
    OrderingGuarantee.CAUSAL: CausalReplicaHandler,
}

_CLIENT_HANDLERS: dict[OrderingGuarantee, Type[ClientHandler]] = {
    OrderingGuarantee.SEQUENTIAL: ClientHandler,
    OrderingGuarantee.FIFO: ClientHandler,
    OrderingGuarantee.CAUSAL: CausalClientHandler,
}


def replica_handler_for(ordering: OrderingGuarantee) -> type:
    try:
        return _REPLICA_HANDLERS[ordering]
    except KeyError:
        raise NotImplementedError(
            f"no replica handler registered for {ordering!r}"
        ) from None


def client_handler_for(ordering: OrderingGuarantee) -> Type[ClientHandler]:
    try:
        return _CLIENT_HANDLERS[ordering]
    except KeyError:
        raise NotImplementedError(
            f"no client handler registered for {ordering!r}"
        ) from None


__all__ = [
    "SequentialReplicaHandler",
    "FifoReplicaHandler",
    "CausalReplicaHandler",
    "CausalClientHandler",
    "replica_handler_for",
    "client_handler_for",
]
