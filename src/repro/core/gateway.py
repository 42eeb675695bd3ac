"""The client-side gateway of Figure 2.

A client application talks to any number of replicated services through
one :class:`Gateway`; the gateway hosts one *timed consistency handler*
(a :class:`~repro.core.client.ClientHandler`) per service, each using the
protocol appropriate for that service's ordering guarantee — e.g. the
sequential handler for a document-editing service and the FIFO handler for
a banking service, exactly the configuration the figure depicts.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.client import ClientHandler, OutcomeCallback
from repro.core.qos import QoSSpec
from repro.core.selection import SelectionStrategy
from repro.core.service import ReplicatedService


class Gateway:
    """One client's gateway; a facade over per-service handlers."""

    def __init__(self, client_name: str) -> None:
        if not client_name:
            raise ValueError("client name must be non-empty")
        self.client_name = client_name
        self._handlers: dict[str, ClientHandler] = {}

    def connect(
        self,
        service: ReplicatedService,
        read_only_methods: Optional[set[str]] = None,
        default_qos: Optional[QoSSpec] = None,
        strategy: Optional[SelectionStrategy] = None,
        on_qos_violation: Optional[Callable[[float], None]] = None,
    ) -> ClientHandler:
        """Attach a handler for ``service`` (endpoint ``client@service``)."""
        service_name = service.config.name
        if service_name in self._handlers:
            raise ValueError(
                f"{self.client_name!r} already connected to {service_name!r}"
            )
        handler = service.create_client(
            f"{self.client_name}@{service_name}",
            read_only_methods=read_only_methods,
            default_qos=default_qos,
            strategy=strategy,
            on_qos_violation=on_qos_violation,
        )
        self._handlers[service_name] = handler
        return handler

    def handler(self, service_name: str) -> ClientHandler:
        try:
            return self._handlers[service_name]
        except KeyError:
            raise KeyError(
                f"{self.client_name!r} is not connected to {service_name!r}"
            ) from None

    def services(self) -> list[str]:
        return sorted(self._handlers)

    def invoke(
        self,
        service_name: str,
        method: str,
        args: tuple = (),
        qos: Optional[QoSSpec] = None,
        callback: Optional[OutcomeCallback] = None,
    ) -> int:
        """Invoke a method on a connected service through its handler."""
        return self.handler(service_name).invoke(method, args, qos, callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gateway {self.client_name} services={self.services()}>"
