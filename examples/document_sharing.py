"""The §2 document-sharing scenario.

"Multiple readers and writers concurrently access a document that is
updated in sequential mode.  Using the above model, a client of such an
application can specify that he wishes to obtain a copy of the document
that is not more than 5 versions old within 2.0 seconds with a probability
of at least 0.7."

Two writers append/replace paragraphs; three readers poll with different
QoS points — a proofreader who needs the freshest copy fast, the §2 casual
reader (≤5 versions, 2 s, 0.7), and an archiver who tolerates anything.
The run prints how the middleware picks different replica sets for each.

Run: ``python examples/document_sharing.py``
"""

from repro.apps.document import SharedDocument
from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.sim.process import Process, Timeout

PARAGRAPHS = [
    "Replication enables concurrent service of many clients.",
    "Strong consistency costs latency; weak consistency costs certainty.",
    "Clients should be able to choose their point on that spectrum.",
    "A QoS model expresses staleness and deadline requirements.",
    "Lazy propagation bounds the divergence of the secondary group.",
    "Probabilistic models predict which replicas can meet a deadline.",
]


def main() -> None:
    config = ServiceConfig(
        name="docs",
        num_primaries=3,
        num_secondaries=5,
        lazy_update_interval=1.5,
    )
    testbed = build_testbed(config, seed=7, app_factory=SharedDocument)
    service = testbed.service
    sim = testbed.sim

    read_only = set(SharedDocument.READ_ONLY_METHODS)
    writer1 = service.create_client("writer-1", read_only_methods=read_only)
    writer2 = service.create_client("writer-2", read_only_methods=read_only)

    readers = {
        # name: (QoS, read period)
        "proofreader": (QoSSpec(0, 0.150, 0.9), 0.9),
        "casual-reader": (QoSSpec(5, 2.0, 0.7), 1.3),  # the §2 example
        "archiver": (QoSSpec(50, 5.0, 0.5), 2.1),
    }
    handlers = {
        name: service.create_client(name, read_only_methods=read_only)
        for name in readers
    }

    def writing(writer, offset):
        yield Timeout(offset)
        for i, text in enumerate(PARAGRAPHS):
            outcome = yield writer.call("append_paragraph", (f"{text} [{writer.name}]",))
            print(
                f"[{sim.now:6.2f}s] {writer.name} appended paragraph "
                f"{outcome.value} (GSN {outcome.gsn})"
            )
            yield Timeout(1.7)
        yield writer.call(
            "replace_paragraph", (0, f"(revised) {PARAGRAPHS[0]}")
        )
        print(f"[{sim.now:6.2f}s] {writer.name} revised paragraph 0")

    def reading(name, qos, period):
        handler = handlers[name]
        for _ in range(10):
            yield Timeout(period)
            outcome = yield handler.call("read_document", (), qos)
            if outcome.value is None:
                print(f"[{sim.now:6.2f}s] {name}: no response (all selected crashed?)")
                continue
            edits, paragraphs = outcome.value
            marker = "LATE" if outcome.timing_failure else "ok"
            print(
                f"[{sim.now:6.2f}s] {name}: version {edits} "
                f"({len(paragraphs)} paragraphs) from {outcome.first_replica} "
                f"in {outcome.response_time * 1000:.0f} ms "
                f"[{outcome.replicas_selected} selected, {marker}]"
            )

    Process(sim, writing(writer1, 0.0))
    Process(sim, writing(writer2, 0.8))
    for name, (qos, period) in readers.items():
        Process(sim, reading(name, qos, period))
    sim.run(until=40.0)

    print()
    for name, handler in handlers.items():
        print(
            f"{name:14s} avg replicas selected: {handler.average_selected():.2f}, "
            f"timing failures: {handler.timing_failures.value}/{handler.reads_resolved.value}"
        )
    publisher = service.primaries[0]
    print(
        f"\ndocument version on lazy publisher ({publisher.name}): "
        f"{publisher.app.edits} edits, CSN {publisher.my_csn}"
    )


if __name__ == "__main__":
    main()
