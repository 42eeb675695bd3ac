"""Failover walk-through: crash the sequencer and the lazy publisher.

§4.1 notes the protocol "ensures that the consistency guarantees are
preserved even when replica failures occur" by handling the failures of
the sequencer and the lazy publisher (details omitted in the paper; see
DESIGN.md for our completion).  This example crashes both, in sequence,
while a client keeps issuing updates and reads, and prints the role
transitions as the membership layer detects the crashes.

Run: ``python examples/failover_demo.py``
"""

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.sim.process import Process, Timeout


def main() -> None:
    config = ServiceConfig(
        name="svc",
        num_primaries=3,
        num_secondaries=4,
        lazy_update_interval=1.0,
    )
    testbed = build_testbed(config, seed=3)
    service = testbed.service
    sim = testbed.sim
    client = service.create_client("client", read_only_methods={"get"})
    qos = QoSSpec(staleness_threshold=1, deadline=0.250, min_probability=0.8)

    def roles() -> str:
        reference = next(
            p for p in service.primaries if testbed.network.is_up(p.name)
        )
        return (
            f"sequencer={reference.sequencer_name} "
            f"publisher={reference.lazy_publisher_name} "
            f"primary_view={list(reference.primary_view.members)}"
        )

    def workload():
        failures = 0
        for i in range(60):
            u = yield client.call("increment")
            yield Timeout(0.25)
            r = yield client.call("get", (), qos)
            if r.timing_failure:
                failures += 1
            if i % 10 == 0:
                value = r.value if r.value is not None else "?"
                print(
                    f"[{sim.now:6.2f}s] step {i}: counter={value} "
                    f"(GSN {r.gsn}); {roles()}"
                )
            yield Timeout(0.25)
        print(f"\ntiming failures across the whole run: {failures}/60")

    # Crash the original sequencer at t=8 s and the (by then possibly
    # re-designated) lazy publisher at t=16 s.
    sequencer = service.sequencer_name
    publisher = service.primaries[0].name
    sim.schedule_at(8.0, testbed.network.crash, sequencer)
    sim.schedule_at(8.0, print, f"[ 8.00s] *** crashing sequencer {sequencer} ***")
    sim.schedule_at(16.0, testbed.network.crash, publisher)
    sim.schedule_at(16.0, print, f"[16.00s] *** crashing publisher {publisher} ***")

    Process(sim, workload())
    sim.run(until=120.0)

    print("\nfinal state:")
    for handler in service.primaries + service.secondaries:
        alive = "up  " if testbed.network.is_up(handler.name) else "DOWN"
        print(
            f"  {alive} {handler.name}: CSN={handler.my_csn} "
            f"value={getattr(handler.app, 'value', '?')}"
        )


if __name__ == "__main__":
    main()
