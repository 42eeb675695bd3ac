"""Quickstart: build a replicated service, tune QoS, read with bounds.

Builds the two-level replica organization of the paper (a sequencer, a
primary group, and a larger lazily-updated secondary group), attaches one
client, and issues a handful of updates and QoS-tagged reads.  Everything
runs inside the deterministic simulator — no processes, no sockets.

Run: ``python examples/quickstart.py``
"""

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.sim.process import Process, Timeout


def main() -> None:
    # 4 serving primaries + 6 secondaries + the sequencer, lazy updates
    # every 2 seconds — the paper's §6 testbed.
    config = ServiceConfig(
        name="svc",
        num_primaries=4,
        num_secondaries=6,
        lazy_update_interval=2.0,
    )
    testbed = build_testbed(config, seed=42)
    service = testbed.service

    # The client declares its read-only methods by name (§2's request
    # model); everything else is treated as an update.
    client = service.create_client("alice", read_only_methods={"get"})

    # "no more than 2 versions stale, within 150 ms, with probability 0.9"
    qos = QoSSpec(staleness_threshold=2, deadline=0.150, min_probability=0.9)

    def workload():
        for i in range(20):
            outcome = yield client.call("increment")
            print(
                f"[{testbed.sim.now:7.3f}s] update #{i}: value={outcome.value} "
                f"committed at GSN {outcome.gsn} by {outcome.first_replica}"
            )
            yield Timeout(0.4)
            outcome = yield client.call("get", (), qos)
            marker = "TIMING FAILURE" if outcome.timing_failure else "ok"
            print(
                f"[{testbed.sim.now:7.3f}s] read  #{i}: value={outcome.value} "
                f"from {outcome.first_replica} "
                f"in {outcome.response_time * 1000:.0f} ms "
                f"({outcome.replicas_selected} replicas selected, {marker})"
            )
            yield Timeout(0.4)

    Process(testbed.sim, workload())
    testbed.sim.run(until=60.0)

    print()
    print(f"reads resolved:        {client.reads_resolved.value}")
    print(f"timing failures:       {client.timing_failures.value}")
    print(f"avg replicas selected: {client.average_selected():.2f}")
    print(f"observed timely freq:  {client.timely_fraction:.3f}")


if __name__ == "__main__":
    main()
