"""Gray-failure walk-through: a one-way partition, detector on vs. off.

A *gray* failure is a replica that is alive by every crash detector's
standard but useless to a particular client.  The sharpest case is an
asymmetric cut: the direction client -> replica silently drops requests
while replica -> client still delivers, so the replica's timestamp
broadcasts keep arriving fresh and Algorithm 1 keeps predicting it will
meet the deadline.  The paper's framework assumes replicas are either
crashed or fine; this demo shows what the φ-accrual detection layer
(DESIGN.md §14) adds when that assumption breaks.

The same workload runs twice against the same fault: the directed link
``app -> svc-s1`` is cut from t=5 s to t=12 s (``symmetric=False``),
then healed.  The baseline client keeps selecting the unreachable
replica on the strength of its broadcasts and burns a retry checkpoint
on every such read; the detector client notices the missing reply
arrivals within a few expected inter-arrival times (φ crosses
``PHI_SUSPECT``), ejects the replica from Algorithm-1 candidacy, probes
it on a rate limit while suspected, and re-admits it once a probe
lands after the heal.

Run: ``python examples/gray_failure_demo.py``
"""

from repro.core.client import RetryPolicy
from repro.core.detector import DetectorConfig
from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.experiments.campaign import percentile
from repro.sim.process import Process, Timeout
from repro.sim.rng import Normal

QOS = QoSSpec(staleness_threshold=10, deadline=0.25, min_probability=0.9)

DETECTOR = DetectorConfig(window_size=48, min_samples=6, probe_interval=0.3)


def run_once(detector):
    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=2,
        lazy_update_interval=0.3,
        read_service_time=Normal(0.020, 0.005, floor=0.002),
        detector=detector,
    )
    testbed = build_testbed(config, seed=11)
    sim, service, network = testbed.sim, testbed.service, testbed.network
    client = service.create_client(
        "app",
        read_only_methods={"get"},
        retry_policy=RetryPolicy(max_retries=1, hedge=True),
    )

    victim = service.secondaries[0].name
    sim.schedule_at(5.0, network.partition, ["app"], [victim], "gray-cut", False)
    sim.schedule_at(12.0, network.heal_partition, "gray-cut")

    latencies = []

    def workload():
        while sim.now < 18.0:
            yield client.call("increment")
            outcome = yield client.call("get", (), QOS)
            latencies.append(outcome.response_time)
            yield Timeout(0.05)

    Process(sim, workload())
    sim.run(until=20.0)
    return victim, client, latencies


def main() -> None:
    p99 = {}
    for label, cfg in (("baseline", None), ("detector", DETECTOR)):
        victim, client, latencies = run_once(cfg)
        p99[label] = percentile(latencies, 0.99)
        print(f"--- {label}: app->{victim} cut one-way 5 s..12 s ---")
        if client.detector is not None:
            for t in client.detector.transitions:
                edge = "suspect" if t.suspected else "re-admit"
                print(f"  [{t.time:6.2f}s] {edge:8s} {t.peer}  (phi={t.phi:.1f})")
            recovery = client.recovery_stats()
            print(
                f"  ejections={recovery['detector_ejections']} "
                f"probes={recovery['detector_probes']} "
                f"still_suspected={client.detector.suspected()}"
            )
        print(
            f"  reads={len(latencies)} "
            f"p50={percentile(latencies, 0.50) * 1e3:.1f}ms "
            f"p99={percentile(latencies, 0.99) * 1e3:.1f}ms"
        )

    print(
        f"\nread p99 with the unreachable replica ejected: "
        f"{p99['detector'] * 1e3:.1f}ms vs {p99['baseline'] * 1e3:.1f}ms "
        f"of retry-rescued timeouts without detection"
    )
    print("full campaign (seeded storms, invariants, scoring): repro gray")


if __name__ == "__main__":
    main()
