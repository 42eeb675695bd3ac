"""Closed-loop tuning of the lazy update interval.

§3: "The degree of divergence between the states of primary and secondary
replicas can be bounded by choosing an appropriate frequency for the lazy
update propagation."  This example lets the controller choose it: the
service targets P(staleness ≤ 2 versions) ≥ 0.9 at the most stale instant,
and the update load switches between a trickle and a storm.  Watch T_L
stretch when traffic is quiet (saving propagation messages) and snap tight
when the storm hits (holding the consistency target).

Run: ``python examples/adaptive_lazy_interval.py``
"""

from repro.core.service import ServiceConfig, build_testbed
from repro.core.tuning import StalenessTarget
from repro.workloads.generators import OpenLoopUpdater

PHASES = [
    ("trickle", 0.2, 40.0),
    ("storm", 5.0, 40.0),
    ("trickle again", 0.3, 40.0),
]


def main() -> None:
    target = StalenessTarget(threshold=2, probability=0.9)
    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=3,
        lazy_update_interval=2.0,  # just the starting point
        adaptive_lazy_target=target,
    )
    testbed = build_testbed(config, seed=17)
    sim = testbed.sim
    service = testbed.service
    feed = service.create_client("feed", read_only_methods={"get"})

    start = 0.0
    for label, rate, length in PHASES:
        sim.schedule_at(
            start,
            lambda r=rate, d=length: OpenLoopUpdater(
                sim, feed, testbed.rng, rate=r, duration=d
            ),
        )
        sim.schedule_at(start, print,
                        f"[{start:5.0f}s] >>> phase: {label} ({rate:g} updates/s)")
        start += length

    publisher = service.primaries[0]
    secondary = service.secondaries[0]
    hits = [0, 0]

    def report() -> None:
        staleness = max(0, publisher.my_csn - secondary.my_csn)
        hits[0] += 1 if staleness <= target.threshold else 0
        hits[1] += 1
        print(
            f"[{sim.now:5.0f}s] T_L={publisher.lazy_update_interval:6.2f}s  "
            f"rate~{publisher.lazy_controller.estimated_rate:5.2f}/s  "
            f"staleness={staleness:2d}  "
            f"lazy msgs so far={publisher.lazy_updates_sent.value}"
        )
        sim.schedule(5.0, report)

    sim.schedule(5.0, report)
    sim.run(until=start + 5.0)

    print()
    print(f"staleness target (<= {target.threshold} w.p. {target.probability}) "
          f"held in {hits[0]}/{hits[1]} samples "
          f"({hits[0] / hits[1]:.2%})")
    print(f"total lazy propagations: {publisher.lazy_updates_sent.value}")


if __name__ == "__main__":
    main()
