"""Admission control and priority/cost tiers (the Conclusions' extensions).

The paper closes by sketching two extensions: admitting clients only when
the replica pool can actually honour their QoS, and letting clients state
a *priority* or a *budget* instead of a raw probability.  Both are
implemented in this reproduction; this example exercises them together:

1. a service warms up with one monitoring client, so the admission
   controller has live response-time distributions to judge against;
2. a sequence of prospective clients — priority tiers mapped through
   :class:`PriorityMapper`, budgets mapped through :class:`CostMapper` —
   ask to join with various deadlines and request rates;
3. the controller admits the feasible ones and rejects the rest with an
   explanation (infeasible QoS vs. capacity exhaustion).

Run: ``python examples/admission_and_priority.py``
"""

from repro.core.admission import (
    AdmissionConfig,
    AdmissionController,
    ClientProfile,
    evaluate_against_client,
)
from repro.core.priority import CostMapper, PriorityMapper
from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.sim.process import Process, Timeout


def main() -> None:
    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=4,
        lazy_update_interval=2.0,
    )
    testbed = build_testbed(config, seed=5)
    service = testbed.service
    sim = testbed.sim

    # Phase 1 — warm up the monitoring state.
    monitor = service.create_client("monitor", read_only_methods={"get"})
    warm_qos = QoSSpec(staleness_threshold=10, deadline=0.5, min_probability=0.5)

    def warmup():
        for _ in range(30):
            yield monitor.call("increment")
            yield Timeout(0.2)
            yield monitor.call("get", (), warm_qos)
            yield Timeout(0.2)

    Process(sim, warmup())
    sim.run(until=30.0)
    print(f"[warmup done at t={sim.now:.1f}s] "
          f"{monitor.reads_resolved.value} reads observed\n")

    # Phase 2 — prospective clients arrive with priorities and budgets.
    priorities = PriorityMapper()
    costs = CostMapper(base_probability=0.5, failure_discount=0.6,
                       max_probability=0.98)
    controller = AdmissionController(
        AdmissionConfig(max_utilization=0.6, mean_read_service_time=0.1)
    )

    applicants = [
        # (name, qos, read rate/s) — tiers via the priority mapper:
        ("dashboard-gold", priorities.qos_for("gold", 2, 0.250), 1.0),
        ("batch-bronze", priorities.qos_for("bronze", 20, 1.0), 0.5),
        # an impossible ask: platinum guarantee at a 30 ms deadline
        ("trader-platinum", priorities.qos_for("platinum", 0, 0.030), 1.0),
        # budget-based tiers via the cost mapper:
        ("budget-3-units", costs.qos_for(3.0, 4, 0.300), 1.0),
        ("budget-0-units", costs.qos_for(0.0, 4, 0.300), 1.0),
        # capacity exhaustion: a very hungry client
        ("firehose", priorities.qos_for("silver", 10, 0.400), 25.0),
    ]

    primary_names = [p.name for p in service.primaries]
    secondary_names = [s.name for s in service.secondaries]

    for name, qos, rate in applicants:
        profile = ClientProfile(name, qos, read_rate=rate)
        decision = evaluate_against_client(
            controller, profile, monitor.predictor,
            primary_names, secondary_names, now=sim.now,
        )
        verdict = "ADMIT " if decision.admitted else "REJECT"
        print(f"{verdict} {name:18s} "
              f"[{qos.describe()}] rate={rate:g}/s")
        print(f"        achievable P_K={decision.achievable_probability:.3f}, "
              f"projected utilization={decision.projected_utilization:.2f}")
        print(f"        {decision.reason}")
        if decision.admitted:
            controller.admit(profile, decision)
            service.create_client(name, read_only_methods={"get"},
                                  default_qos=qos)
        else:
            controller.reject(profile, decision)
        print()

    print(f"admitted: {sorted(controller.admitted)}")
    print(f"rejected: {[name for name, _ in controller.rejections]}")


if __name__ == "__main__":
    main()
