"""Stock ticker: bounded-staleness quotes under a fast update feed.

§1 motivates the framework with "real-time database applications, such as
online stock-trading": a trader wants a quote within a tight deadline and
can tolerate it being a few ticks old — but not unboundedly stale.

A Poisson feed of trade ticks (the open-loop updater) drives the primary
group; two traders read quotes with different staleness budgets, and a
risk checker insists on the freshest price.  The example also crashes a
secondary replica mid-run to show the selection adapting around it.

Run: ``python examples/stock_ticker.py``
"""

from repro.apps.stock import StockTicker
from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.sim.process import Process, Timeout
from repro.workloads.generators import OpenLoopUpdater

SYMBOLS = ["AQUA", "CORBA", "LAN", "QOS"]


def main() -> None:
    config = ServiceConfig(
        name="ticker",
        num_primaries=3,
        num_secondaries=6,
        lazy_update_interval=1.0,
    )
    testbed = build_testbed(config, seed=11, app_factory=StockTicker)
    service = testbed.service
    sim = testbed.sim
    read_only = set(StockTicker.READ_ONLY_METHODS)

    # The exchange feed: Poisson ticks at ~4/s for 30 s.
    feed = service.create_client("exchange-feed", read_only_methods=read_only)
    prices = {s: 100.0 for s in SYMBOLS}

    def tick_args(i: int) -> tuple:
        symbol = SYMBOLS[i % len(SYMBOLS)]
        drift = testbed.rng.stream("prices").gauss(0.0, 0.5)
        prices[symbol] = max(1.0, prices[symbol] + drift)
        return (symbol, round(prices[symbol], 2))

    updater = OpenLoopUpdater(
        sim, feed, testbed.rng, rate=4.0, duration=30.0,
        method="tick", args=tick_args,
    )

    day_trader = service.create_client("day-trader", read_only_methods=read_only)
    swing_trader = service.create_client("swing-trader", read_only_methods=read_only)
    risk_desk = service.create_client("risk-desk", read_only_methods=read_only)

    profiles = [
        # (client, qos, period) — staleness measured in ticks
        (day_trader, QoSSpec(3, 0.120, 0.9), 0.5),
        (swing_trader, QoSSpec(20, 0.500, 0.7), 1.1),
        (risk_desk, QoSSpec(0, 0.300, 0.9), 1.7),
    ]

    def trading(handler, qos, period):
        for i in range(20):
            yield Timeout(period)
            symbol = SYMBOLS[i % len(SYMBOLS)]
            outcome = yield handler.call("quote", (symbol,), qos)
            if outcome.response_time is None:
                continue
            marker = "LATE" if outcome.timing_failure else "ok"
            defer = " deferred" if outcome.deferred else ""
            print(
                f"[{sim.now:6.2f}s] {handler.name:12s} {symbol}: "
                f"{outcome.value} @tick {outcome.gsn} "
                f"in {outcome.response_time * 1000:.0f} ms "
                f"[{marker}{defer}]"
            )

    for handler, qos, period in profiles:
        Process(sim, trading(handler, qos, period))

    # Crash one secondary at t=12 s; the ert rotation and the bootstrap
    # CDFs steer subsequent reads to the survivors.
    victim = service.secondaries[0].name
    sim.schedule_at(12.0, testbed.network.crash, victim)
    sim.schedule_at(12.0, print, f"[12.00s] *** crashing {victim} ***")

    sim.run(until=45.0)

    print()
    print(f"feed issued {updater.issued} ticks")
    for handler, qos, _ in profiles:
        print(
            f"{handler.name:12s} staleness<= {qos.staleness_threshold:2d} ticks: "
            f"{handler.timing_failures.value}/{handler.reads_resolved.value} timing failures, "
            f"avg {handler.average_selected():.2f} replicas/read, "
            f"{handler.deferred_replies.value} deferred"
        )


if __name__ == "__main__":
    main()
