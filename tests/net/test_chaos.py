"""Unit tests for the seeded chaos engine (schedule determinism and
safety constraints; the full-stack invariant audit lives in
tests/experiments/test_chaos.py)."""

import random

import pytest

from repro.net import chaos
from repro.net.chaos import ChaosConfig, ChaosEngine, ChaosTargets
from repro.net.latency import FixedLatency
from repro.net.network import Endpoint, Network
from repro.net.node import Host
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


class Sink(Endpoint):
    def deliver(self, message):
        pass


PRIMARIES = ("p1", "p2", "p3")
SECONDARIES = ("s1", "s2")


def make_fabric():
    sim = Simulator()
    network = Network(sim, RngRegistry(99), FixedLatency(0.001))
    for name in (*PRIMARIES, *SECONDARIES, "seq"):
        network.attach(Sink(name), Host(f"host-{name}"))
    return sim, network


def make_engine(network, seed=7, config=None, **target_kwargs):
    targets = ChaosTargets(
        primaries=PRIMARIES,
        secondaries=SECONDARIES,
        sequencer="seq",
        **target_kwargs,
    )
    return ChaosEngine(
        network,
        targets,
        config or ChaosConfig(duration=10.0, mean_interval=0.3),
        rng=random.Random(seed),
    )


# ---------------------------------------------------------------------------
# Configuration and target validation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"duration": 0.0},
        {"mean_interval": 0.0},
        {"partition_weight": -1.0},
        {"overload_window": (0.0, 1.0)},
        {"overload_window": (2.0, 1.0)},
        {"loss_weight": -0.1},
        {"membership_outage_weight": -1.0},
    ],
)
def test_chaos_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ChaosConfig(**kwargs)


def test_crashable_excludes_protected():
    targets = ChaosTargets(
        primaries=PRIMARIES,
        secondaries=SECONDARIES,
        sequencer="seq",
        protected=("p1", "seq"),
    )
    names = targets.crashable()
    assert "p1" not in names
    assert "seq" not in names
    assert set(names) == {"p2", "p3", "s1", "s2"}


def test_start_twice_rejected():
    _, network = make_fabric()
    engine = make_engine(network)
    engine.start()
    with pytest.raises(RuntimeError):
        engine.start()


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
def schedule_of(seed):
    sim, network = make_fabric()
    engine = make_engine(network, seed=seed)
    engine.start()
    sim.run(until=15.0)
    return [(e.time, e.kind, e.target) for e in engine.events]


def test_same_seed_replays_identical_schedule():
    first = schedule_of(7)
    second = schedule_of(7)
    assert first == second
    assert len(first) > 3  # the campaign actually did things


def test_different_seed_differs():
    assert schedule_of(7) != schedule_of(8)


# ---------------------------------------------------------------------------
# Safety constraints
# ---------------------------------------------------------------------------
def test_protected_endpoints_are_never_faulted():
    sim, network = make_fabric()
    engine = make_engine(network, protected=("p1",))
    engine.start()

    def sample():
        assert network.is_up("p1")
        sim.schedule(0.05, sample)

    sim.schedule(0.05, sample)
    sim.run(until=15.0)
    assert engine.faults_injected.value > 0
    for event in engine.events:
        assert event.target != "p1"
        assert "p1" not in event.detail.get("minority", ())


def test_at_least_one_serving_primary_stays_live(monkeypatch):
    sim, network = make_fabric()
    # Crash-only campaign with room to take everything down if unchecked.
    monkeypatch.setattr(chaos, "MAX_CONCURRENT_DOWN", 6)
    monkeypatch.setattr(chaos, "DOWNTIME", (2.0, 4.0))
    config = ChaosConfig(
        duration=12.0,
        mean_interval=0.1,
        crash_weight=1.0,
        partition_weight=0.0,
        overload_weight=0.0,
        loss_weight=0.0,
    )
    engine = make_engine(network, config=config)
    engine.start()

    def sample():
        assert any(network.is_up(p) for p in PRIMARIES)
        sim.schedule(0.05, sample)

    sim.schedule(0.05, sample)
    sim.run(until=20.0)
    assert engine.faults_injected.value > 0


def test_concurrent_crashes_bounded(monkeypatch):
    sim, network = make_fabric()
    monkeypatch.setattr(chaos, "DOWNTIME", (2.0, 4.0))
    config = ChaosConfig(
        duration=12.0,
        mean_interval=0.1,
        partition_weight=0.0,
        overload_weight=0.0,
        loss_weight=0.0,
    )
    engine = make_engine(network, config=config)
    engine.start()

    def sample():
        down = sum(1 for n in network.endpoints() if not network.is_up(n))
        assert down <= 2
        sim.schedule(0.05, sample)

    sim.schedule(0.05, sample)
    sim.run(until=20.0)
    assert engine.faults_skipped.value > 0  # the cap actually bit


# ---------------------------------------------------------------------------
# End-of-campaign healing
# ---------------------------------------------------------------------------
def test_world_is_healed_after_campaign():
    sim, network = make_fabric()
    base_drop = network.drop_probability
    engine = make_engine(network, seed=3)
    engine.start()
    sim.run(until=30.0)

    assert engine.finished
    assert all(network.is_up(name) for name in network.endpoints())
    assert network.drop_probability == base_drop
    hosts = [network.host_of(n) for n in (*PRIMARIES, *SECONDARIES)]
    assert not any(h.overloaded for h in hosts if h is not None)


def test_repair_callback_replaces_plain_recover(monkeypatch):
    sim, network = make_fabric()
    repaired = []
    monkeypatch.setattr(chaos, "DOWNTIME", (0.5, 1.0))
    config = ChaosConfig(
        duration=8.0,
        mean_interval=0.2,
        partition_weight=0.0,
        overload_weight=0.0,
        loss_weight=0.0,
    )
    targets = ChaosTargets(primaries=PRIMARIES, secondaries=SECONDARIES)

    def repair(name):
        network.recover(name)
        repaired.append(name)

    engine = ChaosEngine(
        network, targets, config, rng=random.Random(5), repair=repair
    )
    engine.start()
    sim.run(until=15.0)
    crashed = [e.target for e in engine.events if e.kind == "crash"]
    assert crashed  # something actually went down
    assert repaired == [e.target for e in engine.events if e.kind == "recover"]
    assert all(network.is_up(name) for name in network.endpoints())


# ---------------------------------------------------------------------------
# Load storms (DESIGN.md §11)
# ---------------------------------------------------------------------------
def storm_config(**overrides):
    defaults = dict(
        duration=10.0,
        mean_interval=0.3,
        crash_weight=0.0,
        partition_weight=0.0,
        overload_weight=0.0,
        loss_weight=0.0,
        load_storm_weight=1.0,
        storm_window=(0.5, 1.0),
        storm_factor=(2.0, 4.0),
    )
    defaults.update(overrides)
    return ChaosConfig(**defaults)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"crash_weight": -1.0},
        {"load_storm_weight": -0.5},
        {"storm_window": (0.0, 1.0)},
        {"storm_factor": (4.0, 2.0)},
    ],
)
def test_chaos_config_rejects_bad_storm_values(kwargs):
    with pytest.raises(ValueError):
        ChaosConfig(**kwargs)


def test_load_storm_drives_the_rate_controller():
    from repro.workloads.generators import ArrivalRateController

    sim, network = make_fabric()
    controller = ArrivalRateController()
    engine = ChaosEngine(
        network,
        ChaosTargets(primaries=PRIMARIES, secondaries=SECONDARIES),
        storm_config(),
        rng=random.Random(7),
        rate_controller=controller,
    )
    engine.start()

    peak = 0.0
    while sim.now < 15.0 and sim.step():
        peak = max(peak, controller.factor)

    storms = [e for e in engine.events if e.kind == "load-storm"]
    ends = [e for e in engine.events if e.kind == "storm-end"]
    assert storms, "storm-only mix must inject storms"
    assert len(ends) == len(storms)  # every storm healed
    assert peak >= 2.0  # the configured factor floor
    assert controller.factor == 1.0  # world healed after the campaign
    assert controller.storms_started == len(storms)
    for storm in storms:
        assert 2.0 <= storm.detail["factor"] <= 4.0


def test_one_storm_at_a_time():
    from repro.workloads.generators import ArrivalRateController

    sim, network = make_fabric()
    controller = ArrivalRateController()
    engine = ChaosEngine(
        network,
        ChaosTargets(primaries=PRIMARIES),
        storm_config(mean_interval=0.05, storm_window=(2.0, 3.0)),
        rng=random.Random(3),
        rate_controller=controller,
    )
    engine.start()
    sim.run(until=15.0)
    opened = 0
    for event in engine.events:
        if event.kind == "load-storm":
            assert opened == 0, "storms must never overlap"
            opened += 1
        elif event.kind == "storm-end":
            opened -= 1
    assert opened == 0


def test_storms_skipped_without_rate_controller():
    sim, network = make_fabric()
    engine = ChaosEngine(
        network,
        ChaosTargets(primaries=PRIMARIES),
        storm_config(),
        rng=random.Random(7),
    )
    engine.start()
    sim.run(until=15.0)
    assert not engine.events  # storm is the only weighted fault
    assert engine.faults_injected.value == 0


def test_zero_storm_weight_keeps_existing_schedules():
    """Adding the (default-off) storm fault must not perturb the RNG
    schedule of pre-existing campaigns, controller attached or not."""
    from repro.workloads.generators import ArrivalRateController

    def schedule(controller):
        sim, network = make_fabric()
        engine = ChaosEngine(
            network,
            ChaosTargets(primaries=PRIMARIES, secondaries=SECONDARIES,
                         sequencer="seq"),
            ChaosConfig(duration=10.0, mean_interval=0.3),
            rng=random.Random(11),
            rate_controller=controller,
        )
        engine.start()
        sim.run(until=15.0)
        return [(e.time, e.kind, e.target) for e in engine.events]

    assert schedule(None) == schedule(ArrivalRateController())


# ---------------------------------------------------------------------------
# Gray-fault family: slow nodes, flapping links, one-way cuts, dup storms
# ---------------------------------------------------------------------------
GRAY_CONFIG_KWARGS = dict(
    duration=12.0,
    mean_interval=0.25,
    crash_weight=0.0,
    partition_weight=0.0,
    overload_weight=0.0,
    loss_weight=0.0,
    slow_node_weight=2.0,
    flapping_link_weight=2.0,
    oneway_partition_weight=2.0,
    dup_storm_weight=2.0,
    slow_window=(0.5, 1.5),
    flap_window=(0.5, 1.5),
    dup_window=(0.5, 1.5),
)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"slow_factor": (0.5, 2.0)},
        {"slow_window": (2.0, 1.0)},
        {"flap_period": (0.0, 0.1)},
        {"dup_probability": (0.1, 1.5)},
        {"slow_jitter": (-0.01, 0.05)},
    ],
)
def test_chaos_config_rejects_bad_gray_values(kwargs):
    with pytest.raises(ValueError):
        ChaosConfig(**kwargs)


def run_gray_campaign(seed=5):
    sim, network = make_fabric()
    engine = make_engine(
        network, seed=seed, config=ChaosConfig(**GRAY_CONFIG_KWARGS)
    )
    engine.start()
    sim.run(until=20.0)
    return sim, network, engine


def test_gray_campaign_records_ground_truth():
    sim, network, engine = run_gray_campaign()
    assert engine.finished
    assert engine.gray_schedule, "no gray faults injected"
    kinds = {fault.kind for fault in engine.gray_schedule}
    assert kinds == {
        "slow_node", "flapping_link", "oneway_partition", "dup_storm"
    }
    names = set(network.endpoints())
    for fault in engine.gray_schedule:
        assert fault.target in names
        assert 0.0 < fault.start < fault.end <= sim.now
        assert fault.severity > 0.0


def test_gray_campaign_heals_the_world():
    sim, network, engine = run_gray_campaign()
    assert engine.finished
    assert network.active_partitions() == []
    for name in network.endpoints():
        assert network.is_up(name)
        assert not network.is_degraded(name)
    assert not network._churn  # dup storms fully uninstalled
    assert not network._degraded_links


def test_gray_schedule_is_deterministic():
    def ground_truth(seed):
        _, _, engine = run_gray_campaign(seed)
        return [fault.to_dict() for fault in engine.gray_schedule]

    assert ground_truth(5) == ground_truth(5)
    assert ground_truth(5) != ground_truth(6)


def test_slow_node_degrades_only_during_window():
    sim, network, engine = run_gray_campaign()
    # Replay: degradation observed mid-window has been removed by the end
    # (campaign healed), and the schedule says who was slow when.
    slow = [f for f in engine.gray_schedule if f.kind == "slow_node"]
    assert slow
    for fault in slow:
        assert fault.severity >= 1.0  # latency factor


def test_zero_gray_weights_keep_existing_schedules():
    """All-gray-off configs must replay the exact legacy fault schedule:
    the gray streams draw nothing when their weights are zero."""

    def schedule(**extra):
        sim, network = make_fabric()
        engine = ChaosEngine(
            network,
            ChaosTargets(primaries=PRIMARIES, secondaries=SECONDARIES,
                         sequencer="seq"),
            ChaosConfig(duration=10.0, mean_interval=0.3, **extra),
            rng=random.Random(11),
        )
        engine.start()
        sim.run(until=15.0)
        return [(e.time, e.kind, e.target) for e in engine.events]

    assert schedule() == schedule(
        slow_node_weight=0.0,
        flapping_link_weight=0.0,
        oneway_partition_weight=0.0,
        dup_storm_weight=0.0,
        slow_factor=(4.0, 9.0),  # shape knobs alone must not perturb
        flap_period=(0.05, 0.2),
    )
