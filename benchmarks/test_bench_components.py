"""Component microbenchmarks.

Not a paper figure — these quantify the building blocks so regressions in
the hot paths (the ones Figure 3's overhead is made of, plus the
simulation substrate itself) are visible:

* pmf construction + convolution (the §5.2 prediction inner loop);
* the Poisson staleness factor (Eq. 4);
* Algorithm 1 proper (selection only — the paper's "remaining 10 %");
* simulator event throughput and reliable-multicast round-trips.

Run: ``pytest benchmarks/test_bench_components.py --benchmark-only``
"""

import pytest

from repro.core.prediction import ResponseTimePredictor
from repro.core.qos import QoSSpec
from repro.core.repository import ClientInfoRepository
from repro.core.requests import PerfBroadcast
from repro.core.selection import ReplicaView, StateBasedSelection
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.stats.pmf import DiscretePmf
from repro.stats.poisson import poisson_cdf
from repro.stats.sliding_window import SlidingWindow


# ---------------------------------------------------------------------------
# Prediction inner loop
# ---------------------------------------------------------------------------
@pytest.mark.benchmark(group="components-pmf")
def test_pmf_from_samples(benchmark):
    rng = RngRegistry(0).stream("bench")
    samples = [max(0.0, rng.gauss(0.1, 0.05)) for _ in range(20)]
    pmf = benchmark(DiscretePmf.from_samples, samples)
    assert pmf.mass.sum() == pytest.approx(1.0)


@pytest.mark.benchmark(group="components-pmf")
def test_pmf_from_histogram(benchmark):
    """Construction from a window's incremental histogram (no raw pass)."""
    rng = RngRegistry(0).stream("bench")
    window = SlidingWindow(20, quantum=1e-3)
    window.extend(max(0.0, rng.gauss(0.1, 0.05)) for _ in range(20))
    offset, counts = window.histogram(1e-3)
    pmf = benchmark(DiscretePmf.from_histogram, 1e-3, offset, counts)
    assert pmf.mass.sum() == pytest.approx(1.0)


@pytest.mark.benchmark(group="components-pmf")
def test_pmf_convolution(benchmark):
    rng = RngRegistry(1).stream("bench")
    a = DiscretePmf.from_samples([max(0.0, rng.gauss(0.1, 0.05)) for _ in range(20)])
    b = DiscretePmf.from_samples([max(0.0, rng.gauss(0.01, 0.01)) for _ in range(20)])
    conv = benchmark(a.convolve, b)
    assert conv.mean() == pytest.approx(a.mean() + b.mean(), abs=1e-9)


@pytest.mark.benchmark(group="components-pmf")
def test_pmf_cdf_evaluation(benchmark):
    rng = RngRegistry(2).stream("bench")
    pmf = DiscretePmf.from_samples(
        [max(0.0, rng.gauss(0.1, 0.05)) for _ in range(40)]
    )
    value = benchmark(pmf.cdf, 0.150)
    assert 0.0 <= value <= 1.0


@pytest.mark.benchmark(group="components-pmf")
def test_pmf_cdf_many(benchmark):
    """Batched CDF evaluation against the cached cumulative array."""
    rng = RngRegistry(2).stream("bench")
    pmf = DiscretePmf.from_samples(
        [max(0.0, rng.gauss(0.1, 0.05)) for _ in range(40)]
    )
    deadlines = [0.050 + 0.005 * i for i in range(32)]
    values = benchmark(pmf.cdf_many, deadlines)
    assert len(values) == 32


@pytest.mark.benchmark(group="components-staleness")
def test_poisson_staleness_factor(benchmark):
    value = benchmark(poisson_cdf, 4, 2.5)
    assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# Versioned prediction cache (§5.2 hot path)
# ---------------------------------------------------------------------------
def _filled_predictor(use_cache: bool, replicas: int = 8, window: int = 20):
    rng = RngRegistry(5).stream("bench")
    repo = ClientInfoRepository(window)
    names = [f"r{i}" for i in range(replicas)]
    for name in names:
        for _ in range(window):
            repo.record_broadcast(
                PerfBroadcast(
                    replica=name,
                    ts=max(0.002, rng.gauss(0.100, 0.050)),
                    tq=max(0.0, rng.gauss(0.010, 0.010)),
                    tb=rng.uniform(0.0, 2.0),
                )
            )
        repo.record_reply(name, tg=rng.uniform(0.0005, 0.002), now=1.0)
    predictor = ResponseTimePredictor(repo, 2.0, use_cache=use_cache)
    return predictor, names


def _prediction_pass(predictor, names, deadline=0.150):
    for name in names:
        predictor.response_cdfs(name, deadline)


@pytest.mark.benchmark(group="components-prediction")
def test_prediction_pass_uncached(benchmark):
    """Fresh per-read recomputation (the paper's Figure 3 semantics)."""
    predictor, names = _filled_predictor(use_cache=False)
    benchmark(_prediction_pass, predictor, names)
    assert predictor.cache_hits == 0


@pytest.mark.benchmark(group="components-prediction")
def test_prediction_pass_cached_steady_state(benchmark):
    """Steady-state reads: every lookup after warmup hits the cache."""
    predictor, names = _filled_predictor(use_cache=True)
    _prediction_pass(predictor, names)  # warm the cache
    benchmark(_prediction_pass, predictor, names)
    assert predictor.cache_hits > 0
    assert predictor.cache_invalidations == 0


#: Absolute budgets for one ``response_cdfs`` evaluation, in µs.  Until PR 15
#: the gate was a ≥3x cached-vs-recomputed ratio: recomputation cost ~207 µs
#: per replica (two convolutions, one against a 2 000-bin lazy wait) against
#: ~2 µs for a lookup into a finished pmf, so any ratio held.  Counting from
#: integer histograms builds no pmf: recomputation is ~30 µs, a hit ~7 µs
#: (it counts), the ratio is ~4-5x and swings between 2x and 7x on a shared
#: runner.  So the gate is now what a regression would actually break —
#: a pmf materialized on this path again costs well over 150 µs per replica
#: — and both absolute costs are what BENCH_components.json records.
CACHED_BUDGET_US_PER_REPLICA = 40.0
RECOMPUTED_BUDGET_US_PER_REPLICA = 150.0


def test_prediction_cache_speedup_threshold(report, record):
    """Acceptance: both paths inside their absolute budgets, and the cache
    still pays for itself on steady-state reads."""
    import time

    def timed_pass(predictor, names, reps=300):
        _prediction_pass(predictor, names)  # warmup / cache fill
        start = time.perf_counter()
        for _ in range(reps):
            _prediction_pass(predictor, names)
        return time.perf_counter() - start

    uncached, names = _filled_predictor(use_cache=False)
    cached, _ = _filled_predictor(use_cache=True)
    cold_us = 1e6 * timed_pass(uncached, names) / 300
    warm_us = 1e6 * timed_pass(cached, names) / 300
    speedup = cold_us / warm_us
    report(
        f"prediction cache steady-state: uncached {cold_us:.1f} us/pass, "
        f"cached {warm_us:.1f} us/pass, speedup {speedup:.1f}x"
    )
    record("prediction_uncached_us_per_pass", cold_us)
    record("prediction_cached_us_per_pass", warm_us)
    assert warm_us <= CACHED_BUDGET_US_PER_REPLICA * len(names), (
        f"cached pass {warm_us:.1f} us over budget"
    )
    assert cold_us <= RECOMPUTED_BUDGET_US_PER_REPLICA * len(names), (
        f"recomputed pass {cold_us:.1f} us over budget"
    )
    assert warm_us < cold_us, "the cache made steady-state reads slower"
    assert cached.cache_hits > 0 and cached.cache_invalidations == 0


# ---------------------------------------------------------------------------
# Algorithm 1 alone
# ---------------------------------------------------------------------------
@pytest.mark.benchmark(group="components-selection")
@pytest.mark.parametrize("num_replicas", [5, 10, 20])
def test_algorithm1_selection_only(benchmark, num_replicas):
    rng = RngRegistry(3).stream("bench")
    candidates = [
        ReplicaView(
            name=f"r{i}",
            is_primary=i < num_replicas // 3,
            immediate_cdf=rng.random(),
            delayed_cdf=rng.random() * 0.5,
            ert=rng.random() * 10,
        )
        for i in range(num_replicas)
    ]
    qos = QoSSpec(2, 0.150, 0.9)
    strategy = StateBasedSelection()
    result = benchmark(strategy.select, candidates, qos, 0.7)
    assert len(result.replicas) >= 1


# ---------------------------------------------------------------------------
# Substrate throughput
# ---------------------------------------------------------------------------
@pytest.mark.benchmark(group="components-substrate")
def test_simulator_event_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run_10k_events) == 10_000


@pytest.mark.benchmark(group="components-substrate")
def test_reliable_multicast_round(benchmark):
    """One reliable FIFO multicast to 9 members, acks and all."""
    from repro.groups.group import GroupEndpoint
    from repro.groups.membership import MembershipService
    from repro.net.latency import FixedLatency
    from repro.net.network import Network

    class Echo(GroupEndpoint):
        def __init__(self, name):
            super().__init__(name)
            self.count = 0

        def on_group_message(self, group, sender, payload):
            self.count += 1

    def build():
        sim = Simulator()
        network = Network(sim, RngRegistry(4), FixedLatency(0.001))
        service = MembershipService()
        network.attach(service)
        nodes = [Echo(f"n{i}") for i in range(10)]
        for node in nodes:
            network.attach(node)
            service.register("g", node.name)
            node.assume_membership("g")
        for node in nodes:
            node.adopt_view(service.view_of("g"))
        return sim, nodes

    def round_trip():
        sim, nodes = build()
        for i in range(20):
            nodes[0].gmcast("g", i)
        sim.run(until=5.0)
        return sum(n.count for n in nodes[1:])

    assert benchmark(round_trip) == 9 * 20
