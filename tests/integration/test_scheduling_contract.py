"""Every event enters the heap through ``schedule_at`` or ``schedule_batch``.

The perf ledger's tracer (``benchmarks/ledger/tracer.py``) labels each event
callback by wrapping exactly those two methods at class level.  An event
pushed any other way — an inlined ``Simulator.schedule``, a direct
``heappush`` — would run unlabelled and quietly lower the ledger's
``trace.coverage``.  Here the same class-level wrap counts the entries the
two methods hand the kernel, and each simulator's own ``seq`` counter says
how many heap entries it created: the two must agree.
"""

import pytest

from repro.experiments.chaos import run_campaign
from repro.experiments.scale import run_scale_cell
from repro.sim.kernel import Simulator
from repro.workloads.scenarios import build_paper_scenario


@pytest.fixture
def scheduled(monkeypatch):
    """``{simulator: entries scheduled through the two methods}``."""
    counts = {}
    schedule_at = Simulator.schedule_at
    schedule_batch = Simulator.schedule_batch

    def counting_schedule_at(sim, time, callback, *args, priority=0):
        counts[sim] = counts.get(sim, 0) + 1
        return schedule_at(sim, time, callback, *args, priority=priority)

    def counting_schedule_batch(sim, times, callback, args_list=None, priority=0):
        times = list(times)
        counts[sim] = counts.get(sim, 0) + len(times)
        return schedule_batch(sim, times, callback, args_list, priority)

    monkeypatch.setattr(Simulator, "schedule_at", counting_schedule_at)
    monkeypatch.setattr(Simulator, "schedule_batch", counting_schedule_batch)
    return counts


def heap_entries_created(sim):
    return next(sim._seq)  # seq numbers run from 0, one per entry


def test_a_paper_cell_schedules_every_event_through_the_two_methods(scheduled):
    scenario = build_paper_scenario(total_requests=60, seed=3)
    scenario.run()
    sim = scenario.sim
    assert scheduled[sim] > 1000
    assert scheduled[sim] == heap_entries_created(sim)


def test_a_fault_campaign_schedules_every_event_through_the_two_methods(scheduled):
    run_campaign(seed=5, duration=2.0)
    [(sim, count)] = scheduled.items()
    assert count > 1000
    assert count == heap_entries_created(sim)


def test_an_aggregated_cell_schedules_its_batches_through_the_two_methods(scheduled):
    run_scale_cell(10_000, duration=4.0, warmup=1.0, seed=2)
    [(sim, count)] = scheduled.items()
    assert count == heap_entries_created(sim)
