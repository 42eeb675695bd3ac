"""Unit and property tests for RNG streams and distributions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import (
    Constant,
    LogNormal,
    Normal,
    RngRegistry,
)


# ---------------------------------------------------------------------------
# RngRegistry
# ---------------------------------------------------------------------------
def test_same_seed_same_stream_sequence():
    a = RngRegistry(7).stream("x")
    b = RngRegistry(7).stream("x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_give_different_streams():
    reg = RngRegistry(7)
    xs = [reg.stream("x").random() for _ in range(5)]
    ys = [reg.stream("y").random() for _ in range(5)]
    assert xs != ys


def test_different_seeds_give_different_streams():
    a = RngRegistry(1).stream("x").random()
    b = RngRegistry(2).stream("x").random()
    assert a != b


def test_stream_is_cached():
    reg = RngRegistry(0)
    assert reg.stream("x") is reg.stream("x")


def test_new_stream_does_not_perturb_existing():
    reg1 = RngRegistry(3)
    s = reg1.stream("a")
    first = [s.random() for _ in range(3)]

    reg2 = RngRegistry(3)
    reg2.stream("b")  # extra consumer created first
    s2 = reg2.stream("a")
    second = [s2.random() for _ in range(3)]
    assert first == second


def test_spawn_derives_independent_registry():
    parent = RngRegistry(5)
    child1 = parent.spawn("rep1")
    child2 = parent.spawn("rep2")
    assert child1.seed != child2.seed
    assert parent.spawn("rep1").seed == child1.seed


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------
@pytest.fixture
def stream():
    return RngRegistry(99).stream("dist")


def test_constant_always_same(stream):
    d = Constant(0.5)
    assert all(d.sample(stream) == 0.5 for _ in range(10))
    assert d.mean() == 0.5


def test_constant_rejects_negative():
    with pytest.raises(ValueError):
        Constant(-1.0)


def test_normal_respects_floor(stream):
    d = Normal(0.0, 1.0, floor=0.01)
    assert all(d.sample(stream) >= 0.01 for _ in range(500))


def test_normal_sample_mean_near_mu(stream):
    d = Normal(0.100, 0.010)
    samples = [d.sample(stream) for _ in range(2000)]
    assert abs(sum(samples) / len(samples) - 0.100) < 0.002


def test_normal_rejects_negative_sigma():
    with pytest.raises(ValueError):
        Normal(0.1, -0.1)


def test_lognormal_mean(stream):
    d = LogNormal(math.log(0.1), 0.25)
    expected = math.exp(math.log(0.1) + 0.25**2 / 2)
    samples = [d.sample(stream) for _ in range(5000)]
    assert abs(sum(samples) / len(samples) - expected) < 0.01
    assert d.mean() == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    name=st.text(min_size=1, max_size=20),
)
@settings(max_examples=50)
def test_streams_are_reproducible_property(seed, name):
    a = RngRegistry(seed).stream(name).random()
    b = RngRegistry(seed).stream(name).random()
    assert a == b


@given(
    mu=st.floats(min_value=0.0, max_value=10.0),
    sigma=st.floats(min_value=0.0, max_value=5.0),
    floor=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=50)
def test_normal_samples_never_below_floor(mu, sigma, floor):
    stream = RngRegistry(0).stream("prop")
    d = Normal(mu, sigma, floor=floor)
    assert all(d.sample(stream) >= floor for _ in range(20))
