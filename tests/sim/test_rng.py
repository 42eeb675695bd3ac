"""Unit and property tests for RNG streams and distributions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.sim.rng import (
    FIRST_BLOCK,
    MAX_BLOCK,
    BlockCursor,
    Constant,
    Distribution,
    LogNormal,
    Normal,
    RngRegistry,
    block_size,
)


def draws(law, n, seed=99, name="dist"):
    """The first ``n`` values of one block stream, read as ``law``."""
    cursor = BlockCursor(RngRegistry(seed), name, law)
    return [cursor.next() for _ in range(n)]


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
# Addressed blocks
# ---------------------------------------------------------------------------
def test_block_sizes_double_up_to_the_cap():
    sizes = [block_size(k) for k in range(7)]
    assert sizes == [16, 32, 64, 128, 256, 256, 256]
    assert sizes[0] == FIRST_BLOCK and sizes[-1] == MAX_BLOCK
    assert RngRegistry(0).block(RngRegistry(0).key("x"), 2).shape == (64,)


@pytest.mark.parametrize("k", [0, 1, 4, 9])
def test_a_block_drawn_directly_equals_the_block_reached_in_order(k):
    """Block k is addressed by its index: drawing it cold, or after blocks
    0..k-1 (and after another stream's blocks), gives the same values."""
    cold = RngRegistry(7)
    direct = cold.block(cold.key("s"), k)
    warm = RngRegistry(7)
    key = warm.key("s")
    for j in range(k):
        warm.block(key, j)
        warm.block(warm.key("other"), j)
    assert np.array_equal(warm.block(key, k), direct)


class StandardNormal(Distribution):
    """The block itself, untransformed."""

    def transform(self, normals):
        return normals


def test_a_cursor_reads_its_blocks_in_order():
    values = draws(StandardNormal(), 16 + 32 + 5, seed=4, name="s")
    registry = RngRegistry(4)
    key = registry.key("s")
    blocks = [registry.block(key, k).tolist() for k in range(3)]
    assert values == blocks[0] + blocks[1] + blocks[2][:5]
    assert draws(Normal(0.0, 1.0), 53, seed=4, name="s") == [max(0.0, v) for v in values]


def test_streams_keyed_by_name_and_seed():
    law = StandardNormal()
    assert draws(law, 20, seed=1, name="a") == draws(law, 20, seed=1, name="a")
    assert draws(law, 20, seed=1, name="a") != draws(law, 20, seed=1, name="b")
    assert draws(law, 20, seed=1, name="a") != draws(law, 20, seed=2, name="a")


def test_a_new_law_takes_effect_at_the_next_value():
    """A new law reads the very normals the old one would have read."""
    registry = RngRegistry(3)
    raw = BlockCursor(registry, "s", StandardNormal())
    expected = [raw.next() for _ in range(20)]
    cursor = BlockCursor(RngRegistry(3), "s", StandardNormal())
    got = [cursor.next() for _ in range(5)]
    cursor.relaw(cursor.law)  # the same law keeps the unread values
    assert len(cursor.values) == FIRST_BLOCK - 5
    cursor.relaw(Normal(1.0, 2.0))
    got += [(cursor.next() - 1.0) / 2.0 for _ in range(3)]
    cursor.relaw(StandardNormal())
    got += [cursor.next() for _ in range(12)]
    assert got == pytest.approx(expected, abs=1e-12)
    assert cursor.block == 2


#: The first values of block 3 of stream ``net.link.a->b`` at seed 0.
CANARY = [0.24041492632224415, -0.6310638880432863, 0.39465248324887203, -0.6186264763971875]


def test_the_normal_stream_canary():
    """numpy's Philox and its ``standard_normal`` are part of every seeded
    output: a numpy whose stream differs fails here first, and every pin
    moves with it."""
    registry = RngRegistry(0)
    block = registry.block(registry.key("net.link.a->b"), 3)
    assert block[:4].tolist() == pytest.approx(CANARY, abs=1e-12)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------
def test_constant_always_same():
    d = Constant(0.5)
    assert draws(d, 10) == [0.5] * 10
    assert d.mean() == 0.5


def test_constant_rejects_negative():
    with pytest.raises(ValueError):
        Constant(-1.0)


def test_normal_respects_floor():
    d = Normal(0.0, 1.0, floor=0.01)
    assert all(v >= 0.01 for v in draws(d, 500))


def test_normal_sample_mean_near_mu():
    d = Normal(0.100, 0.010)
    samples = draws(d, 2000)
    assert abs(sum(samples) / len(samples) - 0.100) < 0.002


def test_normal_rejects_negative_sigma():
    with pytest.raises(ValueError):
        Normal(0.1, -0.1)


def test_lognormal_mean():
    d = LogNormal(math.log(0.1), 0.25)
    expected = math.exp(math.log(0.1) + 0.25**2 / 2)
    samples = draws(d, 5000)
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
    d = Normal(mu, sigma, floor=floor)
    assert all(v >= floor for v in draws(d, 20, seed=0, name="prop"))
