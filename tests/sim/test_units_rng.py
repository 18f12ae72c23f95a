"""Time units and split RNG."""

from repro.sim.rng import SplitRng
from repro.sim.units import ms, sec, to_ms, to_sec, us


def test_units_roundtrip():
    assert ms(1) == 1000
    assert sec(1) == 1_000_000
    assert us(7.4) == 7
    assert to_ms(1500) == 1.5
    assert to_sec(2_500_000) == 2.5


def test_units_fractional():
    assert ms(0.5) == 500
    assert sec(0.001) == 1000


def test_same_seed_same_stream():
    a = SplitRng(42).stream("x")
    b = SplitRng(42).stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_streams_independent():
    root = SplitRng(42)
    xs = [root.stream("x").random() for _ in range(3)]
    # Drawing from another stream must not perturb "x".
    root2 = SplitRng(42)
    root2.stream("y").random()
    xs2 = [root2.stream("x").random() for _ in range(3)]
    assert xs == xs2


def test_stream_memoized():
    root = SplitRng(1)
    assert root.stream("a") is root.stream("a")


def test_different_seeds_differ():
    assert SplitRng(1).stream("x").random() != SplitRng(2).stream("x").random()
