import pytest

from syllabeam.rng import SplitMix64, substream


def test_known_sequence():
    # the published splitmix64 reference outputs for seed 1234567
    rng = SplitMix64(1234567)
    assert [rng.next_uint64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    assert substream(0, 0).next_uint64() == 12035550249420947055


def test_seed_zero_mixes():
    rng = SplitMix64(0)
    assert rng.next_uint64() != 0


def test_random_in_unit_interval():
    rng = SplitMix64(42)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(sum(values) / len(values) - 0.5) < 0.05


def test_randrange_bounds():
    rng = SplitMix64(7)
    values = [rng.randrange(5) for _ in range(500)]
    assert set(values) == {0, 1, 2, 3, 4}
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_bernoulli_rate():
    rng = SplitMix64(99)
    hits = sum(rng.bernoulli(0.3) for _ in range(10000))
    assert abs(hits / 10000 - 0.3) < 0.02


def test_substreams_independent_and_reproducible():
    a1 = substream(123, 0)
    a2 = substream(123, 0)
    b = substream(123, 1)
    seq_a1 = [a1.next_uint64() for _ in range(5)]
    seq_a2 = [a2.next_uint64() for _ in range(5)]
    seq_b = [b.next_uint64() for _ in range(5)]
    assert seq_a1 == seq_a2
    assert seq_a1 != seq_b
