"""The SplitMix64 streams: the library's recurrence (`nsp._draw_from` of a
`rng.substream` state) and the oracle's `SplitMix64` draw the published
vectors, and the oracle's derived draws stay in range."""

import pytest

from syllabeam.nsp import _draw_from
from syllabeam.rng import substream

from nsp_rules import SplitMix64

# the published splitmix64 reference outputs for seed 1234567
KNOWN = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_known_sequence():
    draw, rng = _draw_from(1234567), SplitMix64(1234567)
    assert [draw() for _ in KNOWN] == [rng.next_uint64() for _ in KNOWN] == KNOWN
    assert _draw_from(substream(0, 0))() == SplitMix64(substream(0, 0)).next_uint64() == 12035550249420947055


def test_seed_zero_mixes():
    assert _draw_from(0)() != 0


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
    a1, a2, b = _draw_from(substream(123, 0)), _draw_from(substream(123, 0)), _draw_from(substream(123, 1))
    seq_a1 = [a1() for _ in range(5)]
    assert seq_a1 == [a2() for _ in range(5)]
    assert seq_a1 != [b() for _ in range(5)]
