"""Billie's multiplier and squarer against the Algorithm 8 loop and the
interleave-then-fold squarer, run bit by bit."""

import random

import pytest

from repro.accel.digit_serial import (
    digit_serial_cycles,
    digit_serial_mul,
    hardwired_square,
)
from tests.gf2_reference import (
    DEGREES,
    algorithm8_mul,
    edge_operands,
    fold_square,
)

NIST_DEGREES = DEGREES[1:]


@pytest.mark.parametrize("m", NIST_DEGREES)
@pytest.mark.parametrize("digit", range(1, 9))
def test_digit_serial_mul_matches_algorithm8(m, digit):
    rng = random.Random(m * 10 + digit)
    n_bits = -(-m // digit) * digit
    pairs = [(rng.getrandbits(m), rng.getrandbits(m)) for _ in range(4)]
    edges = edge_operands(m)
    pairs += [(a, b) for a in edges for b in edges[:3]]
    # bits of b above ceil(m/D)*D are never read by the loop
    pairs += [(rng.getrandbits(m), rng.getrandbits(m) | (0b101 << n_bits))]
    for a, b in pairs:
        value, cycles = algorithm8_mul(a, b, m, digit)
        result = digit_serial_mul(a, b, m, digit)
        assert result.value == value, (a, b)
        assert result.cycles == cycles == digit_serial_cycles(m, digit)


@pytest.mark.parametrize("m", NIST_DEGREES)
def test_hardwired_square_matches_fold(m):
    rng = random.Random(m)
    for a in [rng.getrandbits(m) for _ in range(10)] + edge_operands(m):
        assert hardwired_square(a, m) == fold_square(a, m), a


@pytest.mark.parametrize("op", [lambda m: digit_serial_mul(3, 5, m),
                                lambda m: hardwired_square(3, m)])
@pytest.mark.parametrize("m", [32, 200])
def test_non_nist_degree_names_the_field(op, m):
    with pytest.raises(KeyError, match=f"no NIST binary field of degree {m}"):
        op(m)
