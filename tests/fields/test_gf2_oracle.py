"""Word-level GF(2)[x] arithmetic against the bit-serial oracles."""

import random

import pytest

from repro.fields.binary import BinaryField
from repro.fields.inversion import _poly_mul, _poly_sqr, itoh_tsujii_inverse
from repro.fields.nist import reduce_binary
from tests.gf2_reference import DEGREES, edge_operands, poly_mul, poly_sqr


@pytest.mark.parametrize("m", DEGREES)
def test_poly_mul_matches_oracle(m):
    rng = random.Random(m)
    pairs = [(rng.getrandbits(m), rng.getrandbits(m)) for _ in range(40)]
    # unequal lengths, either way round, down to multipliers of 1-5 bits
    pairs += [(rng.getrandbits(m), rng.getrandbits(k)) for k in range(1, 6)]
    pairs += [(rng.getrandbits(k), rng.getrandbits(m)) for k in range(1, 6)]
    edges = edge_operands(m)
    pairs += [(a, b) for a in edges for b in edges]
    for a, b in pairs:
        assert _poly_mul(a, b) == poly_mul(a, b), (a, b)


@pytest.mark.parametrize("m", DEGREES)
def test_poly_sqr_matches_oracle(m):
    rng = random.Random(m)
    for a in [rng.getrandbits(m) for _ in range(40)] + edge_operands(m):
        assert _poly_sqr(a) == poly_sqr(a), a


@pytest.mark.parametrize("m", DEGREES[1:])
def test_field_ops_match_oracle(m):
    rng = random.Random(m)
    field = BinaryField.nist(m)
    for _ in range(10):
        a, b = rng.getrandbits(m), rng.getrandbits(m)
        assert field.mul(a, b) == reduce_binary(poly_mul(a, b), m)
        assert field.sqr(a) == reduce_binary(poly_sqr(a), m)
        inv = itoh_tsujii_inverse(a | 1, m, lambda c: reduce_binary(c, m))
        assert reduce_binary(poly_mul(inv, a | 1), m) == 1
