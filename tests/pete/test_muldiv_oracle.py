"""Pete's carry-less multiply/accumulate against the bit-serial oracle."""

import random

from repro.pete.muldiv import MulDivUnit
from tests.gf2_reference import edge_operands, poly_mul

MASK32 = (1 << 32) - 1
MASK96 = (1 << 96) - 1


def test_mulgf2_and_maddgf2_match_oracle():
    rng = random.Random(32)
    words = [rng.getrandbits(32) for _ in range(30)]
    words += [rng.getrandbits(k) for k in range(1, 6)] + edge_operands(32)
    unit = MulDivUnit(extensions=True, binary_extensions=True)
    acc = 0
    for a, b in zip(words, reversed(words)):
        expected = poly_mul(a & MASK32, b & MASK32)
        unit.mulgf2(0, a, b)
        assert unit.acc == expected, (a, b)
        unit.acc = acc
        unit.maddgf2(0, a, b)
        acc = (acc ^ expected) & MASK96
        assert unit.acc == acc, (a, b)
