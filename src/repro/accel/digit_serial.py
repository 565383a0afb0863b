"""Digit-serial GF(2^m) multiplication (paper Algorithm 8, Section 5.5.3).

Billie's multiplier iterates over the multiplier D bits ("one digit") at a
time: each cycle it adds B_i * a(x) into the accumulator while shifting
the multiplicand left by D and reducing it modulo f(x).  The digit width D
trades area/cycle-time for cycles per multiplication; prior work found
D = 3 energy-optimal (Kumar/Wollinger/Paar), and the paper adopts that.

A hardwired squarer (Fig. 5.13) computes the bit-interleave + reduction in
a single cycle; its XOR-tree structure is derived here from the reduction
polynomial so that its gate count can feed the energy model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fields.inversion import _poly_mul, _poly_sqr
from repro.fields.nist import BINARY_TAIL_EXPONENTS, reduce_binary


@dataclass(frozen=True)
class DigitSerialResult:
    value: int
    cycles: int


def digit_serial_mul(a: int, b: int, m: int, digit: int = 3
                     ) -> DigitSerialResult:
    """Algorithm 8: c = a*b mod f(x), one digit of b per cycle.

    Cycle count: ceil(m/D) iterations plus one final-reduction cycle plus
    one setup cycle.  The value is the reduced product of ``a`` and the
    ceil(m/D) digits of ``b`` that the loop reads.
    """
    n_digits = -(-m // digit)
    product = _poly_mul(a, b & ((1 << n_digits * digit) - 1))
    return DigitSerialResult(reduce_binary(product, m), n_digits + 2)


def digit_serial_cycles(m: int, digit: int) -> int:
    """Cycles for one multiplication without computing a product."""
    return -(-m // digit) + 2


def hardwired_square(a: int, m: int) -> int:
    """Single-cycle squaring: interleave zeros, then fold (Fig. 5.13)."""
    return reduce_binary(_poly_sqr(a), m)


def squarer_xor_gates(m: int) -> int:
    """Estimated 2-input XOR count of the hardwired squaring unit.

    Each of the ~m/2 folded high bits lands on len(tail) output taps; the
    estimate feeds the Billie area/power model.
    """
    tail = BINARY_TAIL_EXPONENTS[m]
    folded_bits = m - 1  # bits m..2m-2 of the interleaved square
    return folded_bits * len(tail) // 2 + m // 2
