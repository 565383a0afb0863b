"""Bit-serial reference forms of the GF(2)[x] and GF(2^m) arithmetic.

These are the plain one-bit-at-a-time loops the word-level code in
``repro.fields.inversion`` and ``repro.accel.digit_serial`` must agree
with: shift-and-add multiplication, bit-by-bit squaring, the Algorithm 8
digit-serial loop and the interleave-then-fold squarer.  They live in the
tests only, as oracles.
"""

from repro.fields.nist import BINARY_TAIL_EXPONENTS

#: Field degrees the oracle comparisons cover: a 32-bit word (Pete's
#: carry-less multiplier) and every NIST binary field.
DEGREES = (32, 163, 233, 283, 409, 571)


def poly_mul(a: int, b: int) -> int:
    """Carry-less multiplication, one bit of ``b`` per step."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def poly_sqr(a: int) -> int:
    """Polynomial squaring, one bit of ``a`` per step."""
    result = 0
    i = 0
    while a:
        if a & 1:
            result |= 1 << (2 * i)
        a >>= 1
        i += 1
    return result


def _fold(c: int, m: int) -> int:
    tail = BINARY_TAIL_EXPONENTS[m]
    while c >> m:
        high = c >> m
        c &= (1 << m) - 1
        for e in tail:
            c ^= high << e
    return c


def algorithm8_mul(a: int, b: int, m: int, digit: int) -> tuple[int, int]:
    """Algorithm 8 as the hardware runs it: (value, cycles)."""
    n_digits = -(-m // digit)
    mask_digit = (1 << digit) - 1
    c = 0
    shifted_a = a
    for i in range(n_digits):
        b_digit = (b >> (digit * i)) & mask_digit
        for bit in range(digit):
            if (b_digit >> bit) & 1:
                c ^= shifted_a << bit
        shifted_a = _fold(shifted_a << digit, m)
    return _fold(c, m), n_digits + 2


def fold_square(a: int, m: int) -> int:
    """The hardwired squarer: interleave zeros, then fold."""
    return _fold(poly_sqr(a), m)


def edge_operands(m: int) -> list[int]:
    """0, 1, all-ones, and values of degree m and beyond."""
    ones = (1 << m) - 1
    return [0, 1, ones, 1 << m, (1 << (m + 7)) | 0b1011, (ones << m) | ones]
