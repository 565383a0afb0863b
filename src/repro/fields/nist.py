"""NIST field constants and fast-reduction routines.

The paper evaluates five prime fields (Eq. 4.3-4.7) and five binary fields
(Eq. 4.8-4.12), all standardized by NIST in FIPS 186.  The primes are
generalized-Mersenne numbers whose terms fall on 32-bit word boundaries
(except P-521, which is a pure Mersenne number), enabling reduction by a
handful of word-aligned folds.  The binary reduction polynomials are
trinomials/pentanomials whose fast reduction folds the high words back with
a few shifted XORs (Algorithm 7 for B-163).

This module provides the constants plus *integer-level* fast reduction
(operating on Python ints).  Word-level (limb-array) implementations of the
same algorithms live in :mod:`repro.mp.reduce` and are validated against
these.
"""

from __future__ import annotations

from typing import Callable

# ---------------------------------------------------------------------------
# Prime fields: p as sums of powers of two (Eq. 4.3 - 4.7 of the paper).
# ---------------------------------------------------------------------------

P192 = 2**192 - 2**64 - 1
P224 = 2**224 - 2**96 + 1
P256 = 2**256 - 2**224 + 2**192 + 2**96 - 1
P384 = 2**384 - 2**128 - 2**96 + 2**32 - 1
P521 = 2**521 - 1

NIST_PRIMES: dict[int, int] = {
    192: P192,
    224: P224,
    256: P256,
    384: P384,
    521: P521,
}

#: Number of "fold" terms in each generalized-Mersenne prime; the cost of
#: fast reduction grows with this count (used by the cycle model).
PRIME_FOLD_TERMS: dict[int, int] = {192: 3, 224: 2, 256: 4, 384: 4, 521: 1}


def _mask_words(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


def reduce_p192(c: int) -> int:
    """NIST fast reduction modulo P-192 (Algorithm 4 of the paper).

    Folds the upper three 64-bit limbs of a <=384-bit product back into the
    lower 192 bits using 2^192 == 2^64 + 1 (mod p).
    """
    mask64 = (1 << 64) - 1
    c0 = c & ((1 << 192) - 1)
    c3 = (c >> 192) & mask64
    c4 = (c >> 256) & mask64
    c5 = (c >> 320) & mask64
    s1 = c0
    s2 = (c3 << 64) | c3
    s3 = (c4 << 128) | (c4 << 64)
    s4 = (c5 << 128) | (c5 << 64) | c5
    t = s1 + s2 + s3 + s4
    while t >= P192:
        t -= P192
    return t


def reduce_p224(c: int) -> int:
    """NIST fast reduction modulo P-224 (32-bit limb folding)."""
    mask32 = (1 << 32) - 1
    limbs = [(c >> (32 * i)) & mask32 for i in range(14)]
    s1 = sum(limbs[i] << (32 * i) for i in range(7))
    s2 = (limbs[7] << 96) | (limbs[8] << 128) | (limbs[9] << 160) | (
        limbs[10] << 192
    )
    s3 = (limbs[11] << 96) | (limbs[12] << 128) | (limbs[13] << 160)
    s4 = sum(limbs[7 + i] << (32 * i) for i in range(7))
    s5 = (limbs[11] << 0) | (limbs[12] << 32) | (limbs[13] << 64)
    t = s1 + s2 + s3 - s4 - s5
    while t < 0:
        t += P224
    while t >= P224:
        t -= P224
    return t


def reduce_p256(c: int) -> int:
    """NIST fast reduction modulo P-256 (FIPS 186-4, D.2.3)."""
    mask32 = (1 << 32) - 1
    a = [(c >> (32 * i)) & mask32 for i in range(16)]

    def words(*idx: int) -> int:
        return sum(a[j] << (32 * i) for i, j in enumerate(idx) if j >= 0)

    s1 = words(0, 1, 2, 3, 4, 5, 6, 7)
    s2 = words(-1, -1, -1, 11, 12, 13, 14, 15)
    s3 = words(-1, -1, -1, 12, 13, 14, 15, -1)
    s4 = words(8, 9, 10, -1, -1, -1, 14, 15)
    s5 = words(9, 10, 11, 13, 14, 15, 13, 8)
    s6 = words(11, 12, 13, -1, -1, -1, 8, 10)
    s7 = words(12, 13, 14, 15, -1, -1, 9, 11)
    s8 = words(13, 14, 15, 8, 9, 10, -1, 12)
    s9 = words(14, 15, -1, 9, 10, 11, -1, 13)
    t = s1 + 2 * s2 + 2 * s3 + s4 + s5 - s6 - s7 - s8 - s9
    while t < 0:
        t += P256
    while t >= P256:
        t -= P256
    return t


def reduce_p384(c: int) -> int:
    """NIST fast reduction modulo P-384 (FIPS 186-4, D.2.4)."""
    mask32 = (1 << 32) - 1
    a = [(c >> (32 * i)) & mask32 for i in range(24)]

    def words(*idx: int) -> int:
        return sum(a[j] << (32 * i) for i, j in enumerate(idx) if j >= 0)

    s1 = words(*range(12))
    s2 = words(-1, -1, -1, -1, 21, 22, 23, -1, -1, -1, -1, -1)
    s3 = words(12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23)
    s4 = words(21, 22, 23, 12, 13, 14, 15, 16, 17, 18, 19, 20)
    s5 = words(-1, 23, -1, 20, 12, 13, 14, 15, 16, 17, 18, 19)
    s6 = words(-1, -1, -1, -1, 20, 21, 22, 23, -1, -1, -1, -1)
    s7 = words(20, -1, -1, 21, 22, 23, -1, -1, -1, -1, -1, -1)
    s8 = words(23, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22)
    s9 = words(-1, 20, 21, 22, 23, -1, -1, -1, -1, -1, -1, -1)
    s10 = words(-1, -1, -1, 23, 23, -1, -1, -1, -1, -1, -1, -1)
    t = s1 + 2 * s2 + s3 + s4 + s5 + s6 + s7 - s8 - s9 - s10
    while t < 0:
        t += P384
    while t >= P384:
        t -= P384
    return t


def reduce_p521(c: int) -> int:
    """Reduction modulo the Mersenne prime P-521: a single fold."""
    t = (c & ((1 << 521) - 1)) + (c >> 521)
    while t >= P521:
        t -= P521
    return t


PRIME_REDUCERS: dict[int, Callable[[int], int]] = {
    192: reduce_p192,
    224: reduce_p224,
    256: reduce_p256,
    384: reduce_p384,
    521: reduce_p521,
}

# ---------------------------------------------------------------------------
# Binary fields: irreducible polynomials (Eq. 4.8 - 4.12 of the paper).
# Each polynomial is stored as an int whose set bits are the exponents.
# ---------------------------------------------------------------------------

B163_POLY = (1 << 163) | (1 << 7) | (1 << 6) | (1 << 3) | 1
B233_POLY = (1 << 233) | (1 << 74) | 1
B283_POLY = (1 << 283) | (1 << 12) | (1 << 7) | (1 << 5) | 1
B409_POLY = (1 << 409) | (1 << 87) | 1
B571_POLY = (1 << 571) | (1 << 10) | (1 << 5) | (1 << 2) | 1

NIST_BINARY_POLYS: dict[int, int] = {
    163: B163_POLY,
    233: B233_POLY,
    283: B283_POLY,
    409: B409_POLY,
    571: B571_POLY,
}

#: Non-leading exponents of each reduction polynomial (used by both the
#: generic fast reducer and the Billie squaring-unit generator).
BINARY_TAIL_EXPONENTS: dict[int, tuple[int, ...]] = {
    163: (7, 6, 3, 0),
    233: (74, 0),
    283: (12, 7, 5, 0),
    409: (87, 0),
    571: (10, 5, 2, 0),
}


def reduce_binary(c: int, m: int) -> int:
    """Fast reduction of a polynomial product modulo the NIST polynomial.

    Repeatedly substitutes ``x^m == x^e1 + x^e2 + ...`` (the tail of the
    reduction polynomial), folding the high part down -- the integer-level
    equivalent of Algorithm 7.  Works for any degree of ``c``.
    """
    tail = BINARY_TAIL_EXPONENTS.get(m)
    if tail is None:
        raise KeyError(f"no NIST binary field of degree {m}")
    while c >> m:
        high = c >> m
        c &= (1 << m) - 1
        for e in tail:
            c ^= high << e
    return c


# ---------------------------------------------------------------------------
# Security-level pairing used throughout the evaluation (Fig. 7.7 etc.):
# each prime key size is compared against the binary field of equivalent
# security.
# ---------------------------------------------------------------------------

EQUIVALENT_SECURITY: tuple[tuple[int, int], ...] = (
    (192, 163),
    (224, 233),
    (256, 283),
    (384, 409),
    (521, 571),
)


def prime_field(bits: int):
    """Return the shared :class:`PrimeField` instance for a NIST prime."""
    from repro.fields.prime import PrimeField

    return PrimeField.nist(bits)


def binary_field(m: int):
    """Return the shared :class:`BinaryField` instance for a NIST field."""
    from repro.fields.binary import BinaryField

    return BinaryField.nist(m)
