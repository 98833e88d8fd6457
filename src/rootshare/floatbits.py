"""Bit-exact IEEE-754 binary32 decomposition and packed-integer views.

A normal binary32 value v satisfies v = (-1)^sign * (1 + M/L) * 2^(E - B)
with L = 2^23 and bias B = 127. The packed integer i = M + E*L is the
unsigned reading of the exponent and mantissa fields together; seed
arithmetic in the rsqrt module happens in that integer domain.

Zero, subnormals, infinities and NaN are rejected rather than approximated.
Callers that may hold values below the normal range floor magnitudes
(2^-30 is used by the seed pipeline) before decomposing.
"""

import struct
from dataclasses import dataclass

from .errors import RangeError, UnsupportedValueError

L = 1 << 23
BIAS = 127
_PACKED_LIMIT = 1 << 31


def to_binary32(x: float) -> float:
    """Nearest binary32 to x (round to nearest, ties to even)."""
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        raise UnsupportedValueError(f"{x!r} overflows binary32") from None


@dataclass(frozen=True)
class FloatBits:
    """sign bit, biased exponent E in 0..255, integer mantissa M in 0..L-1."""

    sign: int
    E: int
    M: int

    def __post_init__(self):
        if self.sign not in (0, 1):
            raise RangeError(f"sign must be 0 or 1, got {self.sign}")
        if not 0 <= self.E <= 255:
            raise RangeError(f"biased exponent {self.E} outside 0..255")
        if not 0 <= self.M < L:
            raise RangeError(f"mantissa {self.M} outside 0..{L - 1}")


@dataclass(frozen=True)
class SignedBitsInteger:
    """Packed integer i = M + E*L with the sign carried separately."""

    sign: int
    i: int

    def __post_init__(self):
        if self.sign not in (0, 1):
            raise RangeError(f"sign must be 0 or 1, got {self.sign}")
        if not 0 <= self.i < _PACKED_LIMIT:
            raise RangeError(f"packed integer {self.i} outside 0..2^31-1")


def decompose(v: float) -> FloatBits:
    """Split a finite nonzero normal value into its binary32 fields.

    v is first rounded to the nearest binary32; zero, subnormal, infinite
    and NaN results are rejected.
    """
    bits = struct.unpack("<I", struct.pack("<f", to_binary32(v)))[0]
    sign = bits >> 31
    E = (bits >> 23) & 0xFF
    M = bits & (L - 1)
    if E == 0:
        kind = "zero" if M == 0 else "subnormal"
        raise UnsupportedValueError(f"cannot decompose {kind} value {v!r}")
    if E == 255:
        raise UnsupportedValueError(f"cannot decompose non-finite value {v!r}")
    return FloatBits(sign, E, M)


def compose(fb: FloatBits) -> float:
    """Exact inverse of decompose for normal field values (E not 0 or 255)."""
    if fb.E in (0, 255):
        raise RangeError(f"biased exponent {fb.E} does not denote a normal value")
    bits = (fb.sign << 31) | (fb.E << 23) | fb.M
    return struct.unpack("<f", struct.pack("<I", bits))[0]


def pack_integer(fb: FloatBits) -> SignedBitsInteger:
    return SignedBitsInteger(fb.sign, fb.M + fb.E * L)


def unpack_integer(i: int, sign: int = 0) -> FloatBits:
    """Inverse of pack_integer; rejects integers outside the normal range."""
    if not 0 <= i < _PACKED_LIMIT:
        raise RangeError(f"packed integer {i} outside 0..2^31-1")
    E = i >> 23
    if E == 0 or E >= 255:
        raise RangeError(f"packed integer {i} has non-normal exponent {E}")
    return FloatBits(sign, E, i & (L - 1))
