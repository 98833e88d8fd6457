"""Binary32 field decomposition and packed-integer views.

The worked value 7.25 = +1.8125 * 2^2 pins every field: sign 0, biased
exponent 127 + 2 = 129, mantissa round(0.8125 * 2^23) = 6815744, and the
packed integer 6815744 + 129 * 2^23 = 1088946176.
"""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from rootshare.errors import RangeError, UnsupportedValueError
from rootshare.floatbits import (BIAS, L, FloatBits, SignedBitsInteger,
                                 compose, decompose, pack_integer,
                                 to_binary32, unpack_integer)


def test_golden_vector_7_25():
    fb = decompose(7.25)
    assert (fb.sign, fb.E, fb.M) == (0, 129, 6815744)
    packed = pack_integer(fb)
    assert packed.i == 1088946176
    assert packed.sign == 0
    assert compose(unpack_integer(packed.i, packed.sign)) == 7.25


def test_golden_vector_sign_flip():
    fb = decompose(-7.25)
    assert (fb.sign, fb.E, fb.M) == (1, 129, 6815744)
    assert compose(fb) == -7.25


def test_one_has_empty_mantissa():
    assert decompose(1.0) == FloatBits(0, BIAS, 0)
    assert decompose(8192.0) == FloatBits(0, BIAS + 13, 0)


def test_fields_match_struct_oracle():
    rng = random.Random(7)
    for _ in range(500):
        sign = -1.0 if rng.random() < 0.5 else 1.0
        x = sign * (0.5 + rng.random()) * 2.0 ** rng.randint(-30, 30)
        fb = decompose(x)
        bits = struct.unpack("<I", struct.pack("<f", to_binary32(x)))[0]
        assert fb.sign == bits >> 31
        assert fb.E == (bits >> 23) & 0xFF
        assert fb.M == bits & (L - 1)
        assert compose(fb) == to_binary32(x)


def test_pack_unpack_are_inverse():
    rng = random.Random(8)
    for _ in range(500):
        fb = FloatBits(rng.randint(0, 1), rng.randint(1, 254), rng.randrange(L))
        packed = pack_integer(fb)
        assert packed.i == fb.M + fb.E * L
        assert unpack_integer(packed.i, fb.sign) == fb


def test_compose_decompose_roundtrip_is_exact():
    rng = random.Random(9)
    for _ in range(300):
        x = (1.0 + rng.random()) * 2.0 ** rng.randint(-100, 100)
        assert decompose(compose(decompose(x))) == decompose(x)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 1), st.integers(1, 254), st.integers(0, L - 1))
def test_pack_roundtrip_over_normal_bit_patterns(sign, E, M):
    bits = (sign << 31) | (E << 23) | M
    v = struct.unpack("<f", struct.pack("<I", bits))[0]
    got = compose(unpack_integer(pack_integer(decompose(v)).i, sign))
    assert struct.pack("<f", got) == struct.pack("<I", bits)


def test_rejects_zero_and_subnormal():
    with pytest.raises(UnsupportedValueError):
        decompose(0.0)
    # rounds to a binary32 subnormal, below the normal floor 2^-126
    with pytest.raises(UnsupportedValueError):
        decompose(2.0 ** -135)


def test_rejects_non_finite():
    with pytest.raises(UnsupportedValueError):
        decompose(float("inf"))
    with pytest.raises(UnsupportedValueError):
        decompose(float("nan"))
    with pytest.raises(UnsupportedValueError):
        to_binary32(1e300)


def test_field_validation():
    with pytest.raises(RangeError):
        FloatBits(2, 127, 0)
    with pytest.raises(RangeError):
        FloatBits(0, 256, 0)
    with pytest.raises(RangeError):
        FloatBits(0, 127, L)
    with pytest.raises(RangeError):
        SignedBitsInteger(0, 1 << 31)
    with pytest.raises(RangeError):
        compose(FloatBits(0, 255, 0))
    # exponent field of a tiny packed integer reads as 0, not a normal value
    with pytest.raises(RangeError):
        unpack_integer(123)
    with pytest.raises(RangeError):
        unpack_integer(255 * L)
