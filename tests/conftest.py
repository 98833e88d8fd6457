"""Shared fixtures and small two-party drivers for the suite."""

import random

import pytest

from rootshare.ring import (DealerState, FixedPointCodec, beaver_mul_batch,
                            make_shares, run_session)


@pytest.fixture
def codec():
    return FixedPointCodec()


@pytest.fixture
def codec32():
    return FixedPointCodec(l=32, f=12)


def quantize(x, codec):
    return codec.decode(codec.encode(x))


def mul_pairs(codec, xs, ys, seed):
    """Decoded Beaver products of two plaintext batches over a fresh session.

    Inputs are pre-quantized to the codec grid so the caller can compare
    against exact products of representable values.
    """
    rng = random.Random(seed)
    count = len(xs)
    xsh = [make_shares(x, codec, rng) for x in xs]
    ysh = [make_shares(y, codec, rng) for y in ys]

    def party_fn(party, values, channel, triples):
        return beaver_mul_batch(party, values[:count], values[count:],
                                triples.take(count), channel, codec)

    out, _, _ = run_session(party_fn, [p[0].value for p in xsh + ysh],
                            [p[1].value for p in xsh + ysh],
                            DealerState(codec, seed=seed + 1))
    return out


def chi2_uniform_stat(counts):
    """Pearson statistic of observed bin counts against the uniform law."""
    total = sum(counts)
    expected = total / len(counts)
    return sum((c - expected) ** 2 / expected for c in counts)


class FixedBits:
    """random.Random stand-in that hands out one scripted mask."""

    def __init__(self, value):
        self.value = value

    def getrandbits(self, _bits):
        return self.value
