"""Golden digests of protocol outputs with their exact counts.

A change that only makes the protocol cheaper to compute must leave every
output bit and every counted byte, frame and round as it was. These pins
record the SHA-256 of the output ring integers of fixed runs, and
their exact `CommStats`, so such a change proves that it is bit-identical
inside the suite. Without pytest, `python3 tests/test_bit_identity.py`
(with `src` on the path) checks all five pins.
"""

import hashlib
import random

try:
    import pytest
except ImportError:
    pytest = None

from rootshare import ActivationSampler, CommStats, ToyEncoderConfig, \
    draw_flood_mask, flood_share, run_shared_rsqrt, toy_encoder_infer
from rootshare.config import DEFAULT_CONFIG
from rootshare.ring import DealerState, FixedPointCodec, Masked, \
    beaver_mul_batch, matmul_shared, run_session, split_values, \
    truncate_local

RSQRT_ELEMENTS = 2000
RSQRT_INPUT_SEED = 7
RSQRT_DEALER_SEED = 911
RSQRT_DIGEST = (
    "0bdcdc6af1ee873d08816865cf0bd55664aa1425f07b2fc81a0dc4579efcaf8d")
RSQRT_STATS = (CommStats(208032, 208000, 8, 8),
               CommStats(208032, 208000, 8, 8))
ENCODER_DIGEST = (
    "2c5737dc9bd3389c3925a55b09d673f7f1982eb7cd2b21e24b11af0849fe187a")
ENCODER_STATS = (CommStats(52416, 52224, 48, 53),
                 CommStats(55188, 54976, 53, 53))


def _ring_digest(outputs, codec):
    """SHA-256 of the ring integers behind decoded outputs.

    Decoding divides a signed ring integer by 2^f, which a float holds
    exactly below 2^53, so each output maps back to one integer.
    """
    limit = 2.0 ** (53 - codec.f)
    assert all(abs(y) < limit for y in outputs)
    ring = [round(y * codec.scale) % codec.modulus for y in outputs]
    return hashlib.sha256(",".join(map(str, ring)).encode()).hexdigest()


def test_rsqrt_outputs_and_counts_are_pinned():
    cfg = DEFAULT_CONFIG
    sampler = ActivationSampler(cfg.sampler_log2_mean, cfg.sampler_log2_std,
                                seed=RSQRT_INPUT_SEED)
    mask_rng = random.Random(RSQRT_INPUT_SEED + 1)
    pairs = []
    for x in sampler.sample(RSQRT_ELEMENTS):
        c, s = flood_share(x, draw_flood_mask(cfg.flood, mask_rng), cfg.codec)
        pairs.append((c.value, s.value))
    ys, stats_c, stats_s = run_shared_rsqrt(
        pairs, cfg.codec, cfg.seed, cfg.newton,
        dealer_seed=RSQRT_DEALER_SEED)
    assert (stats_c, stats_s) == RSQRT_STATS
    assert _ring_digest(ys, cfg.codec) == RSQRT_DIGEST


def test_encoder_outputs_and_counts_are_pinned():
    # criterion 9's fixture
    cfg = ToyEncoderConfig(seq_len=8, model_dim=16)
    rng = random.Random(0)
    x = [[0.8 + 0.4 * rng.random() for _ in range(cfg.model_dim)]
         for _ in range(cfg.seq_len)]
    got, info = toy_encoder_infer(cfg, x, mode="shared")
    assert (info["client"], info["server"]) == ENCODER_STATS
    flat = [v for row in got for v in row]
    assert _ring_digest(flat, DEFAULT_CONFIG.codec) == ENCODER_DIGEST


L32_CODEC = FixedPointCodec(l=32, f=12)
L32_ELEMENTS = 600
L32_ROW = 4
L32_INPUT_SEED = 32
L32_DEALER_SEED = 3212
L32_DIGEST = (
    "6b7aa44ead07e148e856a2bb82d0a3cad9bce0358c01324adff656346ab96a80")
L32_STATS = (CommStats(10212, 10200, 3, 3),
             CommStats(10212, 10200, 3, 3))


def test_l32_products_and_truncation_are_pinned():
    # 4-byte elements: plain, square and fixed-mask Beaver products, then
    # one truncation of raw ring integers, the ring's edge values among them
    codec = L32_CODEC
    n, rows = L32_ELEMENTS, L32_ELEMENTS // L32_ROW
    rng = random.Random(L32_INPUT_SEED)
    plain = [rng.uniform(-40.0, 40.0) for _ in range(2 * n + rows)]
    edges = [0, 1, 1 << (codec.l - 1), codec.modulus - 1]
    raw = edges + [rng.getrandbits(codec.l) for _ in range(n)]
    shares = {}

    def party_fn(party, values, channel, triples):
        x, y, r = values[:n], values[n:2 * n], values[2 * n:]
        out = list(beaver_mul_batch(party, x, y, triples.take(n), channel,
                                    codec))
        a, aa = triples.take_squares(n)
        sq = Masked(x, a)
        out += beaver_mul_batch(party, (sq,), (sq,), (aa,), channel, codec)
        b, a, ab = triples.take_fixed_mask(rows, L32_ROW)
        out += beaver_mul_batch(party, (Masked(y, a),), (Masked(r, b),),
                                (ab,), channel, codec)
        out += truncate_local(party, raw, codec)
        shares[party] = out
        return out

    _, stats_c, stats_s = run_session(
        party_fn, *split_values(plain, codec, rng),
        DealerState(codec, seed=L32_DEALER_SEED))
    assert (stats_c, stats_s) == L32_STATS
    text = ";".join(",".join(map(str, shares[party]))
                    for party in ("client", "server"))
    assert hashlib.sha256(text.encode()).hexdigest() == L32_DIGEST


# (l, f) with a 4-byte array typecode, and with 5-byte lanes (lists)
MATRIX_CODECS = (FixedPointCodec(l=32, f=12), FixedPointCodec(l=40, f=16))
MATRIX_SHAPES = ((1, 1, 1), (3, 5, 4), (8, 16, 32), (2, 64, 3))
MATRIX_INPUT_SEED = 4096
MATRIX_DEALER_SEED = 6464
MATRIX_DIGESTS = {
    32: "428dbcf0df1fbbb465bd65984631242941f98e0b5d3506ac5c92fe7dc336b115",
    40: "279c33e3ad7c375f51bccdd300d970e5f457bc80958139b2303332cba3755843"}
MATRIX_STATS = {32: (CommStats(4004, 3988, 4, 4),) * 2,
                40: (CommStats(5001, 4985, 4, 4),) * 2}


def _each_matrix_codec(test):
    if pytest is None:
        return test
    return pytest.mark.parametrize("codec", MATRIX_CODECS,
                                   ids=lambda c: f"l{c.l}")(test)


@_each_matrix_codec
def test_matrix_products_and_triples_are_pinned(codec):
    # matmul_shared's outputs and each party's half of the dealer's matrix
    # triples, at shapes up to k = 64, on raw ring operands whose shares
    # include the ring's edge values
    sizes = [m * k + k * n for m, k, n in MATRIX_SHAPES]
    rng = random.Random(MATRIX_INPUT_SEED)
    edges = [0, 1, 1 << (codec.l - 1), codec.modulus - 1]
    client = edges + [rng.getrandbits(codec.l)
                      for _ in range(sum(sizes) - len(edges))]
    server = [rng.getrandbits(codec.l) for _ in range(sum(sizes))]
    record = {}

    def party_fn(party, values, channel, triples):
        out, seen = [], []
        for m, k, n in MATRIX_SHAPES:
            a, b = values[:m * k], values[m * k:m * k + k * n]
            values = values[m * k + k * n:]
            triple = triples.take_matrix(m, k, n)
            seen += [list(part) for part in triple]
            out += matmul_shared(party, [(a, b, triple, (m, k, n))],
                                 channel, codec)[0]
        record[party] = seen + [list(out)]
        return out

    _, stats_c, stats_s = run_session(
        party_fn, client, server, DealerState(codec, seed=MATRIX_DEALER_SEED))
    assert (stats_c, stats_s) == MATRIX_STATS[codec.l]
    text = ";".join(",".join(map(str, part)) for party in ("client", "server")
                    for part in record[party])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        MATRIX_DIGESTS[codec.l]


if __name__ == "__main__":
    test_rsqrt_outputs_and_counts_are_pinned()
    test_encoder_outputs_and_counts_are_pinned()
    test_l32_products_and_truncation_are_pinned()
    for matrix_codec in MATRIX_CODECS:
        test_matrix_products_and_triples_are_pinned(matrix_codec)
    print("5 golden digests pass")
