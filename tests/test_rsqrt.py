"""Inverse square root on shares: the communication-free seed, the
bit-to-value conversion on flooded and unflooded shares, the shared Newton
loop, and the full pipeline with its counted communication."""

import math
import random
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from rootshare import transport
from rootshare.encoder import ENCODER_SITE_BANDS, EncoderSites
from rootshare.config import DEFAULT_CONFIG
from rootshare.errors import ConfigError, RangeError, TransportError, \
    UnsupportedValueError
from rootshare.floatbits import BIAS, L, decompose, pack_integer, to_binary32
from rootshare.flood import (ActivationSampler, FloodConfig, draw_flood_mask,
                             flood_share)
from rootshare.ring import (CLIENT, SERVER, Channel, DealerState,
                            FixedPointCodec, make_shares, run_session)
from rootshare.rsqrt import (MAGIC_K1, MIN_MAGNITUDE, NewtonConfig,
                             SeedParams, _seed_integers, _seed_offset,
                             bits_to_value_batch, closeness_sweep,
                             newton_plain, newton_shared_batch,
                             rsqrt_shared_batch, run_shared_rsqrt, seed_local,
                             seed_share_client, seed_share_server)
from rootshare.transport import open_inproc


# ------------------------------------------------------------ parameters

def test_magic_constant_value():
    assert MAGIC_K1 == 0x5F3759DF == 1597463007


def test_derived_constants():
    p = SeedParams()
    # two-share magic: round((3B - 3b - 1) * L / 2) at b = 0.045
    assert p.K2 == 1593269289
    # flooding compensation: round((E_f - E_m) * L / 2) at E_f=140, E_m=128
    assert p.comp == 50331648
    # a real E_m moves it continuously
    assert SeedParams(E_m=127.5).comp == 52428800
    # masked-open split constant: round(L * (E_f + 0.5) / 4)
    assert p.C0 == 294649856


def test_seed_params_validation():
    SeedParams(E_m=121)
    with pytest.raises(ConfigError):
        SeedParams(b=-1.0)
    with pytest.raises(ConfigError):
        SeedParams(E_m=0)
    with pytest.raises(ConfigError):
        SeedParams(E_f=255)


def test_newton_config_validation():
    NewtonConfig(iterations=0)
    NewtonConfig(iterations=16)
    with pytest.raises(ConfigError):
        NewtonConfig(iterations=-1)
    with pytest.raises(ConfigError):
        NewtonConfig(iterations=17)


# ------------------------------------------------------- one-party seed

def test_seed_local_frozen_values():
    assert seed_local(4.0) == 0.4831075370311737
    assert seed_local(1.0) == 0.9662150740623474


def test_seed_local_quality_band():
    # u = seed * sqrt(x) stays in a narrow band around 1 across 40 octaves
    rng = random.Random(31)
    for _ in range(3000):
        x = 2.0 ** rng.uniform(-20, 20)
        u = seed_local(x) * math.sqrt(x)
        assert 0.96 <= u <= 1.04


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 254), st.integers(0, L - 1))
def test_seed_local_quality_band_over_all_normal_floats(E, M):
    x = struct.unpack("<f", struct.pack("<I", (E << 23) | M))[0]
    assert 0.95 <= seed_local(x) * math.sqrt(x) <= 1.05


def test_seed_local_rejects_nonpositive():
    with pytest.raises(RangeError):
        seed_local(0.0)
    with pytest.raises(RangeError):
        seed_local(-2.0)


# ------------------------------------------------------- two-party seed

def test_seed_shares_are_plain_integers():
    o_c, o_s = seed_share_client(-8191.998), seed_share_server(8195.098)
    assert isinstance(o_c, int) and isinstance(o_s, int)


def test_seed_shares_cost_nothing():
    # the seed is computed from each party's local float view alone;
    # no endpoint is even touched, asserted via a live counter delta
    a, b = open_inproc()
    before_a, before_b = a.stats(), b.stats()
    seed_share_client(-8191.998)
    seed_share_server(8195.098)
    delta_a = a.stats() - before_a
    delta_b = b.stats() - before_b
    for d in (delta_a, delta_b):
        assert d.bytes_sent == 0
        assert d.frames == 0
        assert d.rounds == 0


def test_compensation_enters_only_when_flooded():
    p = SeedParams()
    flooded = seed_share_server(8195.098, p, True)
    plain = seed_share_server(8195.098, p, False)
    assert flooded - plain == p.comp


def test_tiny_share_magnitudes_are_floored():
    # magnitudes below 2^-30 have no usable float view; the floor keeps
    # the packed integer in the normal range instead of raising
    o = seed_share_client(0.0)
    assert isinstance(o, int)


def _reference_seed(value, party, params, flooded):
    """One seed integer the per-element way: round to binary32, split the
    fields, pack them."""
    mag = max(abs(value), MIN_MAGNITUDE)
    o = -(pack_integer(decompose(to_binary32(mag))).i >> 2)
    if party == SERVER:
        o += params.K2 + (params.comp if flooded else 0)
    return o


# f = 40 puts the smallest ring steps below the 2^-30 floor
SEED_RINGS = st.sampled_from([FixedPointCodec(), FixedPointCodec(l=32, f=12),
                              FixedPointCodec(l=64, f=40)])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(SEED_RINGS, st.sampled_from([CLIENT, SERVER]), st.booleans(),
       st.data())
def test_seed_batch_matches_per_element_reference(codec, party, flooded,
                                                  data):
    half = codec.modulus // 2
    signed = st.one_of(st.integers(-half, half - 1),
                       st.integers(-(1 << 12), 1 << 12),
                       st.sampled_from([0, -1, 1, -half, half - 1]))
    values = data.draw(st.lists(signed, max_size=20))
    ring = [v % codec.modulus for v in values]
    params = SeedParams()
    o = _seed_integers(map(codec.decode, ring),
                       _seed_offset(party, params, flooded))
    assert o == [_reference_seed(codec.decode(v), party, params, flooded)
                 for v in ring]
    if party == CLIENT:
        one = [seed_share_client(codec.decode(v), params) for v in ring]
    else:
        one = [seed_share_server(codec.decode(v), params, flooded)
               for v in ring]
    assert o == one


@pytest.mark.parametrize("value", [2.0 ** 128, 1e39, math.inf, math.nan])
def test_seed_rejects_magnitudes_outside_binary32(value):
    with pytest.raises(UnsupportedValueError):
        _reference_seed(value, CLIENT, SeedParams(), True)
    with pytest.raises(UnsupportedValueError):
        seed_share_client(value)
    with pytest.raises(UnsupportedValueError):
        _seed_integers([1.0, value], 0)


# --------------------------------------------- bit-to-value conversion

def _bits_to_value(o_c, o_s, codec, params, dealer_seed, flooded=True):
    """bits_to_value_batch on one seed pair over a fresh session:
    (decoded value, client stats, server stats)."""
    def party_fn(party, values, channel):
        return bits_to_value_batch(party, values, channel, params, flooded)

    (got,), st_c, st_s = run_session(party_fn, [o_c], [o_s],
                                     DealerState(codec, seed=dealer_seed))
    return got, st_c, st_s


def test_flooded_conversion_rejects_values_outside_the_ring():
    # the conversion encodes a batch in one pass; an element anywhere in
    # it that maps outside the signed range still raises
    codec = FixedPointCodec(l=32, f=12)
    p = SeedParams()
    o = seed_share_server(8195.098, p)
    channel = Channel(None, codec, None)
    for party in (CLIENT, SERVER):
        assert len(bits_to_value_batch(party, [o], channel, p)) == 1
        for batch in ([o, 10 ** 30], [-10 ** 30, o, o]):
            with pytest.raises(RangeError):
                bits_to_value_batch(party, batch, channel, p)


def test_masked_open_matches_exponential_form():
    # the opened factor product must equal 2^((o_c + o_s)/L - B) exactly
    # up to fixed-point quantization, for a flooded pair
    codec = FixedPointCodec()
    p = SeedParams()
    o_c, o_s = seed_share_client(-8191.998), seed_share_server(8195.098)
    got, _, _ = _bits_to_value(o_c, o_s, codec, p, 33, flooded=False)
    want = 2.0 ** ((o_c + o_s) / L - BIAS)
    assert got == pytest.approx(want, abs=3 * 2.0 ** -codec.f)


def test_masked_open_balanced_split_tracks_one_party_seed():
    # an unflooded balanced split of x=4 lands near seed_local(4);
    # the two differ only in how the mantissa sum rounds
    codec = FixedPointCodec()
    p = SeedParams()
    o_c, o_s = seed_share_client(2.0, p), seed_share_server(2.0, p, False)
    got, _, _ = _bits_to_value(o_c, o_s, codec, p, 34, flooded=False)
    # the two masked factors are fixed-point encoded, so the shared value
    # sits within a few grid steps of the local evaluation of o_c + o_s
    assert abs(got - 0.4770965576171875) <= 3 * 2.0 ** -16
    assert abs(got - seed_local(4.0)) <= 0.013


def test_masked_open_costs_one_round_two_elements():
    codec = FixedPointCodec()
    o_c, o_s = seed_share_client(-8191.998), seed_share_server(8195.098)
    _, st_c, st_s = _bits_to_value(o_c, o_s, codec, SeedParams(), 35,
                                   flooded=False)
    for st in (st_c, st_s):
        assert st.rounds == 1
        assert st.payload_bytes == 2 * codec.element_bytes


def test_local_reinterpret_costs_nothing_and_seeds_the_basin():
    codec = FixedPointCodec()
    p = SeedParams()
    rng = random.Random(37)
    for x in (0.8, 1.6, 2.7, 3.1, 6.0):
        mask = draw_flood_mask(FloodConfig(), rng)
        c, s = flood_share(x, mask, codec)
        o_c = seed_share_client(codec.decode(c.value), p)
        o_s = seed_share_server(codec.decode(s.value), p, True)
        got, st_c, st_s = _bits_to_value(o_c, o_s, codec, p, 36)
        assert abs(got * math.sqrt(x) - 1.0) < math.sqrt(3.0) - 1.0
        for st in (st_c, st_s):
            assert (st.bytes_sent, st.frames, st.rounds) == (0, 0, 0)


# ------------------------------------------------------------- newton

def test_newton_plain_one_step_from_seed():
    got = newton_plain(4.0, seed_local(4.0), 1)
    assert got == 0.49915357479239103


def test_newton_plain_converges_from_seed():
    assert newton_plain(4.0, seed_local(4.0), 4) == pytest.approx(0.5, abs=1e-9)


def test_newton_plain_zero_iterations_is_identity():
    assert newton_plain(4.0, 0.37, 0) == 0.37


def test_newton_plain_fixed_point():
    assert newton_plain(4.0, 0.5, 3) == 0.5


def test_newton_plain_wrong_root_outside_basin():
    # u0 = y0*sqrt(x) beyond sqrt(3) flips sign and lands on -1/sqrt(x)
    got = newton_plain(0.25, 3.9, 8)
    assert got == pytest.approx(-2.0, abs=1e-9)
    assert abs(got - 2.0) > 1.0


def test_newton_plain_basin_edges():
    assert newton_plain(4.0, 0.860, 30) == pytest.approx(0.5, abs=1e-12)
    assert newton_plain(4.0, 0.875, 30) == pytest.approx(-0.5, abs=1e-12)


def test_newton_plain_monotone_contraction():
    rng = random.Random(40)
    for _ in range(300):
        x = 2.0 ** rng.uniform(-6, 6)
        u = rng.uniform(0.4, 1.2)
        y = u / math.sqrt(x)
        for _ in range(5):
            y_next = newton_plain(x, y, 1)
            assert abs(y_next * math.sqrt(x) - 1.0) <= abs(
                y * math.sqrt(x) - 1.0) + 1e-15
            y = y_next


def test_newton_plain_input_validation():
    with pytest.raises(RangeError):
        newton_plain(-1.0, 0.5, 1)
    with pytest.raises(RangeError):
        newton_plain(4.0, 0.5, -1)


def _newton(x_pair, y_pair, n, codec, dealer_seed):
    """newton_shared_batch on one (x, y) share pair over a fresh session."""
    def party_fn(party, values, channel):
        return newton_shared_batch(party, values[:1], values[1:], n, channel)

    (got,), st_c, st_s = run_session(
        party_fn, [x_pair[0].value, y_pair[0].value],
        [x_pair[1].value, y_pair[1].value],
        DealerState(codec, seed=dealer_seed))
    return got, st_c, st_s


def test_newton_shared_tracks_plain():
    codec = FixedPointCodec()
    rng = random.Random(41)
    x, y0, n = 2.7, 0.55, 3
    got, _, _ = _newton(make_shares(x, codec, rng),
                        make_shares(y0, codec, rng), n, codec, 42)
    plain = newton_plain(codec.decode(codec.encode(x)),
                         codec.decode(codec.encode(y0)), n)
    # each iteration contributes a handful of truncation ulps
    assert got == pytest.approx(plain, abs=8 * n * 2.0 ** -codec.f)


def test_newton_shared_comm_cost():
    # 3 multiplications per iteration in 2 rounds, one frame each. Round 1
    # opens y, and x/2 in the first iteration only; round 2 opens 2
    # elements: 3n + 1 elements per element
    codec = FixedPointCodec()
    rng = random.Random(43)
    n = 4
    _, st_c, st_s = _newton(make_shares(1.8, codec, rng),
                            make_shares(0.7, codec, rng), n, codec, 44)
    for st in (st_c, st_s):
        assert st.rounds == 2 * n
        assert st.frames == 2 * n
        assert st.payload_bytes == (3 * n + 1) * codec.element_bytes


def _flooded_pairs(xs, cfg, rng):
    pairs = []
    for x in xs:
        c, s = flood_share(x, draw_flood_mask(cfg.flood, rng), cfg.codec)
        pairs.append((c.value, s.value))
    return pairs


def _half_root(pairs, cfg, dealer_seed):
    """rsqrt_shared_batch(..., half_root=True) on flooded share pairs over a
    fresh session."""
    def party_fn(party, values, channel):
        return rsqrt_shared_batch(party, values, channel, cfg.seed,
                                  cfg.newton, half_root=True)

    return run_session(party_fn, [p[0] for p in pairs], [p[1] for p in pairs],
                       DealerState(cfg.codec, seed=dealer_seed))


@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_half_root_comm_cost(n):
    # sqrt(x)/2 on flooded shares, whose seed is free: n >= 1 iterations
    # open 3n + 1 elements per element in 2n + 1 rounds, one frame each,
    # the last iteration in product form opening y, Q = (x/2) y and
    # r = 1/2 - Q y; with n = 0 one product (x/2) y_0 opens 2 in 1 round
    cfg = DEFAULT_CONFIG.with_site((128, n, 0.0))
    xs = (0.8, 1.6, 2.7, 3.1, 6.0)
    _, st_c, st_s = _half_root(_flooded_pairs(xs, cfg, random.Random(58)),
                               cfg, 59)
    elements = 3 * n + 1 if n else 2
    for st in (st_c, st_s):
        assert (st.frames, st.rounds) == (2 * n + 1, 2 * n + 1)
        assert st.payload_bytes == elements * len(xs) * cfg.codec.element_bytes


# The smooth-unit sites of the encoder, which take sqrt(x)/2: name in
# ENCODER_SITE_BANDS -> (E_m, iterations, slope) in EncoderSites
SMU_SITES = {"ffn": EncoderSites().ffn,
             "softmax_num": EncoderSites().softmax_num}


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(SMU_SITES)),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       st.integers(0, 2 ** 32 - 1))
def test_half_root_within_tolerance_over_smooth_unit_bands(name, spots,
                                                           seed):
    # the product-form last step keeps sqrt(x)/2 within 1e-2 relative, at
    # each smooth-unit site's (E_m, iterations, slope), anywhere in its
    # band and 1/8 octave beyond it
    lo, hi = ENCODER_SITE_BANDS[name]
    cfg = DEFAULT_CONFIG.with_site(SMU_SITES[name])
    xs = [2.0 ** (lo - 0.125 + t * (hi - lo + 0.25)) for t in spots]
    got, _, _ = _half_root(_flooded_pairs(xs, cfg, random.Random(seed)),
                           cfg, seed + 1)
    for x, h in zip(xs, got):
        assert abs(2.0 * h / math.sqrt(x) - 1.0) <= 1e-2


# ------------------------------------------------------- full pipeline

def test_pipeline_worked_example():
    codec = FixedPointCodec()
    rng = random.Random(4)
    mask = draw_flood_mask(FloodConfig(), rng)
    c, s = flood_share(3.1, mask, codec)
    results, st_c, st_s = run_shared_rsqrt(
        [(c.value, s.value)], codec, SeedParams(), NewtonConfig(iterations=4),
        dealer_seed=0)
    assert results[0] == 0.567962646484375
    assert abs(results[0] - 1.0 / math.sqrt(3.1)) <= 1e-4
    # the flooded conversion is free: 2 rounds per iteration, opening x/2
    # and y, then 2 elements in the first, and y, then 2 elements after it
    for st in (st_c, st_s):
        assert st.rounds == 8
        assert st.frames == 8
        assert st.bytes_sent == 136
        assert st.payload_bytes == (4 + 3 * 3) * codec.element_bytes


def test_flooded_seed_with_conversion_costs_nothing():
    # seed bits and their conversion into value shares, no Newton step:
    # nothing on the wire for flooded pairs, one masked opening otherwise
    codec = FixedPointCodec()
    cfg = FloodConfig()
    rng = random.Random(54)
    pairs = []
    for x in (0.8, 1.6, 2.7, 3.1, 6.0):
        c, s = flood_share(x, draw_flood_mask(cfg, rng), codec)
        pairs.append((c.value, s.value))
    args = (pairs, codec, SeedParams(), NewtonConfig(iterations=0))
    _, st_c, st_s = run_shared_rsqrt(*args, dealer_seed=55)
    for st in (st_c, st_s):
        assert (st.bytes_sent, st.frames, st.rounds) == (0, 0, 0)
    _, st_c, st_s = run_shared_rsqrt(*args, dealer_seed=55, flooded=False)
    for st in (st_c, st_s):
        assert (st.frames, st.rounds) == (1, 1)
        assert st.payload_bytes == 2 * len(pairs) * codec.element_bytes


@pytest.mark.parametrize("slope", [227.0, 0.0358, -1.5])
def test_sloped_seed_is_the_flat_seed_minus_slope_times_x(slope):
    # each party subtracts slope times its own share of x: the pair
    # reconstructs to the flat seed minus slope x, within the one unit of
    # 2^-f that truncation may add, and nothing goes on the wire
    codec = FixedPointCodec()
    rng = random.Random(56)
    pairs = []
    for x in (2.0 ** -8.5, 2.0 ** -5, 0.8, 3.1, 14.0):
        c, s = flood_share(x, draw_flood_mask(FloodConfig(), rng), codec)
        pairs.append((c.value, s.value))
    xs = [codec.decode((c + s) % codec.modulus) for c, s in pairs]
    newton = NewtonConfig(iterations=0)
    flat, _, _ = run_shared_rsqrt(pairs, codec, SeedParams(), newton,
                                  dealer_seed=57)
    sloped, st_c, st_s = run_shared_rsqrt(pairs, codec,
                                          SeedParams(slope=slope), newton,
                                          dealer_seed=57)
    beta = codec.decode(codec.encode(slope))
    for y, y0, x in zip(sloped, flat, xs):
        assert abs(y - (y0 - beta * x)) <= 2.0 ** -codec.f
    for st in (st_c, st_s):
        assert (st.bytes_sent, st.frames, st.rounds) == (0, 0, 0)
    # unflooded pairs whose shares are both small and positive: the slope
    # must multiply the zero-refreshed share of x, whose client half is
    # uniform; truncating the caller's small server half would miss by 2^32
    halves = ((1.0, 2.0), (0.25, 0.5), (3.0, 4.0))
    pairs = [(codec.encode(a), codec.encode(b)) for a, b in halves]
    flat, _, _ = run_shared_rsqrt(pairs, codec, SeedParams(), newton,
                                  dealer_seed=58, flooded=False)
    sloped, _, _ = run_shared_rsqrt(pairs, codec, SeedParams(slope=slope),
                                    newton, dealer_seed=58, flooded=False)
    for y, y0, (a, b) in zip(sloped, flat, halves):
        assert abs(y - (y0 - beta * (a + b))) <= 2.0 ** -codec.f


def test_pipeline_socket_matches_inproc_bytes_and_values():
    codec = FixedPointCodec()
    rng = random.Random(4)
    mask = draw_flood_mask(FloodConfig(), rng)
    c, s = flood_share(3.1, mask, codec)
    pair = [(c.value, s.value)]
    args = (codec, SeedParams(), NewtonConfig(iterations=4))
    res_i, sti_c, _ = run_shared_rsqrt(pair, *args, dealer_seed=0)
    res_s, sts_c, _ = run_shared_rsqrt(pair, *args, dealer_seed=0,
                                       transport="socket")
    assert res_i == res_s
    assert sti_c.bytes_sent == sts_c.bytes_sent
    assert sti_c.frames == sts_c.frames


def test_batch_over_the_frame_cap_fails_at_once_on_both_parties(
        monkeypatch):
    # the first Newton round (x/2 and y) and every second round open 2 ring
    # elements per element, the largest frame of a flooded rsqrt; with the
    # cap set to fit m elements, m pass and m + 1 fail on both parties at
    # their first send, without waiting for a receive to time out
    codec = FixedPointCodec()
    m = 3
    monkeypatch.setattr(transport, "MAX_FRAME_BYTES",
                        2 * m * codec.element_bytes)
    rng = random.Random(56)
    pairs = []
    for x in (0.8, 1.6, 2.7, 3.1):
        c, s = flood_share(x, draw_flood_mask(FloodConfig(), rng), codec)
        pairs.append((c.value, s.value))
    args = (codec, SeedParams(), NewtonConfig(iterations=4))
    run_shared_rsqrt(pairs[:m], *args, dealer_seed=57)
    failed = {}

    def party_fn(party, values, channel):
        try:
            return rsqrt_shared_batch(party, values, channel, *args[1:])
        except TransportError as exc:
            failed[party] = exc
            raise

    started = time.perf_counter()
    with pytest.raises(TransportError, match="exceeds"):
        run_session(party_fn, [p[0] for p in pairs], [p[1] for p in pairs],
                    DealerState(codec, seed=57))
    assert time.perf_counter() - started < 5.0
    assert set(failed) == {CLIENT, SERVER}


def test_pipeline_flooded_accuracy_batch():
    codec = FixedPointCodec()
    cfg = FloodConfig()
    rng = random.Random(47)
    sampler = ActivationSampler(seed=48)
    xs = sampler.sample(500)
    pairs = []
    for x in xs:
        c, s = flood_share(x, draw_flood_mask(cfg, rng), codec)
        pairs.append((c.value, s.value))
    results, _, _ = run_shared_rsqrt(pairs, codec, SeedParams(),
                                     NewtonConfig(iterations=4),
                                     dealer_seed=49)
    rel = sorted(abs(y * math.sqrt(x) - 1.0) for x, y in zip(xs, results))
    assert rel[int(0.99 * len(rel))] <= 1e-2


def test_pipeline_covers_working_range_with_per_site_exponents():
    # one site per octave handles values across [2^-6, 2^6]
    codec = FixedPointCodec()
    fcfg = FloodConfig()
    rng = random.Random(52)
    for octave in range(-6, 7):
        params = SeedParams(E_m=127 + octave)
        pairs, xs = [], []
        for _ in range(20):
            x = (1.0 + rng.random()) * 2.0 ** octave
            c, s = flood_share(x, draw_flood_mask(fcfg, rng), codec)
            pairs.append((c.value, s.value))
            xs.append(x)
        results, _, _ = run_shared_rsqrt(pairs, codec, params,
                                         NewtonConfig(iterations=4),
                                         dealer_seed=53 + octave)
        for x, y in zip(xs, results):
            assert abs(y * math.sqrt(x) - 1.0) <= 1e-2


# ------------------------------------------------------ closeness sweep

def test_closeness_sweep_elbow_shape():
    rows = closeness_sweep(gaps=(0, 2, 5, 6, 8), trials=60, seed=1)
    by_gap = {r.gap: r for r in rows}
    assert by_gap[0].rate >= 0.9
    assert by_gap[2].rate >= 0.9
    assert by_gap[5].rate >= 0.9
    assert by_gap[6].rate < 0.5
    assert by_gap[8].rate < 0.5


def test_closeness_sweep_row_bookkeeping():
    rows = closeness_sweep(gaps=(0, 10), trials=25, seed=2)
    for row in rows:
        assert row.trials == 25
        assert 0 <= row.converged <= 25
        assert row.rate == row.converged / 25
    dead = rows[-1]
    assert dead.converged == 0
    assert math.isnan(dead.mean_rel_err)


def test_closeness_sweep_validation():
    with pytest.raises(ConfigError):
        closeness_sweep(gaps=(0,), trials=0)


@pytest.mark.parametrize("gaps", [(-3, -1), (0, -1), ()],
                         ids=["negative", "one-negative", "empty"])
def test_closeness_sweep_refuses_gaps_it_cannot_build(gaps):
    # a share pair cannot sit a negative number of octaves apart, and no
    # gap gives no rows
    with pytest.raises(ConfigError, match="non-negative exponent gaps"):
        closeness_sweep(gaps=gaps, trials=2)
