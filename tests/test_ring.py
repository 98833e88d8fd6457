"""Fixed-point codec, additive sharing, affine maps, truncation, and
Beaver multiplication, exercised at both supported ring widths."""

import math
import random
import struct
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FixedBits, chi2_uniform_stat, mul_pairs, quantize
from rootshare.errors import ConfigError, ProtocolError, RangeError, UsageError
from rootshare import ring
from rootshare.ring import (CLIENT, PARTIES, SERVER, DealerState,
                            FixedPointCodec, Masked, RingShare,
                            _lanes, _mat_mul_mod, _truncate,
                            beaver_mul_batch,
                            linear_combine, make_shares, matmul_shared,
                            reconstruct, reconstruct_raw, run_session,
                            split_values, truncate_local)
from rootshare.transport import open_inproc

# Fixed example sets, so every run checks the same cases.
PROPERTY = settings(max_examples=300, derandomize=True, database=None,
                    deadline=None)
RINGS = st.sampled_from([FixedPointCodec(l=32, f=12), FixedPointCodec()])


# ---------------------------------------------------------------- codec

def test_encode_worked_values():
    assert FixedPointCodec(l=16, f=4).encode(7.25) == 116
    assert FixedPointCodec().encode(0.0) == 0
    assert FixedPointCodec().encode(-1.0) == 2 ** 64 - 65536


def test_decode_is_signed():
    codec = FixedPointCodec()
    assert codec.decode(codec.encode(-2.5)) == -2.5
    assert codec.decode(codec.modulus - 1) == -(2.0 ** -16)


def test_roundtrip_quantization_bound(codec):
    rng = random.Random(3)
    for _ in range(1000):
        x = rng.uniform(-1e6, 1e6)
        assert abs(codec.decode(codec.encode(x)) - x) <= 2.0 ** -(codec.f + 1)


def test_range_errors():
    codec = FixedPointCodec(l=32, f=12)
    top = 2.0 ** (codec.l - 1 - codec.f)
    codec.encode(top - 1.0)
    with pytest.raises(RangeError):
        codec.encode(top)
    with pytest.raises(RangeError):
        codec.encode(-top - 1.0)


@PROPERTY
@given(st.integers(3, 64),
       st.lists(st.one_of(st.integers(), st.integers(-2 ** 66, 2 ** 66)),
                max_size=40))
def test_element_codec_roundtrip(l, values):
    # the lane form's bytes are the frame: at every width, the
    # little-endian int.to_bytes frames of the reduced elements; widths
    # with an array typecode on this host (4 and 8 on a little-endian one)
    # go through array('I')/array('Q') and decode to an array
    codec = FixedPointCodec(l=l, f=2)
    width, mod = codec.element_bytes, codec.modulus
    lanes = _lanes(codec, len(values))
    reduced = [v % mod for v in values]
    x = lanes.pack(reduced)
    payload = x.to_bytes(lanes.size, "little")
    assert payload == b"".join(v.to_bytes(width, "little") for v in reduced)
    assert lanes.read(payload) == x
    assert list(lanes.unpack(x)) == reduced
    assert isinstance(lanes.unpack(x), array) == (
        width in ring._ARRAY_CODES)
    with pytest.raises(ProtocolError):
        lanes.read(payload + b"\0")
    if values:
        with pytest.raises(ProtocolError):
            lanes.read(payload[:-1])


CODEC_SHAPES = [(64, 16), (32, 12), (40, 16), (12, 4)]


@PROPERTY
@given(st.sampled_from(CODEC_SHAPES), st.data())
def test_encode_is_rounded_scale_mod_the_ring(shape, data):
    # encode(x) = round(x 2^f) mod 2^l inside the signed window
    # [-2^(l-1), 2^(l-1)) and RangeError outside it; decode is the signed
    # read of any integer, reduced or not. The constants the codec keeps
    # are not fields: equality, hashing and repr see only l and f
    l, f = shape
    codec = FixedPointCodec(l=l, f=f)
    half, mod = 1 << (l - 1), 1 << l
    top = float(half) / (1 << f)
    edges = [top, -top, math.nextafter(top, 0.0),
             math.nextafter(-top, -math.inf), 0.0, 2.0 ** -(f + 1)]
    xs = data.draw(st.lists(st.one_of(
        st.floats(-2 * top, 2 * top), st.sampled_from(edges)), max_size=20))
    for x in xs:
        v = round(x * (1 << f))
        if -half <= v < half:
            assert codec.encode(x) == v % mod
        else:
            with pytest.raises(RangeError):
                codec.encode(x)
    for v in data.draw(st.lists(st.integers(-mod, 2 * mod), max_size=20)):
        assert codec.decode(v) == ((v + half) % mod - half) / (1 << f)
    twin = FixedPointCodec(l=l, f=f)
    assert twin == codec and hash(twin) == hash(codec) == hash((l, f))
    assert repr(codec) == f"FixedPointCodec(l={l}, f={f})"
    assert codec != FixedPointCodec(l=l, f=f + 1)


def test_codec_parameter_validation():
    with pytest.raises(ConfigError):
        FixedPointCodec(l=65, f=16)
    with pytest.raises(ConfigError):
        FixedPointCodec(l=32, f=32)
    with pytest.raises(ConfigError):
        FixedPointCodec(l=32, f=1)


# ------------------------------------------------------------- sharing

def test_make_shares_sum_to_encoding(codec):
    rng = random.Random(5)
    for _ in range(200):
        x = rng.uniform(-500, 500)
        c, s = make_shares(x, codec, rng)
        assert (c.value + s.value) % codec.modulus == codec.encode(x)


def test_make_shares_with_scripted_mask(codec):
    c, s = make_shares(0.0, codec, FixedBits(5))
    assert (c.value, s.value) == (5, codec.modulus - 5)
    assert reconstruct(c, s, codec) == 0.0


def test_reconstruct_roundtrip_property(codec):
    rng = random.Random(6)
    for _ in range(1000):
        x = rng.uniform(-1000, 1000)
        c, s = make_shares(x, codec, rng)
        assert abs(reconstruct(c, s, codec) - x) <= 2.0 ** -codec.f


@PROPERTY
@given(RINGS, st.lists(st.floats(-1000, 1000), max_size=20),
       st.integers(0, 2 ** 32))
def test_split_values_reconstructs_its_input(codec, values, seed):
    client, server = split_values(values, codec, random.Random(seed))
    # one mask per value, drawn in input order from rng.randrange
    masks = random.Random(seed)
    assert client == [masks.randrange(codec.modulus) for _ in values]
    assert [codec.decode((c + s) % codec.modulus)
            for c, s in zip(client, server)] == [
        codec.decode(codec.encode(v)) for v in values]


def test_reconstruct_flooded_worked_pair(codec):
    c = RingShare(CLIENT, codec.encode(-8191.998))
    s = RingShare(SERVER, codec.encode(8195.098))
    assert abs(reconstruct(c, s, codec) - 3.1) <= 2.0 ** -codec.f


def test_reconstruct_party_mismatch(codec):
    a = RingShare(CLIENT, 1)
    b = RingShare(CLIENT, 2)
    with pytest.raises(UsageError):
        reconstruct(a, b, codec)


def test_share_party_names_validated():
    with pytest.raises(UsageError):
        RingShare("observer", 0)


def test_single_share_bytes_look_uniform(codec):
    # marginal of the server share of a fixed value over fresh maskings;
    # each byte lane is compared against uniform at the p=0.01 cutoff
    rng = random.Random(123)
    x = 3.1
    counts = [[0] * 256 for _ in range(8)]
    for _ in range(100_000):
        _, s = make_shares(x, codec, rng)
        for lane, byte in enumerate(s.value.to_bytes(8, "little")):
            counts[lane][byte] += 1
    crit = 310.457  # chi-square upper 1% point at 255 degrees of freedom
    for lane in range(8):
        assert chi2_uniform_stat(counts[lane]) < crit


# -------------------------------------------------------- linear_combine

def test_linear_combine_identity(codec):
    share = RingShare(CLIENT, codec.encode(1.5))
    out = linear_combine([share], [1], 0, codec)
    assert out.value == share.value


def test_linear_combine_adds_reconstructions(codec):
    rng = random.Random(7)
    xc, xs = make_shares(2.25, codec, rng)
    yc, ys = make_shares(-0.75, codec, rng)
    out_c = linear_combine([xc, yc], [1, 1], 0, codec)
    out_s = linear_combine([xs, ys], [1, 1], 0, codec)
    assert reconstruct(out_c, out_s, codec) == pytest.approx(1.5, abs=2 ** -15)


def test_linear_combine_constant_only(codec):
    rng = random.Random(8)
    xc, xs = make_shares(4.0, codec, rng)
    k = codec.encode(9.5)
    out_c = linear_combine([xc], [0], k, codec)
    out_s = linear_combine([xs], [0], k, codec)
    # constant lands on the server side only, so it enters once
    assert reconstruct(out_c, out_s, codec) == 9.5


def test_affine_homomorphism_is_exact_in_ring(codec):
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 4)
        pairs = [make_shares(rng.uniform(-30, 30), codec, rng)
                 for _ in range(n)]
        coeffs = [rng.randint(-5, 5) for _ in range(n)]
        k = rng.randrange(codec.modulus)
        out_c = linear_combine([p[0] for p in pairs], coeffs, k, codec)
        out_s = linear_combine([p[1] for p in pairs], coeffs, k, codec)
        expect = k
        for (c, s), coeff in zip(pairs, coeffs):
            expect += coeff * reconstruct_raw(c, s, codec)
        assert reconstruct_raw(out_c, out_s, codec) == expect % codec.modulus


def test_linear_combine_usage_errors(codec):
    with pytest.raises(UsageError):
        linear_combine([], [], 0, codec)
    a = RingShare(CLIENT, 1)
    b = RingShare(SERVER, 2)
    with pytest.raises(UsageError):
        linear_combine([a, b], [1, 1], 0, codec)
    with pytest.raises(UsageError):
        linear_combine([a], [1, 2], 0, codec)


# ------------------------------------------------------------ truncation

def _trunc_pairs(raw, masks, codec):
    """Signed truncated sums of (mask, raw - mask) share pairs."""
    mod = codec.modulus
    tc = truncate_local(CLIENT, [m % mod for m in masks], codec)
    ts = truncate_local(SERVER, [(raw - m) % mod for m in masks], codec)
    out = []
    for c, s in zip(tc, ts):
        v = (c + s) % mod
        out.append(v - mod if v >= mod // 2 else v)
    return out


def test_truncate_recovers_product_scale(codec):
    rng = random.Random(11)
    raw = codec.encode(1.0) << codec.f     # 1.0 at the doubled scale
    masks = [rng.getrandbits(codec.l) for _ in range(200)]
    for got in _trunc_pairs(raw, masks, codec):
        assert abs(got - codec.encode(1.0)) <= 1


def test_truncate_zero(codec):
    rng = random.Random(12)
    masks = [rng.getrandbits(codec.l) for _ in range(100)]
    for got in _trunc_pairs(0, masks, codec):
        assert abs(got) <= 1


def test_truncate_refuses_unknown_party(codec):
    with pytest.raises(UsageError):
        truncate_local("nobody", [12345], codec)


def _lane_truncate(party, values, codec, shift):
    """_truncate by 2^shift on the lane form of reduced values, as a list."""
    lanes = _lanes(codec, len(values))
    return list(lanes.unpack(
        _truncate(party, lanes.pack(values), lanes, shift)))


@PROPERTY
@given(RINGS, st.data())
def test_truncate_local_error_bound(codec, data):
    # A split (mask, v - mask) of the signed ring value v opens to
    # mask - (mask - v) = v, unless the mask lies in the documented wrap
    # region (below v for v >= 0, at or above 2^l + v for v < 0; probability
    # |v| / 2^l), where it opens to v -+ 2^l. Either way the truncated pair
    # reconstructs to the floor of the quotient of what it opens to, or
    # its ceiling: the client floors and the server takes the ceiling.
    mod = codec.modulus
    v = data.draw(st.integers(-(mod // 2), mod // 2 - 1))
    mask = data.draw(st.integers(0, mod - 1))
    if data.draw(st.booleans()):    # reach the top of the ring too
        mask = mod - 1 - mask
    shift = data.draw(st.integers(1, codec.f))
    (tc,) = _lane_truncate(CLIENT, [mask], codec, shift)
    (ts,) = _lane_truncate(SERVER, [(v - mask) % mod], codec, shift)
    opened = v
    if 0 <= v and mask < v:
        opened = v - mod
    elif v < 0 and mask >= mod + v:
        opened = v + mod
    unit = 1 << shift
    assert (tc + ts - opened // unit) % mod in (0, 1 if opened % unit else 0)


@PROPERTY
@given(RINGS, st.data())
def test_truncate_local_matches_its_definition(codec, data):
    # Both parties' rules, pinned as arithmetic on reduced v at every
    # shift from 1 to l, at v = 0 and -1, and in the ring's last unit, the
    # top 2^shift residues.
    mod = codec.modulus
    shift = data.draw(st.integers(1, codec.l))
    top = st.integers(mod - (1 << shift), mod - 1)
    values = data.draw(st.lists(st.one_of(
        st.integers(0, mod - 1), st.sampled_from([0, mod - 1]), top),
        min_size=1, max_size=8))
    unit = 1 << shift
    assert _lane_truncate(CLIENT, values, codec, shift) == [
        v // unit for v in values]
    assert _lane_truncate(SERVER, values, codec, shift) == [
        (mod - (-v % mod) // unit) % mod for v in values]


def test_truncation_error_is_centred():
    # The client's floor and the server's ceiling round v / 2^t up with
    # probability its fraction, over a uniform mask, so the pair carries no
    # bias; rounding on the client as well would add about half a unit.
    # 20,000 seeded splits of signed values below 2^40 at l = 64
    codec = FixedPointCodec()
    mod = codec.modulus
    rng = random.Random(29)
    values = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(20_000)]
    masks = [rng.getrandbits(codec.l) for _ in values]
    server = [(v - m) % mod for v, m in zip(values, masks)]
    for shift in (1, codec.f):
        errors = []
        for v, c, s in zip(values, _lane_truncate(CLIENT, masks, codec, shift),
                           _lane_truncate(SERVER, server, codec, shift)):
            got = (c + s + mod // 2) % mod - mod // 2
            errors.append(got - v / (1 << shift))
        assert abs(sum(errors) / len(errors)) <= 0.05
        if shift == 1:
            assert max(map(abs, errors)) <= 0.5


def test_truncate_wrap_rate_within_documented_bound():
    # failure probability scales as value / 2^(l-1); measurable at l=32
    codec = FixedPointCodec(l=32, f=12)
    raw = 1 << 24
    rng = random.Random(0)
    trials = 100_000
    masks = [rng.getrandbits(32) for _ in range(trials)]
    fails = sum(1 for got in _trunc_pairs(raw, masks, codec)
                if abs(got - (raw >> 12)) > 2)
    assert fails / trials <= raw / 2.0 ** 31


def test_truncate_wrap_rate_negligible_at_l64(codec):
    # at l=64 the same bound is ~2^-43 for values up to 2^20: none expected
    rng = random.Random(1)
    raw = 1 << 20
    trials = 1_000_000
    masks = [rng.getrandbits(64) for _ in range(trials)]
    fails = sum(1 for got in _trunc_pairs(raw, masks, codec)
                if abs(got - (raw >> 16)) > 2)
    assert fails / trials < 1e-4


# -------------------------------------------------------------- lane form

# 8- and 4-byte lanes (array typecodes), and 5- and 2-byte lanes (lists);
# at l = 28 and 12 a lane is wider than the ring
LANE_CODECS = (FixedPointCodec(), FixedPointCodec(l=32, f=12),
               FixedPointCodec(l=28, f=8), FixedPointCodec(l=40, f=16),
               FixedPointCodec(l=12, f=4))


def _check_lanes(codec, xs, ys, shift):
    """Lane add, sub, neg, decode and both truncation rules of reduced
    batches against their per-element definitions."""
    mod, unit = codec.modulus, 1 << shift
    lanes = _lanes(codec, len(xs))
    x, y = lanes.pack(xs), lanes.pack(ys)
    assert list(lanes.unpack(lanes.add(x, y))) == [
        (u + v) % mod for u, v in zip(xs, ys)]
    assert list(lanes.unpack(lanes.sub(x, y))) == [
        (u - v) % mod for u, v in zip(xs, ys)]
    assert list(lanes.unpack(lanes.neg(x))) == [-u % mod for u in xs]
    assert lanes.decode(x) == [codec.decode(u) for u in xs]
    assert _lane_truncate(CLIENT, xs, codec, shift) == [
        u >> shift for u in xs]
    assert _lane_truncate(SERVER, xs, codec, shift) == [
        -(-u % mod // unit) % mod for u in xs]


@pytest.mark.parametrize("codec", LANE_CODECS, ids=lambda c: f"l{c.l}")
def test_lanes_at_ring_edges(codec):
    # batches of 0 and 1 elements, and every pair of edge values
    mod = codec.modulus
    edges = [0, 1, mod // 2, mod - 1]
    for shift in (1, codec.f):
        _check_lanes(codec, [], [], shift)
        for u in edges:
            for v in edges:
                _check_lanes(codec, [u], [v], shift)
        _check_lanes(codec, edges * 4, [v for v in edges for _ in edges],
                     shift)


@PROPERTY
@given(st.sampled_from(LANE_CODECS), st.data())
def test_lanes_match_elementwise_arithmetic(codec, data):
    mod = codec.modulus
    element = st.one_of(st.integers(0, mod - 1),
                        st.sampled_from([0, 1, mod // 2, mod - 1]))
    xs = data.draw(st.lists(element, max_size=24))
    ys = data.draw(st.lists(element, min_size=len(xs), max_size=len(xs)))
    _check_lanes(codec, xs, ys, data.draw(st.integers(1, codec.f)))


# --------------------------------------------------------- multiplication

def test_beaver_scalar_products(codec):
    assert mul_pairs(codec, [2.0], [3.0], seed=1)[0] == pytest.approx(
        6.0, abs=2 * 2.0 ** -codec.f)
    assert mul_pairs(codec, [817.31], [0.0], seed=2)[0] == pytest.approx(
        0.0, abs=2.0 ** -codec.f)


def test_beaver_scalar_comm_cost(codec):
    rng = random.Random(3)
    xc, xs = make_shares(2.0, codec, rng)
    yc, ys = make_shares(3.0, codec, rng)

    def party_fn(party, values, channel, triples):
        return beaver_mul_batch(party, values[:1], values[1:],
                                triples.take(1), channel, codec)

    (got,), st_c, st_s = run_session(party_fn, [xc.value, yc.value],
                                     [xs.value, ys.value],
                                     DealerState(codec, seed=4))
    for st in (st_c, st_s):
        assert st.rounds == 1
        assert st.frames == 1
        assert st.payload_bytes == 2 * codec.element_bytes
    assert got == pytest.approx(6.0, abs=2 ** -14)


def test_beaver_soundness_l64(codec):
    # 10^4 pairs across [-2^8, 2^8]; operands are grid values so the only
    # error left is the truncation's, bounded by 4 units of 2^-f
    rng = random.Random(0)
    tol = 4 * 2.0 ** -codec.f
    for batch in range(10):
        xs = [quantize(rng.uniform(-256, 256), codec) for _ in range(1000)]
        ys = [quantize(rng.uniform(-256, 256), codec) for _ in range(1000)]
        got = mul_pairs(codec, xs, ys, seed=1000 + batch)
        for g, x, y in zip(got, xs, ys):
            assert abs(g - x * y) <= tol


def test_beaver_soundness_l32(codec32):
    # the local truncation wraps with probability ~ raw/2^(l-1); at l=32
    # a product of magnitude m has raw m*2^24, so the operand range must
    # shrink with the ring width to keep the expected wrap count near zero
    rng = random.Random(0)
    tol = 4 * 2.0 ** -codec32.f
    for batch in range(5):
        xs = [quantize(rng.uniform(-0.5, 0.5), codec32) for _ in range(100)]
        ys = [quantize(rng.uniform(-0.5, 0.5), codec32) for _ in range(100)]
        got = mul_pairs(codec32, xs, ys, seed=2000 + batch)
        for g, x, y in zip(got, xs, ys):
            assert abs(g - x * y) <= tol


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.sampled_from([(FixedPointCodec(l=32, f=12), 0.125),
                        (FixedPointCodec(), 256.0)]), st.data())
def test_compact_beaver_product_and_frame(ring, data):
    # the openings travel as arrays, yet the frame must be the
    # int.to_bytes encoding of d || e, and the product the plain one within
    # the truncation bound. Operands shrink with the ring width, as in the
    # soundness tests, so the wrap probability stays negligible
    codec, span = ring
    mod, width = codec.modulus, codec.element_bytes
    count = data.draw(st.integers(0, 12))
    grid = st.floats(-span, span).map(lambda v: quantize(v, codec))
    xs = data.draw(st.lists(grid, min_size=count, max_size=count))
    ys = data.draw(st.lists(grid, min_size=count, max_size=count))
    seed = data.draw(st.integers(0, 2 ** 16))
    rng = random.Random(seed)
    shares = [make_shares(v, codec, rng) for v in xs + ys]
    frames = {}

    def party_fn(party, values, channel, triples):
        a, b, c = triples.take(count)
        channel.start_transcript()
        out = beaver_mul_batch(party, values[:count], values[count:],
                               (a, b, c), channel, codec)
        masks = list(a) + list(b)
        payload = b"".join(((v - t) % mod).to_bytes(width, "little")
                           for v, t in zip(values, masks))
        frames[party] = (channel.transcript(),
                         struct.pack("<I", len(payload)) + payload)
        return out

    got, _, _ = run_session(party_fn, [p[0].value for p in shares],
                            [p[1].value for p in shares],
                            DealerState(codec, seed=seed + 1))
    for sent, want in frames.values():
        assert sent == want
    for g, x, y in zip(got, xs, ys):
        assert abs(g - x * y) <= 4 * 2.0 ** -codec.f


def test_beaver_rejects_mismatched_batches(codec):
    a, b = open_inproc()
    with pytest.raises(UsageError):
        beaver_mul_batch(CLIENT, [1, 2], [3], ([], [], []), a, codec)
    with pytest.raises(UsageError):
        beaver_mul_batch(CLIENT, [1, 2], [3, 4], ([0, 0], [0, 0], [0]), a,
                         codec)


def _both_halves(dealer, count):
    sc, ss = dealer.pair_streams()
    return sc.take(count), ss.take(count)


def test_triple_product_identity(codec):
    # every c share of every dealer kind reconstructs its masks' product
    mod = codec.modulus
    sc, ss = DealerState(codec, seed=7).pair_streams()

    def full(method, *args):
        return [[(u + v) % mod for u, v in zip(own, peer)] for own, peer in
                zip(getattr(sc, method)(*args), getattr(ss, method)(*args))]

    a, b, c = full("take", 20)
    assert c == [x * y % mod for x, y in zip(a, b)]
    a, c = full("take_squares", 20)
    assert c == [x * x % mod for x in a]
    b, a, ab, aa = full("take_fixed_mask", 5, 4, 4)
    assert ab == [x * b[t // 4] % mod for t, x in enumerate(a)]
    assert aa == [x * x % mod for x in a]
    assert len(full("take_fixed_mask", 5, 4)) == 3


@PROPERTY
@given(st.sampled_from(LANE_CODECS), st.integers(0, 4), st.integers(1, 4),
       st.data())
def test_fixed_mask_squares_only_leading_slots(codec, count, group, data):
    # a fixed mask with `squares` = 0..group: the halves reconstruct b, a
    # and a_t b[t // group], and a_t^2 for exactly the leading `squares`
    # slots of each group, element-major; with none, no fourth part. A
    # tail adds masks q and rho and q a_t for each group's last slot t and
    # rho q: two products per element of b
    squares = data.draw(st.integers(0, group))
    tail = data.draw(st.booleans())
    mod = codec.modulus
    dealer = DealerState(codec, seed=count * 16 + group * 4 + squares)
    sc, ss = dealer.pair_streams()
    parts = [[(u + v) % mod for u, v in zip(own, peer)] for own, peer in
             zip(sc.take_fixed_mask(count, group, squares, tail),
                 ss.take_fixed_mask(count, group, squares, tail))]
    assert len(parts) == (4 if squares else 3) + 4 * tail
    b, a, ab = parts[:3]
    assert (len(b), len(a)) == (count, count * group)
    assert ab == [x * b[t // group] % mod for t, x in enumerate(a)]
    if squares:
        assert parts[3] == [x * x % mod for t, x in enumerate(a)
                            if t % group < squares]
    if tail:
        q, rho, qa, rho_q = parts[-4:]
        assert (len(q), len(rho)) == (count, count)
        assert qa == [x * y % mod for x, y in zip(q, a[group - 1::group])]
        assert rho_q == [x * y % mod for x, y in zip(rho, q)]
    with pytest.raises(UsageError):
        sc.take_fixed_mask(count, group, group + 1)


def test_correlated_products_open_each_operand_once(codec):
    # x^2 opens x; x times one y per row of 3 then reuses x's opening and
    # opens only y: 6 + 2 elements in 2 rounds for 12 products
    xs = [quantize(v, codec) for v in (1.5, -2.0, 0.25, 3.0, -0.5, 1.0)]
    ys = [quantize(v, codec) for v in (2.0, -1.25)]
    halves = split_values(xs + ys, codec, random.Random(12))

    def party_fn(party, values, channel, triples):
        b, a, ab, aa = triples.take_fixed_mask(2, 3, squares=3)
        x = Masked(values[:6], a)
        squares = beaver_mul_batch(party, (x,), (x,), (aa,), channel, codec)
        return squares + beaver_mul_batch(
            party, (x,), (Masked(values[6:], b),), (ab,), channel, codec)

    got, st_c, st_s = run_session(party_fn, *halves,
                                  DealerState(codec, seed=13))
    want = [x * x for x in xs] + [x * ys[t // 3] for t, x in enumerate(xs)]
    assert got == pytest.approx(want, abs=4 * 2.0 ** -codec.f)
    for st in (st_c, st_s):
        assert (st.rounds, st.frames) == (2, 2)
        assert st.payload_bytes == 8 * codec.element_bytes


def _reference_product(party, kind, group, own, peer, codec):
    """One product batch of one party formed per element from its own
    shares, the opened differences read off both parties' shares, and
    truncated on its own by truncate_local, checked against the rule."""
    mod = codec.modulus
    _, xm, _, ym, c = own

    def opened(part):
        return [(u + v - r - s) % mod for u, v, r, s in
                zip(own[part], peer[part], own[part + 1], peer[part + 1])]

    dx, dy = opened(0), opened(2)
    server = party == SERVER
    if kind == "square":
        z = [cc + d * 2 * r + (d * d if server else 0)
             for cc, d, r in zip(c, dx, xm)]
    else:
        z = [c[t] + dx[t] * ym[t // group] + dy[t // group] * xm[t]
             + (dx[t] * dy[t // group] if server else 0)
             for t in range(len(c))]
    out, unit = list(truncate_local(party, z, codec)), codec.scale
    assert out == [v % mod // unit if not server
                   else (mod - (-v % mod) // unit) % mod for v in z]
    return out


@PROPERTY
@given(st.sampled_from(LANE_CODECS), st.data())
def test_fused_products_match_per_kind_truncation(codec, data):
    # one call mixing plain, square and fixed-mask products (group 1-4),
    # empty batches and the ring's edge values among them, reduces and
    # truncates all its products at once; each party's shares must be
    # those of every product formed per element and each kind truncated
    # apart. A lone plain product goes through the plain form when drawn
    mod = codec.modulus
    element = st.one_of(st.integers(0, mod - 1),
                        st.sampled_from([0, 1, mod // 2, mod - 1]))
    layout = []
    for kind, rows, group in data.draw(st.lists(st.tuples(
            st.sampled_from(["plain", "square", "fixed"]),
            st.integers(0, 5), st.integers(1, 4)), min_size=1, max_size=4)):
        group = group if kind == "fixed" else 1
        layout.append((kind, rows * group,
                       0 if kind == "square" else rows, group))
    listed = layout[0][0] == "plain" and len(layout) == 1 and \
        data.draw(st.booleans())
    total = sum(nx + ny for _, nx, ny, _ in layout)
    halves = [data.draw(st.lists(element, min_size=total, max_size=total))
              for _ in PARTIES]
    seen, got = {}, {}

    def party_fn(party, values, channel, triples):
        ops = []
        for kind, nx, ny, group in layout:
            xv, yv = values[:nx], values[nx:nx + ny]
            values = values[nx + ny:]
            if kind == "plain":
                a, b, c = triples.take(nx)
                x, y = Masked(xv, a), Masked(yv, b)
            elif kind == "square":
                a, c = triples.take_squares(nx)
                x = y = Masked(xv, a)
            else:
                b, a, c = triples.take_fixed_mask(ny, group)
                x, y = Masked(xv, a), Masked(yv, b)
            ops.append((x, y, c))
        seen[party] = [[list(part) for part in (x.values, x.mask, y.values,
                                                y.mask, c)]
                       for x, y, c in ops]
        if listed:
            ((x, y, c),) = ops
            out = beaver_mul_batch(party, x.values, y.values,
                                   (x.mask, y.mask, c), channel, codec)
        else:
            out = beaver_mul_batch(party, *zip(*ops), channel, codec)
        got[party] = list(out)
        return out

    run_session(party_fn, *halves, DealerState(codec, seed=total))
    for party, peer in (PARTIES, PARTIES[::-1]):
        want = []
        for (kind, _, _, group), own, other in zip(layout, seen[party],
                                                   seen[peer]):
            want += _reference_product(party, kind, group, own, other, codec)
        assert got[party] == want


@PROPERTY
@given(st.sampled_from(LANE_CODECS), st.sampled_from(PARTIES), st.data())
def test_truncate_local_is_the_lane_rule(codec, party, data):
    # truncate_local reduces any integers mod 2^l, then is _truncate by
    # 2^f on their packed form
    mod = codec.modulus
    residue = st.one_of(st.integers(0, mod - 1),
                        st.sampled_from([0, 1, mod // 2, mod - 1]))
    values = data.draw(st.lists(
        st.builds(lambda r, k: r + k * mod, residue, st.integers(-2, 2)),
        max_size=24))
    assert list(truncate_local(party, values, codec)) == _lane_truncate(
        party, [v % mod for v in values], codec, codec.f)


# ----------------------------------------------------------------- dealer

@pytest.mark.parametrize("l", [32, 40, 64])
def test_dealer_draws_match_single_draws(l, monkeypatch):
    # each stream's generator is seeded as the dealer. At l = 32 and 64 one
    # wide getrandbits call stands in for a batch of single draws, on any
    # host, as its lanes are read little-endian; l = 40 keeps the loop.
    # The values and the generator state after must be the single draws'
    # own, and the client passes over a block of full masks to the same
    # state without reading it
    count = 37
    client, server = DealerState(FixedPointCodec(l=l, f=8),
                                 seed=11).pair_streams()
    calls = []
    draw = server._rng.getrandbits

    def counted(bits):
        calls.append(bits)
        return draw(bits)

    monkeypatch.setattr(server._rng, "getrandbits", counted)
    reference = random.Random(11)
    want = [reference.getrandbits(l) for _ in range(count)]
    got = server._draws(count)
    assert list(got) == want
    assert server._rng.getstate() == reference.getstate()
    wide = l in (32, 64)
    assert calls == ([l * count] if wide else [l] * count)
    assert isinstance(got, array) == (
        server.codec.element_bytes in ring._ARRAY_CODES)
    skipped = client._masks(count)
    assert client._rng.getstate() == reference.getstate()
    assert (skipped is None) == wide


def test_client_stream_forms_no_products(codec, monkeypatch):
    # only the server forms full masks' products: the client's halves are
    # its own draws
    calls = []
    for name in ("_mat_mul_mod", "_repeat"):
        original = getattr(ring, name)
        monkeypatch.setattr(ring, name, lambda *args, _f=original, _n=name:
                            calls.append(_n) or _f(*args))
    for stream in DealerState(codec, seed=8).pair_streams():
        stream.take_matrix(2, 3, 4)
        stream.take_fixed_mask(3, 2)
        calls.append(stream.party)
    assert calls == [CLIENT, "_mat_mul_mod", "_repeat", SERVER]


def test_dealer_is_deterministic(codec):
    assert _both_halves(DealerState(codec, seed=42), 3) == _both_halves(
        DealerState(codec, seed=42), 3)


def test_dealer_never_reissues(codec):
    sc, ss = DealerState(codec, seed=1).pair_streams()
    seen = set()
    for _ in range(2):
        for a, b, _ in (sc.take(25), ss.take(25)):
            seen.update(zip(a, b))
    assert len(seen) == 100


def _diverging_session(codec, client_takes, server_takes):
    """A session whose parties request client_takes(stream) and
    server_takes(stream) from their replays of one dealer, and send
    nothing."""
    def party_fn(party, values, channel, triples):
        (client_takes if party == CLIENT else server_takes)(triples)
        return values

    return run_session(party_fn, [0], [0], DealerState(codec, seed=2))


def test_stream_count_mismatch_is_protocol_error(codec):
    # the replays diverge without a word; the session compares their logs,
    # and names the divergence, not the frame of the wrong size it causes
    def party_fn(party, values, channel, triples):
        values = values + [0] * (party == SERVER)
        return beaver_mul_batch(party, values, values,
                                triples.take(len(values)), channel, codec)

    with pytest.raises(ProtocolError, match="disagree on dealer batch 0"):
        _diverging_session(codec, lambda t: t.take(3), lambda t: t.take(4))
    with pytest.raises(ProtocolError, match="batch 0: .'scalar', 3. vs "
                                            ".'scalar', 4."):
        run_session(party_fn, [1, 2, 3], [4, 5, 6],
                    DealerState(codec, seed=3))


def test_dealer_refuses_a_batch_taken_twice(codec):
    # a second pair of streams would replay every batch of the first
    dealer = DealerState(codec, seed=4)
    dealer.pair_streams()
    with pytest.raises(UsageError, match="second pair"):
        dealer.pair_streams()


def test_dealer_makes_one_request_per_take(codec):
    for stream in DealerState(codec, seed=5).pair_streams():
        stream.take(1)
        stream.take(1000)
        stream.take_zeros(500)
        stream.take_matrix(2, 3, 4)
        assert stream.kinds == [("scalar", 1), ("scalar", 1000),
                                ("zero", 500), ("matrix", 2, 3, 4)]


def test_dealer_releases_every_batch_after_a_session(codec):
    # each party logs its own batches; the dealer keeps nothing but its
    # codec, its seed and that it has paired
    dealer = DealerState(codec, seed=6)
    streams = []

    def party_fn(party, values, channel, triples):
        streams.append(triples)
        zeros = triples.take_zeros(len(values))
        values = [(v + z) % codec.modulus for v, z in zip(values, zeros)]
        return beaver_mul_batch(party, values, values,
                                triples.take(len(values)), channel, codec)

    xc, xs = split_values([1.5, -2.0, 3.0], codec, random.Random(6))
    got, _, _ = run_session(party_fn, xc, xs, dealer)
    assert got == pytest.approx([2.25, 4.0, 9.0], abs=2 ** -12)
    assert [stream.kinds for stream in streams] == [
        [("zero", 3), ("scalar", 3)]] * 2
    assert vars(dealer) == {"codec": codec, "seed": 6, "_paired": True}


def test_stream_kind_mismatch_is_protocol_error(codec):
    with pytest.raises(ProtocolError, match="disagree on dealer batch 1"):
        _diverging_session(codec, lambda t: (t.take(1), t.take_zeros(2)),
                           lambda t: (t.take(1), t.take_matrix(2, 2, 2)))
    with pytest.raises(ProtocolError, match="batch 1: None vs"):
        _diverging_session(codec, lambda t: t.take(1),
                           lambda t: (t.take(1), t.take(1)))


def test_stream_zero_shares_cancel(codec):
    dealer = DealerState(codec, seed=3)
    sc, ss = dealer.pair_streams()
    zc = sc.take_zeros(5)
    zs = ss.take_zeros(5)
    for c, s in zip(zc, zs):
        assert (c + s) % codec.modulus == 0
        assert c != 0      # overwhelmingly likely for a 64-bit draw


def test_zero_share_rerandomizes_without_changing_value(codec):
    rng = random.Random(9)
    dealer = DealerState(codec, seed=4)
    sc, ss = dealer.pair_streams()
    c, s = make_shares(41.25, codec, rng)
    c2 = (c.value + sc.take_zeros(1)[0]) % codec.modulus
    s2 = (s.value + ss.take_zeros(1)[0]) % codec.modulus
    assert c2 != c.value
    assert reconstruct(RingShare(CLIENT, c2), RingShare(SERVER, s2),
                       codec) == reconstruct(c, s, codec)


# ----------------------------------------------------------------- matmul

def _reference_mat_mul(a_parts, b_parts, c, m, k, n, codec):
    """Per-element sum over the parts of A_j B_j, plus C, mod 2^l."""
    out = []
    for i in range(m):
        for j in range(n):
            acc = 0 if c is None else c[i * n + j]
            for a, b in zip(a_parts, b_parts):
                acc += sum(a[i * k + t] * b[t * n + j] for t in range(k))
            out.append(acc % codec.modulus)
    return out


@pytest.mark.parametrize("codec", LANE_CODECS, ids=lambda c: f"l{c.l}")
@pytest.mark.parametrize("k", [1, 2, 64, 65, 129])
def test_lane_mat_mul_at_the_carry_bound(codec, k):
    # all-ones operands fill every lane to its bound: (k + k) products of
    # 2^l - 1 plus c = 2^l - 1, as matmul_shared forms them
    top = codec.modulus - 1
    m, n = 2, 3
    a, b, c = [top] * (m * k), [top] * (k * n), [top] * (m * n)
    got = _mat_mul_mod((a, a), (b, b), c, m, k, n, codec)
    assert list(got) == _reference_mat_mul((a, a), (b, b), c, m, k, n,
                                           codec)
    got = _mat_mul_mod((a,), (b,), None, m, k, n, codec)
    assert list(got) == _reference_mat_mul((a,), (b,), None, m, k, n,
                                           codec)


@PROPERTY
@given(st.sampled_from(LANE_CODECS), st.data())
def test_lane_mat_mul_matches_per_element_sums(codec, data):
    # operands all ones, or uniform with the ring's edge values mixed in;
    # empty shapes too
    top = codec.modulus - 1
    m, n = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 5))
    k, parts = data.draw(st.integers(0, 64)), data.draw(st.integers(1, 2))
    rng = data.draw(st.randoms(use_true_random=False))

    def matrix(size):
        if data.draw(st.booleans()):
            return [top] * size
        return [rng.choice((rng.getrandbits(codec.l), 0, 1, top))
                for _ in range(size)]

    a_parts = [matrix(m * k) for _ in range(parts)]
    b_parts = [matrix(k * n) for _ in range(parts)]
    c = matrix(m * n) if data.draw(st.booleans()) else None
    got = _mat_mul_mod(a_parts, b_parts, c, m, k, n, codec)
    assert list(got) == _reference_mat_mul(a_parts, b_parts, c, m, k, n,
                                           codec)


def test_matmul_shared_matches_plain(codec):
    rng = random.Random(10)
    m, k, n = 3, 4, 2
    a = [quantize(rng.uniform(-4, 4), codec) for _ in range(m * k)]
    b = [quantize(rng.uniform(-4, 4), codec) for _ in range(k * n)]
    expect = [sum(a[i * k + t] * b[t * n + j] for t in range(k))
              for i in range(m) for j in range(n)]

    a_sh = [make_shares(v, codec, rng) for v in a]
    b_sh = [make_shares(v, codec, rng) for v in b]

    def party_fn(party, values, channel, triples):
        return matmul_shared(party, [(values[:m * k], values[m * k:],
                                      triples.take_matrix(m, k, n),
                                      (m, k, n))], channel, codec)[0]

    got, st_c, st_s = run_session(party_fn, [p[0].value for p in a_sh + b_sh],
                                  [p[1].value for p in a_sh + b_sh],
                                  DealerState(codec, seed=11))
    assert got == pytest.approx(expect, abs=(k + 2) * 2.0 ** -codec.f)
    for st in (st_c, st_s):
        assert st.rounds == 1
        assert st.payload_bytes == (m * k + k * n) * codec.element_bytes


@pytest.mark.parametrize("codec", [FixedPointCodec(), FixedPointCodec(l=32, f=12),
                                   FixedPointCodec(l=40, f=16)],
                         ids=lambda c: f"l{c.l}")
def test_matmul_shared_frame(codec):
    # each party sends one frame: the int.to_bytes encoding of A - R_a,
    # then of B - R_b, element by element; l = 40 has no array typecode
    mod, width = codec.modulus, codec.element_bytes
    m, k, n = 2, 3, 4
    rng = random.Random(14)
    a = [quantize(rng.uniform(-4, 4), codec) for _ in range(m * k)]
    b = [quantize(rng.uniform(-4, 4), codec) for _ in range(k * n)]
    shares = [make_shares(v, codec, rng) for v in a + b]
    frames = {}

    def party_fn(party, values, channel, triples):
        ra, rb, rc = triples.take_matrix(m, k, n)
        channel.start_transcript()
        (out,) = matmul_shared(party, [(values[:m * k], values[m * k:],
                                        (ra, rb, rc), (m, k, n))],
                               channel, codec)
        payload = b"".join(((v - r) % mod).to_bytes(width, "little")
                           for v, r in zip(values, list(ra) + list(rb)))
        frames[party] = (channel.transcript(),
                         struct.pack("<I", len(payload)) + payload)
        return out

    got, _, _ = run_session(party_fn, [p[0].value for p in shares],
                            [p[1].value for p in shares],
                            DealerState(codec, seed=15))
    for sent, want in frames.values():
        assert sent == want
    expect = [sum(a[i * k + t] * b[t * n + j] for t in range(k))
              for i in range(m) for j in range(n)]
    assert got == pytest.approx(expect, abs=(k + 2) * 2.0 ** -codec.f)


@pytest.mark.parametrize("codec", [FixedPointCodec(), FixedPointCodec(l=32, f=12),
                                   FixedPointCodec(l=40, f=16)],
                         ids=lambda c: f"l{c.l}")
def test_matmul_shared_opens_every_product_in_one_frame(codec):
    # two products in one call: one frame of every operand's opening, and
    # the outputs of one call per product (test_matmul_shared_matches_plain
    # checks those) given the same triples
    shapes = [(2, 3, 4), (3, 2, 1)]
    sizes = [m * k + k * n for m, k, n in shapes]
    rng = random.Random(16)
    plain = [quantize(rng.uniform(-4, 4), codec) for _ in range(sum(sizes))]
    shares = [make_shares(v, codec, rng) for v in plain]

    def products(values, triples):
        out = []
        for (m, k, n), triple in zip(shapes, triples):
            out.append((values[:m * k], values[m * k:m * k + k * n], triple,
                        (m, k, n)))
            values = values[m * k + k * n:]
        return out

    def together(party, values, channel, stream):
        triples = [stream.take_matrix(*shape) for shape in shapes]
        return [v for out in matmul_shared(party, products(values, triples),
                                           channel, codec) for v in out]

    def apart(party, values, channel, stream):
        triples = [stream.take_matrix(*shape) for shape in shapes]
        return [v for product in products(values, triples)
                for v in matmul_shared(party, [product], channel, codec)[0]]

    runs = [run_session(fn, [p[0].value for p in shares],
                        [p[1].value for p in shares],
                        DealerState(codec, seed=17))
            for fn in (together, apart)]
    assert runs[0][0] == runs[1][0]
    for stats in runs[0][1:]:
        assert (stats.frames, stats.rounds) == (1, 1)
        assert stats.payload_bytes == sum(sizes) * codec.element_bytes
    assert [stats.rounds for stats in runs[1][1:]] == [2, 2]


def test_matmul_shape_validation(codec):
    a, _ = open_inproc()
    dealer = DealerState(codec, seed=12)
    sc, _ = dealer.pair_streams()
    with pytest.raises(UsageError):
        matmul_shared(CLIENT, [([0] * 5, [0] * 4, sc.take_matrix(2, 2, 2),
                                (2, 2, 2))], a, codec)
    # no products would send an empty frame for nothing
    with pytest.raises(UsageError):
        matmul_shared(CLIENT, [], a, codec)
