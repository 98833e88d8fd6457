"""Fixed-point additive secret sharing over Z_{2^l} with Beaver multiplication.

Values are reals scaled by 2^f and reduced mod 2^l, read back through a
two's-complement signed window. Each secret is split into two uniformly
masked summands, one per party. Multiplication consumes dealer-issued
correlated masks: each operand is opened once as a masked difference, and
every product of opened operands is then local, given the dealer's share
of the product of their masks. A fresh pair costs one round and two ring
elements on the wire; a square, or a product with an operand opened
before, costs less. A local probabilistic shift, a floor on the client
and a ceiling on the server, truncates the doubled scale away; _truncate
is the one place that rule is written. run_session runs one protocol for
both parties over a fresh channel and decodes its outputs. Every step
but the elementwise products works on a whole batch at once, held as one
integer (_Lanes); a matrix product takes one big-integer multiply-add
per inner index and output row, on rows held in lanes wide enough for
its sums. Every Beaver product, elementwise or matrix, opens its
operands through one step (_open), and each Beaver call reduces its
products as it forms them and truncates all of them as one lane form.
The shares that pass between steps are reduced ring elements,
0 <= v < 2^l.
"""

import random
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain, zip_longest
from operator import mul

from .errors import ConfigError, ProtocolError, RangeError, UsageError
from .transport import run_pair

CLIENT = "client"
SERVER = "server"
PARTIES = (CLIENT, SERVER)

# Unsigned array typecodes by item size. On a little-endian host such an
# array's bytes are its elements' lane form; other widths and hosts use lists.
_ARRAY_CODES = {array(code).itemsize: code for code in ("I", "Q")
                if sys.byteorder == "little"}


@dataclass(frozen=True)
class FixedPointCodec:
    """Scale-2^f fixed point inside Z_{2^l}, signed two's complement."""

    l: int = 64
    f: int = 16

    def __post_init__(self):
        if not (isinstance(self.l, int) and isinstance(self.f, int)):
            raise ConfigError("codec parameters l and f must be integers")
        if not 2 <= self.f < self.l <= 64:
            raise ConfigError(
                f"codec requires 2 <= f < l <= 64, got l={self.l} f={self.f}")
        # (2^f, 2^(l-1), 2^l - 1), made once; not a field, so equality,
        # hashing and repr see only l and f
        object.__setattr__(self, "_consts", (
            1 << self.f, 1 << (self.l - 1), (1 << self.l) - 1))

    @property
    def modulus(self) -> int:
        return 1 << self.l

    @property
    def scale(self) -> int:
        return 1 << self.f

    @property
    def element_bytes(self) -> int:
        return (self.l + 7) // 8

    def encode(self, x: float) -> int:
        scale, half, ones = self._consts
        v = round(x * scale)
        if not -half <= v < half:
            raise RangeError(
                f"{x!r} outside the representable range at l={self.l} f={self.f}")
        return v & ones

    def decode(self, v: int) -> float:
        scale, half, ones = self._consts
        return (((v + half) & ones) - half) / scale


@dataclass(frozen=True)
class RingShare:
    """One party's additive share, an unsigned ring integer."""

    party: str
    value: int

    def __post_init__(self):
        if self.party not in PARTIES:
            raise UsageError(f"unknown party {self.party!r}")


def make_shares(x: float, codec: FixedPointCodec, rng: random.Random):
    """Split x into (client, server) shares; each alone is uniform."""
    mask = rng.getrandbits(codec.l)
    value = codec.encode(x)
    return (RingShare(CLIENT, mask),
            RingShare(SERVER, (value - mask) % codec.modulus))


def split_values(values, codec: FixedPointCodec, rng: random.Random):
    """Split plaintext reals into (client values, server values) ring lists.

    Each mask is drawn with rng.randrange(codec.modulus), in input order.
    """
    mod = codec.modulus
    client = []
    server = []
    for v in values:
        mask = rng.randrange(mod)
        client.append(mask)
        server.append((codec.encode(v) - mask) % mod)
    return client, server


def reconstruct_raw(sc: RingShare, ss: RingShare, codec: FixedPointCodec) -> int:
    """Ring-integer sum of a share pair, without fixed-point decoding."""
    if {sc.party, ss.party} != set(PARTIES):
        raise UsageError("reconstruct needs one share from each party")
    return (sc.value + ss.value) % codec.modulus


def reconstruct(sc: RingShare, ss: RingShare, codec: FixedPointCodec) -> float:
    return codec.decode(reconstruct_raw(sc, ss, codec))


def linear_combine(shares, coeffs, constant: int, codec: FixedPointCodec) -> RingShare:
    """Public-coefficient affine map, applied locally by one party.

    The public constant is added by the server only, so that applying the
    same map on both sides shifts the reconstructed value once.
    """
    if not shares:
        raise UsageError("linear_combine needs at least one share")
    if len(shares) != len(coeffs):
        raise UsageError("coefficient count must match share count")
    party = shares[0].party
    if any(s.party != party for s in shares):
        raise UsageError("linear_combine shares must belong to one party")
    acc = 0
    for share, coeff in zip(shares, coeffs):
        acc += coeff * share.value
    if party == SERVER:
        acc += constant
    return RingShare(party, acc % codec.modulus)


class _Lanes:
    """Batches of `count` ring elements in lane form: one int holding
    element k in lane k, bits [8vk, 8v(k + 1)). A lane holds a sum of
    `terms` products of l-bit values plus one more l-bit value, so no
    carry leaves it: v is the least multiple of w = codec.element_bytes
    with room for that. Ring-wide lanes (terms = 0, v = w) are the
    little-endian bytes of the batch's frame payload, and add, sub and neg
    work mod 2^l on every lane at once by the high-bit trick: the low
    8v - 1 bits are summed, where no carry leaves a lane, and the top bit
    is set by exclusive-or. Shift masks are multiples of `one`, 1 per
    lane. Wide lanes are only packed, multiplied and read back.
    """

    def __init__(self, codec: FixedPointCodec, count: int, terms: int = 0):
        width = codec.element_bytes
        top = terms * (codec.modulus - 1) ** 2 + codec.modulus - 1
        self.words = -(-top.bit_length() // (8 * width))
        self.codec, self.count, self.lane = codec, count, width * self.words
        self.size = self.lane * count

    # The masks are made on first use, so lanes that are only packed and
    # read, such as the dealer's wide draws, hold none of them.
    @cached_property
    def one(self) -> int:
        return int.from_bytes((b"\1" + bytes(self.lane - 1)) * self.count,
                              "little")

    ones = cached_property(lambda self: self.one * (self.codec.modulus - 1))
    high = cached_property(lambda self: self.one << (8 * self.lane - 1))
    low = cached_property(lambda self: self.high - self.one)

    def _payload(self, parts):
        """Lane-form bytes of reduced ring elements."""
        width, words = self.codec.element_bytes, self.words
        code = _ARRAY_CODES.get(width)
        if code is None:
            return b"".join(v.to_bytes(self.lane, "little")
                            for part in parts for v in part)
        data = b"".join(array(code, part) for part in parts)
        if words == 1:
            return data
        wide = array(code, bytes(len(data) * words))
        wide[::words] = array(code, data)
        return memoryview(wide).cast("B")

    def pack(self, *parts) -> int:
        """Lane form of reduced ring elements, `count` in all parts."""
        return int.from_bytes(self._payload(parts), "little")

    def rows(self, rows: int, *parts) -> list:
        """Lane forms of `rows` runs of `count` reduced ring elements, one
        run after another in all parts."""
        data, size = self._payload(parts), self.size
        return [int.from_bytes(data[i * size:(i + 1) * size], "little")
                for i in range(rows)]

    def read(self, payload) -> int:
        """Lane form of a frame payload of `count` elements."""
        if len(payload) != self.size:
            raise ProtocolError(f"expected {self.count} elements "
                                f"({self.size} bytes), got {len(payload)}")
        return int.from_bytes(payload, "little")

    def unpack(self, *forms):
        """Elements of lane forms, in order: an array of the element width,
        or a list where no array typecode has it. Wide lanes are read mod
        2^l."""
        width, words, size = self.codec.element_bytes, self.words, self.size
        if words > 1:
            forms = [x & self.ones for x in forms]
        payload = (forms[0].to_bytes(size, "little") if len(forms) == 1 else
                   b"".join(x.to_bytes(size, "little") for x in forms))
        code = _ARRAY_CODES.get(width)
        if code is None:
            return [int.from_bytes(payload[j:j + width], "little")
                    for j in range(0, len(payload), self.lane)]
        elements = array(code, payload)
        return elements[::words] if words > 1 else elements

    def decode(self, x: int) -> list:
        """Fixed-point reals of a lane form, read through one signed view
        of its bytes where an array typecode has the ring's width."""
        codec = self.codec
        code = _ARRAY_CODES.get(codec.element_bytes)
        if code is None or codec.l % 8:
            return [codec.decode(v) for v in self.unpack(x)]
        scale = codec.scale
        signed = array(code.lower(), x.to_bytes(self.size, "little"))
        return [v / scale for v in signed]

    def add(self, x: int, y: int) -> int:
        low = self.low
        return (((x & low) + (y & low)) ^ ((x ^ y) & self.high)) & self.ones

    def sub(self, x: int, y: int) -> int:
        return (((x | self.high) - (y & self.low))
                ^ (~(x ^ y) & self.high)) & self.ones

    def neg(self, x: int) -> int:
        return ((self.high - (x & self.low)) ^ (~x & self.high)) & self.ones


_lanes = lru_cache(maxsize=32)(_Lanes)     # masks made once per (codec, count)


def _truncate(party: str, x: int, lanes: _Lanes, t: int) -> int:
    """The truncation rule on the lane form x of reduced ring elements,
    by 2^t, 1 <= t <= l: the client floors, v >> t, and the server takes
    the ceiling, -((-v mod 2^l) >> t), so the pair is unbiased."""
    kept = lanes.one * ((1 << (lanes.codec.l - t)) - 1)
    if party == CLIENT:
        return (x >> t) & kept
    return lanes.neg((lanes.neg(x) >> t) & kept)


def truncate_local(party: str, values, codec: FixedPointCodec):
    """Local probabilistic truncation of one party's shares by 2^f.

    Correct within one unit of the truncated scale, except with probability
    about |value| / 2^(l-1) of a large wrap error, where value is the ring
    magnitude being truncated. The client floors, v >> f; the server takes
    the ceiling. Inputs may be any integers; they are reduced mod 2^l
    first, as v & (2^l - 1), then packed and truncated by _truncate, the
    one place the rule is written; callers holding reduced lane forms, or
    truncating by another power of two, call _truncate directly.
    Returns the shares as _Lanes.unpack gives them: an array of the element
    width, or a list where no array typecode has it.
    """
    if party not in PARTIES:
        raise UsageError(f"unknown party {party!r}")
    ones = codec.modulus - 1
    lanes = _lanes(codec, len(values))
    return lanes.unpack(_truncate(
        party, lanes.pack([v & ones for v in values]), lanes, codec.f))


def _repeat(values, group: int):
    """Each element of values repeated group times in a row, as a list or
    array like values."""
    if group == 1:
        return values
    if not isinstance(values, (list, array)):
        values = list(values)
    out = values * group
    for j in range(group):
        out[j::group] = values
    return out


def _mat_mul_mod(a_parts, b_parts, c, m: int, k: int, n: int,
                 codec: FixedPointCodec):
    """Sum over parts j of A_j B_j, plus C, mod 2^l, row-major and flat:
    each A_j is m x k, each B_j is k x n, and C is m x n or None for zero.

    With B = [B_1; B_2; ...] held as rows of wide lanes, row i of the
    result is row i of [A_1 | A_2 | ...] times those rows: one big-int
    product of n lanes per inner index, instead of n products of elements.
    """
    lanes = _Lanes(codec, n, k * len(b_parts))
    rows = lanes.rows(k * len(b_parts), *b_parts)
    acc = [0] * m if c is None else lanes.rows(m, c)
    for i in range(m):
        left = chain.from_iterable(a[i * k:(i + 1) * k] for a in a_parts)
        acc[i] = sum(map(mul, left, rows), acc[i])
    return lanes.unpack(*acc)


class DealerState:
    """Simulated trusted dealer: a codec and a seed, which each party's
    TripleStream replays. It never re-issues randomness, so it pairs
    streams once. Dealer traffic is offline setup material and is not
    counted by the online channel stats."""

    def __init__(self, codec: FixedPointCodec, seed: int = 0):
        self.codec = codec
        self.seed = seed
        self._paired = False

    def pair_streams(self):
        if self._paired:
            raise UsageError("this dealer has issued its streams; a second "
                             "pair would replay their masks")
        self._paired = True
        return TripleStream(self, CLIENT), TripleStream(self, SERVER)


class TripleStream:
    """One party's replay of the dealer: its own generator, seeded as the
    dealer, makes every batch in the dealer's draw order, and it keeps its
    own half: the client's draws, or on the server the full values minus
    them, so only the server forms products. kinds logs each request (one
    batch) for run_session."""

    def __init__(self, dealer: DealerState, party: str):
        if party not in PARTIES:
            raise UsageError(f"unknown party {party!r}")
        self.codec = dealer.codec
        self.party = party
        self._rng = random.Random(dealer.seed)
        self.kinds = []

    def _draws(self, count: int):
        """count uniform l-bit draws. At l = 32 or 64 one wide getrandbits
        call reads the same 32-bit generator words, least significant
        first, as count single draws: the same values and end state."""
        l = self.codec.l
        if l in (32, 64):
            return _lanes(self.codec, count).unpack(
                self._rng.getrandbits(l * count))
        draw = self._rng.getrandbits
        return [draw(l) for _ in range(count)]

    def _masks(self, count: int):
        """count full-mask draws, for the server's halves. At l = 32 or 64
        the client only moves its generator past them, as _draws would,
        without unpacking them, and gets None."""
        if self.party == SERVER or self.codec.l not in (32, 64):
            return self._draws(count)
        self._rng.getrandbits(self.codec.l * count)

    def _half(self, own, fulls):
        """This party's half of shared values whose client halves are own:
        own itself on the client; on the server, fulls() - own, part by
        part, so only the server forms the full values."""
        if self.party == CLIENT:
            return tuple(own)
        out = []
        for full, part in zip(fulls(), own):
            lanes = _lanes(self.codec, len(part))
            out.append(lanes.unpack(lanes.sub(lanes.pack(full),
                                              lanes.pack(part))))
        return tuple(out)

    def _next(self, kind: tuple):
        """This party's half of the next batch of the given kind.

        Scalar triples draw a, b, a_client, b_client, c_client per element,
        in element order; c = a*b mod 2^l is the full ring product of the
        uniform factors, and the fixed-point product identity appears after
        the post-multiplication truncation. A square is (a, a^2), drawn as
        a, a_client, c_client per element. A fixed mask is one mask b of
        `count` elements shared by `group` products per element: masks a
        (group per element of b, element-major) and a_t * b[t // group],
        plus a_t^2 for the leading `squares` slots of each group, squares
        per element, element-major, and with a tail masks q and rho of
        `count` elements, q * a_t for each group's last slot t and rho * q.
        A zero share is (r, -r).
        """
        self.kinds.append(kind)
        ones = self.codec.modulus - 1

        def products(x, y):
            return [u * v & ones for u, v in zip(x, y)]

        if kind[0] == "scalar":
            r = self._draws(5 * kind[1])
            return self._half((r[2::5], r[3::5], r[4::5]), lambda: (
                r[0::5], r[1::5], products(r[0::5], r[1::5])))
        if kind[0] == "square":
            r = self._draws(3 * kind[1])
            return self._half((r[1::3], r[2::3]), lambda: (
                r[0::3], products(r[0::3], r[0::3])))
        if kind[0] == "fixed":
            _, count, group, squares, tail = kind
            size = count * group
            b, b_c = self._masks(count), self._draws(count)
            a, a_c, ab_c = (self._masks(size), self._draws(size),
                            self._draws(size))
            own = [b_c, a_c, ab_c]
            if squares:
                own.append(self._draws(count * squares))
            if tail:
                q, rho = self._masks(count), self._masks(count)
                own += [self._draws(count) for _ in range(4)]

            def fulls():
                out = [b, a, products(a, _repeat(b, group))]
                if squares:
                    lead = a if squares == group else [
                        v for t, v in enumerate(a) if t % group < squares]
                    out.append(products(lead, lead))
                if tail:
                    out += [q, rho, products(q, a[group - 1::group]),
                            products(rho, q)]
                return out

            return self._half(own, fulls)
        if kind[0] == "zero":
            return self._half((self._draws(kind[1]),),
                              lambda: ([0] * kind[1],))[0]
        m, k, n = kind[1:]
        a, b = self._masks(m * k), self._masks(k * n)
        own = [self._draws(size) for size in (m * k, k * n, m * n)]
        return self._half(own, lambda: (
            a, b, _mat_mul_mod((a,), (b,), None, m, k, n, self.codec)))

    def take(self, count: int):
        """Next `count` scalar triples, as this party's (a, b, c)
        element sequences."""
        return self._next(("scalar", count))

    def take_squares(self, count: int):
        """This party's (a, c) for `count` squares: masks a, c = a^2."""
        return self._next(("square", count))

    def take_fixed_mask(self, count: int, group: int, squares: int = 0,
                        tail: bool = False):
        """This party's (b, a, c) of one fixed mask b of `count` elements
        shared by `group` products per element: masks a, element-major,
        and c_t = a_t * b[t // group]. With squares > 0, also a_t^2 for
        the leading `squares` slots of each group, element-major: slot
        j < squares of element i at i * squares + j. With tail, also, last,
        masks q and rho of `count` elements, q * a_t for each group's last
        slot t and rho * q."""
        if not 0 <= squares <= group:
            raise UsageError(f"squares={squares} outside 0..group={group}")
        return self._next(("fixed", count, group, squares, bool(tail)))

    def take_matrix(self, m: int, k: int, n: int):
        """This party's (A, B, C) shares of one m x k by k x n triple."""
        return self._next(("matrix", m, k, n))

    def take_zeros(self, count: int):
        """Next `count` zero-share offsets for this party."""
        return self._next(("zero", count))


class Masked:
    """An operand of Beaver products: this party's shares of u and of the
    dealer mask r it is opened against.

    _open opens it once, as the public D = u - r, in the first product it
    enters, and keeps D in diff: every later product with it reuses that
    opening, so each mask is opened against one value only.
    """

    __slots__ = ("values", "mask", "diff")

    def __init__(self, values, mask):
        if len(values) != len(mask):
            raise UsageError("a masked operand needs one mask per share")
        self.values = values
        self.mask = mask
        self.diff = None


def _open(operands, channel, codec: FixedPointCodec):
    """Open every Masked operand not opened yet, in one round: each party
    sends u - r for all of them in one frame, in order and once however
    often an operand appears, and keeps the public D = u - r in its diff.
    """
    fresh = {id(op): op for op in operands if op.diff is None}.values()
    lanes = _lanes(codec, sum(len(op.values) for op in fresh))
    own = lanes.sub(lanes.pack(*(op.values for op in fresh)),
                    lanes.pack(*(op.mask for op in fresh)))
    channel.send_frame(own.to_bytes(lanes.size, "little"))
    diff = lanes.unpack(lanes.add(own, lanes.read(channel.recv_frame())))
    for op in fresh:
        op.diff, diff = diff[:len(op.values)], diff[len(op.values):]


def beaver_mul_batch(party: str, x_values, y_values, triples,
                     channel, codec: FixedPointCodec):
    """Elementwise products of shared operands, one round total.

    Plain form: two batches of shares and this party's (a, b, c) from
    TripleStream.take; x is opened against a, y against b.

    Correlated form: x_values and y_values are equal-length tuples of
    Masked operands, product i being x_values[i] * y_values[i], and
    triples the tuple of this party's shares c of each product's mask
    product r_x * r_y. A y operand with one element per row of x is
    broadcast along the row. Every operand not opened yet is opened by
    _open, in this call's single frame, once, however many products use
    it.

    With D_u = u - r_u public for both operands, each product is
    z = c + D_x r_y + D_y r_x, plus D_x D_y on the server. The server forms
    it as c + D_x (r_y + D_y) + D_y r_x; a square (x is y) is c + D (2r),
    or c + D (2r + D) on the server. The plain form is the case where both
    operands are fresh. Operands are reduced ring elements. Each product is
    reduced as it is formed, and all of the call's products are truncated
    together, as one lane form. Returns the products' ring integers at
    scale 2^f, in order, in the form truncate_local returns.
    """
    if not (x_values and isinstance(x_values[0], Masked)):
        a_values, b_values, c_values = triples
        x_values = (Masked(x_values, a_values),)
        y_values = (Masked(y_values, b_values),)
        triples = (c_values,)
    if not len(x_values) == len(y_values) == len(triples):
        raise UsageError("each product needs two operands and one c share")
    groups = []
    for x, y, c in zip(x_values, y_values, triples):
        count, rows = len(x.values), len(y.values)
        group = count // rows if rows else 1
        if len(c) != count or group < 1 or rows * group != count:
            raise UsageError("batch inputs must have equal lengths, or y "
                             "one element per row of x")
        groups.append(group)
    _open(chain.from_iterable(zip(x_values, y_values)), channel, codec)
    ones = codec.modulus - 1
    z = []
    for x, y, c, group in zip(x_values, y_values, triples, groups):
        s = y.mask
        if party == SERVER or x is y:
            lanes = _lanes(codec, len(s))
            s = lanes.pack(s)
            s = lanes.add(s, s) if x is y else s
            if party == SERVER:
                s = lanes.add(s, lanes.pack(y.diff))
            s = lanes.unpack(s)
        s = _repeat(s, group)
        if x is y:
            z += [(cc + d * t) & ones for cc, d, t in zip(c, x.diff, s)]
        else:
            z += [(cc + dx * t + d * r) & ones for cc, dx, t, d, r
                  in zip(c, x.diff, s, _repeat(y.diff, group), x.mask)]
    lanes = _lanes(codec, len(z))
    return lanes.unpack(_truncate(party, lanes.pack(z), lanes, codec.f))


def matmul_shared(party: str, products, channel, codec: FixedPointCodec):
    """Shared matrix products, one round for all of them.

    products holds (a_values, b_values, triple, (m, k, n)) per product:
    this party's shares of A (m x k, row-major flat) and B (k x n), and
    its (R_a, R_b, C) from TripleStream.take_matrix. _open opens every
    Masked(A, R_a) and Masked(B, R_b) in a single frame, as D = A - R_a
    then E = B - R_b per product, in order. Each party forms its share of
    each product in one pass of wide lanes, C + [D | R_a] [R_b' ; E] mod
    2^l, where R_b' = R_b + E on the server (which so adds D E) and R_b on
    the client. All outputs are truncated to scale 2^f as one lane form.
    Returns one output list per product, in order.
    """
    if not products or any(len(a) != m * k or len(b) != k * n
                           for a, b, _, (m, k, n) in products):
        raise UsageError("matmul_shared needs one or more products, each "
                         "with share sizes that match its shape")
    operands = [(Masked(a, ra), Masked(b, rb))
                for a, b, (ra, rb, _), _ in products]
    _open(chain.from_iterable(operands), channel, codec)
    outs = []
    for (a, b), (_, _, (ra, rb, rc), (m, k, n)) in zip(operands, products):
        if party == SERVER:
            lanes = _lanes(codec, k * n)
            rb = lanes.unpack(lanes.add(lanes.pack(rb), lanes.pack(b.diff)))
        outs.append(_mat_mul_mod((a.diff, ra), (rb, b.diff), rc, m, k, n,
                                 codec))
    ends = list(accumulate(map(len, outs)))
    lanes = _lanes(codec, ends[-1])
    flat = lanes.unpack(_truncate(party, lanes.pack(*outs), lanes, codec.f))
    return [flat[end - len(out):end] for out, end in zip(outs, ends)]


def _same_batches(pairs):
    """Raise ProtocolError at the first (client, server) pair of dealer
    requests that differ."""
    for index, (kind_c, kind_s) in enumerate(pairs):
        if kind_c != kind_s:
            raise ProtocolError(f"parties disagree on dealer batch {index}: "
                                f"{kind_c} vs {kind_s}")


def run_session(party_fn, client_values, server_values, dealer: DealerState,
                transport: str = "inproc"):
    """Run one two-party protocol over a fresh channel.

    party_fn(party, values, channel, triples) runs on each party's thread
    with that party's inputs and its replay of the dealer, and returns its
    output shares. The two replays must have requested the same batches,
    or the session raises ProtocolError. Returns (decoded outputs, client
    stats, server stats), the stats taken when each party returns.
    """
    stream_c, stream_s = dealer.pair_streams()

    def party(name, values, stream):
        def fn(ep):
            return party_fn(name, values, ep, stream), ep.stats()

        return fn

    try:
        (out_c, stats_c), (out_s, stats_s) = run_pair(
            party(CLIENT, client_values, stream_c),
            party(SERVER, server_values, stream_s), transport=transport)
    finally:
        # even when a party failed: diverging requests size frames apart
        _same_batches(zip(stream_c.kinds, stream_s.kinds))
    _same_batches(zip_longest(stream_c.kinds, stream_s.kinds))
    lanes = _lanes(dealer.codec, len(out_c))
    decoded = lanes.decode(lanes.add(lanes.pack(out_c), lanes.pack(out_s)))
    return decoded, stats_c, stats_s
