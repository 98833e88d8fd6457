"""Inverse square root on shares: bit-trick seeding plus Newton refinement.

The classic one-party trick reads 1/sqrt(x) off the packed bits of x with
one integer shift against a magic constant. The two-party form here splits
that arithmetic across additive shares: each party shifts the packed bits
of its own share magnitude, the server adds a constant that merges the two
halves and compensates the flooding bias, and the sum of the two integers
approximates the packed bits of the result. On flooded shares the bits
re-enter the value domain locally too, so the whole seed is free; unflooded
shares pay one masked opening for that step. Flooding makes the seed a
constant in x, and a share-local function of a flooded pair can depend
on x at most affinely, so the seed may also take a public slope: each
party subtracts beta times its own share of x, which costs no bytes.

Newton's update y <- y * (3/2 - x/2 * y^2) then runs on shares in two
rounds per iteration: one batch forms y^2 and (x/2) y together, a second
multiplies them, and 3/2 y minus that product is local, so each element
still costs three Beaver multiplications per iteration. x/2 is opened once
per call and y once per iteration, so those three products open 3 ring
elements per element after the first iteration, which opens 4. Asked
for sqrt(x)/2 instead, Newton takes its last step in product form, Q =
(x/2) y and Q (3/2 - Q y), which opens y, Q and 1/2 - Q y once each and
so one element less than the step and a separate (x/2) y_n product. The
iteration converges only when seed * sqrt(x) < sqrt(3), which is what
share flooding buys.
"""

import math
import random
from array import array
from dataclasses import dataclass

from .errors import ConfigError, RangeError, UnsupportedValueError
from .floatbits import BIAS, L, compose, decompose, pack_integer, \
    to_binary32, unpack_integer
from .ring import CLIENT, SERVER, Channel, DealerState, FixedPointCodec, \
    Masked, _lanes, _truncate, beaver_mul_batch, run_session, truncate_local

MAGIC_K1 = 0x5F3759DF
MIN_MAGNITUDE = 2.0 ** -30
_MIN_BITS = array("I", array("f", [MIN_MAGNITUDE]).tobytes())[0]

# Expected mantissa fraction of a flooded share, used only to center the
# flooded seed's linearization.
LINEARIZE_MANTISSA = 0.375


@dataclass(frozen=True)
class SeedParams:
    """Constants of the communication-free seed.

    B and L are the binary32 exponent bias and mantissa scale from
    floatbits. K2 and the flooding compensation are derived from the
    fields, never copied from hand arithmetic: K2 = round((3B - 3b - 1) *
    L / 2) merges the two share halves, comp = round((E_f - E_m) * L / 2)
    removes the systematic exponent bias flooding introduces. E_m may be
    real: lowering it by 2 log2(k) scales the flooded seed by k. slope is
    the flooded seed's public slope beta, y0 - beta x in place of the flat
    y0. The one-party seed uses the classic magic integer MAGIC_K1
    instead.
    """

    b: float = 0.045
    E_f: int = 140
    E_m: float = 128
    slope: float = 0.0

    def __post_init__(self):
        if not 0 <= self.b < 1:
            raise ConfigError(f"log-linearization constant b={self.b} outside [0, 1)")
        for name in ("E_f", "E_m"):
            value = getattr(self, name)
            if not 1 <= value <= 254:
                raise ConfigError(f"{name}={value} is not a normal binary32 exponent")

    @property
    def K2(self) -> int:
        return round((3 * BIAS - 3 * self.b - 1) * L / 2)

    @property
    def comp(self) -> int:
        return round((self.E_f - self.E_m) * L / 2)

    @property
    def C0(self) -> int:
        # splits the masked opening's exponential between the two factors
        return round(L * (self.E_f + 0.5) / 4)


@dataclass(frozen=True)
class NewtonConfig:
    iterations: int = 4

    def __post_init__(self):
        if not 0 <= self.iterations <= 16:
            raise ConfigError(f"iterations={self.iterations} outside 0..16")


def seed_local(x: float) -> float:
    """One-party seed: compose(MAGIC_K1 - packed(x)/2), relative error
    under 5%."""
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise RangeError(f"seed_local needs a positive finite input, got {x!r}")
    i_x = pack_integer(decompose(to_binary32(x))).i
    return compose(unpack_integer(MAGIC_K1 - (i_x >> 1)))


def _seed_integers(floats, offset: int) -> list:
    """offset minus a quarter of the packed binary32 magnitude of each
    float, the magnitudes floored at MIN_MAGNITUDE.

    The bit pattern of a positive normal binary32 is exactly its packed
    integer M + E*L, so the batch is rounded to binary32 as one array and
    read back as unsigned 32-bit words. MIN_MAGNITUDE is a binary32 value
    and rounding is monotone, so flooring the words at its bit pattern,
    only where one is below it, is flooring the floats. An array stores an
    overflow as infinity silently, so the exponent range is checked on the
    batch.
    """
    bits = array("I", array("f", list(map(abs, floats))).tobytes())
    if bits and min(bits) < _MIN_BITS:
        bits = array("I", [max(b, _MIN_BITS) for b in bits])
    if bits and not (L <= min(bits) and max(bits) < 255 * L):
        raise UnsupportedValueError(
            "a seed magnitude is not a normal binary32 value")
    return [offset - (b >> 2) for b in bits]


def _seed_offset(party: str, params: SeedParams, flooded: bool) -> int:
    """The constant a party adds to its seed integers: none on the
    client; K2, plus the flooding compensation when flooded, on the
    server."""
    if party == CLIENT:
        return 0
    return params.K2 + params.comp if flooded else params.K2


def seed_share_client(fc: float, params: SeedParams = SeedParams()) -> int:
    """Client half of the seed: minus a quarter of its packed magnitude."""
    return _seed_integers([fc], 0)[0]


def seed_share_server(fs: float, params: SeedParams = SeedParams(),
                      flooded: bool = True) -> int:
    """Server half: quarter-shifted packed magnitude plus the merge constant
    K2, plus the flooding compensation when the shares are flooded."""
    return _seed_integers([fs], _seed_offset(SERVER, params, flooded))[0]


def bits_to_value_batch(party: str, o_values, channel: Channel,
                        params: SeedParams, flooded: bool = True):
    """Carry seed integers into fixed-point value shares.

    Flooded shares: zero communication. Flooding pins the seed near a known
    constant, so each party applies the affine map that linearizes the
    exponential 2^(o/L - B) around the flood-expected packed value.

    Unflooded shares: each party maps its integer to the exponential factor
    2^(o/L + centering), encodes it, and one Beaver multiplication joins
    the factors, so the pair reconstructs 2^((o_c + o_s)/L - B). That is
    within a factor 2^-phi, phi = log2(1+m) - m <= 0.0861, of the bit-exact
    composed seed; the shortfall only deepens the Newton undershoot. Costs
    one round and two ring elements per party per element.
    """
    codec = channel.codec
    if flooded:
        p0 = params.K2 + params.comp - round(
            (params.E_f + LINEARIZE_MANTISSA) * L / 2)
        v0 = 2.0 ** (p0 / L - BIAS)
        slope = v0 * math.log(2.0) / L
        offset = 0.0 if party == CLIENT else v0 - slope * p0
        if o_values:
            # the map increases with o, so its extremes are the outputs
            # nearest the range limits; encode raises RangeError there
            codec.encode(slope * min(o_values) + offset)
            codec.encode(slope * max(o_values) + offset)
        scale, ones = codec.scale, codec.modulus - 1
        return [round((slope * o + offset) * scale) & ones for o in o_values]
    if party == CLIENT:
        x_vals = [codec.encode(2.0 ** ((o + params.C0) / L))
                  for o in o_values]
        y_vals = [0] * len(o_values)
    else:
        x_vals = [0] * len(o_values)
        y_vals = [codec.encode(2.0 ** ((o - params.C0) / L - BIAS))
                  for o in o_values]
    return beaver_mul_batch(party, x_vals, y_vals,
                            channel.triples.take(len(o_values)), channel)


def newton_plain(x: float, y0: float, n: int) -> float:
    """n inverse-sqrt Newton steps; may diverge, the caller inspects."""
    if n < 0:
        raise RangeError("iteration count must be non-negative")
    if not x > 0:
        raise RangeError(f"newton_plain needs x > 0, got {x!r}")
    y = y0
    for _ in range(n):
        y = y * (1.5 - 0.5 * x * y * y)
        if not math.isfinite(y):
            return y
    return y


def newton_shared_batch(party: str, x_values, y_values, n: int,
                        channel: Channel, *, half_root: bool = False):
    """n shared Newton iterations on batches, two rounds each.

    The step y' = y * (3/2 - x/2 * y^2) is taken as y + y/2 - (y*y) *
    ((x/2)*y): round 1 forms y*y and (x/2)*y, round 2 multiplies the two,
    and the rest is local (y/2 and x/2 by one-bit local truncations).
    x/2 is opened once per call, against a fixed mask b, in the first
    iteration's round 1; each round 1 opens only y, against a fresh mask
    a_k, and forms y*y from (a_k, a_k^2) and (x/2)*y from (b, a_k, a_k b).
    Round 2 takes an ordinary triple. That is 2 ring elements per element
    in each round, but 1 in round 1 after the first iteration. Shares
    are reduced ring elements.

    With half_root it returns sqrt(x)/2 = (x/2) y_n in place of y_n, the
    last iteration in product form: Q = (x/2) y opens only y, T = Q y
    only Q (mask q), and Q + Q r = Q (3/2 - Q y) only r = 1/2 - T (mask
    rho), so n >= 1 iterations open 3n + 1 ring elements per element in
    2n + 1 rounds. Only the last step takes that form, because a
    product-form step does not correct the rounding before it as a Newton
    step does. With n = 0 one product (x/2) y_0 opens x/2 and y_0.
    """
    m = len(y_values)
    y = list(y_values)
    if not (n or half_root):
        return y
    codec, triples = channel.codec, channel.triples
    lanes = _lanes(codec, m)
    # with half_root the last iteration takes the tail; each other one is
    # a Newton step, with a square in its slot of the fixed mask
    tail = half_root and n > 0
    steps, group = n - tail, n or 1
    b, a, ab, *rest = triples.take_fixed_mask(m, group, steps, tail)
    half_x = Masked(lanes.unpack(
        _truncate(party, lanes.pack(x_values), lanes, 1)), b)
    for k in range(steps):
        y_k = Masked(y, a[k::group])
        pair = beaver_mul_batch(party, (y_k, half_x), (y_k, y_k),
                                (rest[0][k::steps], ab[k::group]), channel)
        product = beaver_mul_batch(party, pair[:m], pair[m:],
                                   triples.take(m), channel)
        packed = lanes.pack(y)
        y = lanes.unpack(lanes.sub(lanes.add(
            packed, _truncate(party, packed, lanes, 1)), lanes.pack(product)))
    if not half_root:
        return y
    y_last = Masked(y, a[group - 1::group])
    root = beaver_mul_batch(party, (half_x,), (y_last,),
                            (ab[group - 1::group],), channel)
    if not tail:
        return root
    q, rho, qa, rho_q = rest[-4:]
    root = Masked(root, q)
    t = lanes.pack(beaver_mul_batch(party, (root,), (y_last,), (qa,),
                                    channel))
    r = (lanes.sub(lanes.one * (codec.scale >> 1), t) if party == SERVER
         else lanes.neg(t))
    step = beaver_mul_batch(party, (root,), (Masked(lanes.unpack(r), rho),),
                            (rho_q,), channel)
    return lanes.unpack(lanes.add(lanes.pack(root.values), lanes.pack(step)))


def rsqrt_shared_batch(party: str, values, channel: Channel,
                       params: SeedParams, newton: NewtonConfig,
                       flooded: bool = True, *, half_root: bool = False):
    """Full per-party pipeline on a batch of shares of positive values:
    local seed bits, value-domain conversion, shared Newton refinement.
    With half_root it returns sqrt(x)/2 in place of 1/sqrt(x), as
    newton_shared_batch does.

    The seed reads each party's own float view of its share, so it runs on
    the values as given; the Newton phase first adds dealer zero-shares,
    because its truncations need a wrap-normalized (uniform-client) pair
    and callers may supply structured splits. A sloped seed subtracts
    params.slope times that refreshed share of x, truncated, from each
    party's seed share: a public-by-shared product, so no bytes.
    """
    codec = channel.codec
    lanes = _lanes(codec, len(values))
    x = lanes.pack(values)
    o_values = _seed_integers(lanes.decode(x),
                              _seed_offset(party, params, flooded))
    seeds = bits_to_value_batch(party, o_values, channel, params, flooded)
    zeros = lanes.pack(channel.triples.take_zeros(len(values)))
    arith = lanes.unpack(lanes.add(x, zeros))
    if params.slope:
        beta = codec.encode(params.slope)
        tilt = truncate_local(party, [v * beta for v in arith], codec)
        seeds = lanes.unpack(lanes.sub(lanes.pack(seeds), lanes.pack(tilt)))
    return newton_shared_batch(party, arith, seeds, newton.iterations,
                               channel, half_root=half_root)


def run_shared_rsqrt(share_pairs, codec: FixedPointCodec, params: SeedParams,
                     newton: NewtonConfig, dealer_seed: int = 0,
                     flooded: bool = True, transport: str = "inproc"):
    """Drive both parties over a fresh session for a batch of share pairs.

    share_pairs is a list of (client value, server value) ring integers.
    Returns (decoded outputs, client stats, server stats).
    """
    def party_fn(party, values, channel):
        return rsqrt_shared_batch(party, values, channel, params, newton,
                                  flooded)

    return run_session(party_fn, [pair[0] for pair in share_pairs],
                       [pair[1] for pair in share_pairs],
                       DealerState(codec, seed=dealer_seed), transport)


@dataclass(frozen=True)
class SweepRow:
    gap: int
    trials: int
    converged: int
    rate: float
    mean_rel_err: float


def closeness_sweep(gaps=range(13), trials: int = 200, n: int = 8,
                    codec: FixedPointCodec | None = None,
                    params: SeedParams | None = None, seed: int = 1):
    """Convergence rate of the unflooded pipeline versus exponent gap.

    For each gap d, share pairs are built with a bit-exact binary32
    exponent gap of exactly d: the dominant share is a power of two
    (mantissa zero, mirroring the flood constant) and the counterpart has a
    uniform mantissa d octaves down, opposite-signed for d >= 2 the way a
    flooded client share is. No flooding, so the compensation term is off;
    the sweep isolates how seed quality decays as the gap opens. n defaults
    to 8 iterations, enough that the gap geometry, not the iteration
    budget, decides convergence (relative error within 1e-2).
    """
    if trials < 1:
        raise ConfigError("trials must be positive")
    gaps = list(gaps)
    if not gaps or min(gaps) < 0:
        raise ConfigError(f"gaps {gaps} must be one or more non-negative "
                          "exponent gaps")
    codec = codec or FixedPointCodec()
    params = params or SeedParams()
    newton = NewtonConfig(iterations=n)
    rng = random.Random(seed)
    rows = []
    for gap in gaps:
        pairs = []
        xs = []
        for _ in range(trials):
            k = rng.randint(1, 5)
            c = 1.0 + rng.random()
            counterpart = c * 2.0 ** (k - gap)
            fs = 2.0 ** k
            fc = -counterpart if gap >= 2 else counterpart
            pairs.append((codec.encode(fc), codec.encode(fs)))
            xs.append(codec.decode((codec.encode(fc) + codec.encode(fs))
                                   % codec.modulus))
        results, _, _ = run_shared_rsqrt(pairs, codec, params, newton,
                                         dealer_seed=seed + gap,
                                         flooded=False)
        converged = 0
        err_sum = 0.0
        for x, y in zip(xs, results):
            rel = abs(y * math.sqrt(x) - 1.0)
            if rel <= 1e-2:
                converged += 1
                err_sum += rel
        rows.append(SweepRow(
            gap=gap, trials=trials, converged=converged,
            rate=converged / trials,
            mean_rel_err=(err_sum / converged) if converged else float("nan"),
        ))
    return rows
