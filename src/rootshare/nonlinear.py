"""Smooth-maximum-unit layers on shares: s-GeLU, normalized positive
attention weights, and layer normalization.

Every non-linearity here reduces to one primitive chain: square via one
multiplication, add a public constant, re-flood, take the shared inverse
square root, multiply back. A square opens its operand once, and a
product that broadcasts one value per row opens that value once per row.
The seed of the inverse square root is the only step that ever inspects
value magnitudes, and flooding pins those magnitudes to a public
constant, so per-call-site tuning reduces to choosing the
expected-magnitude exponent, the seed's slope and an iteration budget.
"""

import math
import random
from dataclasses import dataclass

from .errors import ConfigError, UsageError
from .config import ProtocolConfig, Site
from .flood import flood_reshare_batch
from .ring import SERVER, Channel, DealerState, FixedPointCodec, Masked, \
    beaver_mul_batch, run_session, split_values, truncate_local
from .rsqrt import rsqrt_shared_batch

S_FLOOR = 2.0 ** -12
SOFTMAX_EPS = 2.0 ** -12
LAYERNORM_EPS = 1e-5

# The standalone layers' sites; the encoder's are encoder.EncoderSites
SOFTMAX_NUM: Site = (130, 16, 0.0)
SOFTMAX_DEN: Site = (131, 16, 0.0)
LAYERNORM: Site = (127, 8, 0.0)


@dataclass(frozen=True)
class SmuParams:
    """Shape of the smooth maximum unit.

    alpha leans the two asymptotes, mu rounds the kink. alpha = 0 with
    mu = 2^-1/2 approximates GeLU to within 0.36 everywhere; alpha = 0
    with mu = 0 is exact ReLU.
    """

    alpha: float = 0.0
    mu: float = 2.0 ** -0.5

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha={self.alpha} outside [0, 1)")
        if self.mu < 0.0:
            raise ConfigError(f"mu={self.mu} must be non-negative")


GELU_PARAMS = SmuParams(alpha=0.0, mu=2.0 ** -0.5)
RELU_PARAMS = SmuParams(alpha=0.0, mu=0.0)


def smu_plain(x: float, params: SmuParams = GELU_PARAMS) -> float:
    s = (1.0 - params.alpha) * x * x + params.mu * params.mu
    return 0.5 * (1.0 + params.alpha) * x + 0.5 * math.sqrt(s)


def gelu_plain(x: float) -> float:
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


def relu_plain(x: float) -> float:
    return x if x > 0.0 else 0.0


def softmax_star_plain(row):
    """Normalized positive weights: relu(x_i) / (sum relu + eps)."""
    r = [relu_plain(v) for v in row]
    d = sum(r) + SOFTMAX_EPS
    return [v / d for v in r]


def layernorm_plain(row, gamma, beta):
    k = len(row)
    mean = sum(row) / k
    var = sum((v - mean) ** 2 for v in row) / k
    inv = 1.0 / math.sqrt(var + LAYERNORM_EPS)
    return [g * (v - mean) * inv + b for v, g, b in zip(row, gamma, beta)]


def scalar_mul_values(party: str, values, coef, codec: FixedPointCodec):
    """Multiply shares by public reals, one truncation per element.

    coef is either one float applied across the batch or a per-element
    list, whose distinct values are encoded once each. Costs nothing:
    public-by-shared products stay local.
    """
    if isinstance(coef, (int, float)):
        scaled = codec.encode(float(coef))
        return truncate_local(party, [v * scaled for v in values], codec)
    if len(coef) != len(values):
        raise UsageError("coefficient list length mismatch")
    encoded = _encode_each(coef, codec)
    return truncate_local(party, [v * encoded[c]
                                  for v, c in zip(values, coef)], codec)


def _encode_each(reals, codec: FixedPointCodec) -> dict:
    """Ring encoding of each distinct public real, in first-seen order, so
    an out-of-range list raises the RangeError of its first bad value."""
    return {c: codec.encode(c) for c in dict.fromkeys(reals)}


def add_public_values(party: str, values, const, codec: FixedPointCodec):
    """Add public reals to shares; only the server's half moves. Both halves
    come back reduced mod 2^l."""
    scalar = isinstance(const, (int, float))
    if not scalar and len(const) != len(values):
        raise UsageError("constant list length mismatch")
    ones = codec.modulus - 1
    if party != SERVER:
        return [v & ones for v in values]
    if scalar:
        shift = codec.encode(float(const))
        return [(v + shift) & ones for v in values]
    encoded = _encode_each(const, codec)
    return [(v + encoded[c]) & ones for v, c in zip(values, const)]


def _square(party: str, values, channel: Channel):
    """Elementwise squares: each share opened once, against a square's
    mask a, and the product formed from (a, a^2)."""
    a, aa = channel.triples.take_squares(len(values))
    x = Masked(values, a)
    return beaver_mul_batch(party, (x,), (x,), (aa,), channel)


def _flooded_rsqrt(party: str, values, const, channel: Channel,
                   cfg: ProtocolConfig, half_root: bool = False):
    """Inverse square root (sqrt/2 with half_root) of values + const, the
    public const added server side and the sum re-flooded, at cfg's site."""
    s = add_public_values(party, values, const, channel.codec)
    s = flood_reshare_batch(party, s, channel, cfg.flood)
    return rsqrt_shared_batch(party, s, channel, cfg.seed, cfg.newton,
                              flooded=True, half_root=half_root)


def smu_shared_batch(party: str, values, params: SmuParams, channel: Channel,
                     cfg: ProtocolConfig):
    """Smooth maximum unit on a batch of shares.

    Chain: t = x^2 (one square), s = (1-alpha) t + max(mu^2, 2^-12)
    added server side, re-flood s, sqrt(s)/2 = (s/2) * rsqrt(s) from the
    inverse square root at cfg's site, out = (1+alpha)/2 x + sqrt(s)/2.
    The additive floor keeps s strictly positive where mu = 0 would let
    the shared inverse square root see zero; it perturbs the exact unit by
    at most 2^-7 near the kink. Total multiplications: 1 + 3 * iterations,
    in 3 + 2 * iterations rounds. Newton takes its last step in product
    form, Q (3/2 - Q y) with Q = (s/2) y, which is sqrt(s)/2 and opens y,
    Q and 1/2 - Q y once each, so per element each party sends
    3 * iterations + 2 ring elements: 1 for the square, 3 * iterations + 1
    in Newton; the server adds one more for its reshare.
    """
    codec = channel.codec
    sq = _square(party, values, channel)
    if params.alpha != 0.0:
        sq = scalar_mul_values(party, sq, 1.0 - params.alpha, codec)
    floor = max(params.mu * params.mu, S_FLOOR)
    half_root = _flooded_rsqrt(party, sq, floor, channel, cfg, half_root=True)
    ax = scalar_mul_values(party, values, 0.5 * (1.0 + params.alpha), codec)
    mod = codec.modulus
    return [(a + b) % mod for a, b in zip(ax, half_root)]


def _row_count(count: int, row_len: int) -> int:
    """Number of whole rows of row_len shares in a flat batch of count."""
    if row_len < 1 or count % row_len:
        raise UsageError(
            f"{count} shares do not split into rows of {row_len}")
    return count // row_len


def _row_sums(values, rows: int, row_len: int) -> list:
    """Unreduced sum of each row of a flat, row-major batch."""
    return [sum(values[i * row_len:(i + 1) * row_len]) for i in range(rows)]


def softmax_star_shared(party: str, row_values, channel: Channel,
                        cfg: ProtocolConfig, num: Site = SOFTMAX_NUM,
                        den: Site = SOFTMAX_DEN, row_len: int | None = None):
    """Attention-style normalization of rows of shares.

    row_values is a flat, row-major batch of rows of row_len shares each
    (default: the whole batch is one row). The layer takes two inverse
    square roots, so unlike the one-root layers it names their sites
    itself: num and den, in place of cfg's. Numerator: ReLU-preset smooth
    unit per element. Denominator: each row's sum plus a public epsilon,
    inverted by squaring the shared inverse square root (1/d = rsqrt(d)^2,
    one extra multiplication), then one product per element, which opens
    the row's inverse once for the whole row: k + 1 ring elements per row
    of k. The epsilon bounds each row's output-sum deficit by eps/d. Every
    row keeps its own denominator, but all rows share each reshare, rsqrt
    batch and multiplication round, so r rows cost the rounds of one.
    """
    k = len(row_values) if row_len is None else row_len
    rows = _row_count(len(row_values), k)
    r = smu_shared_batch(party, row_values, RELU_PARAMS, channel,
                         cfg.with_site(num))
    y = _flooded_rsqrt(party, _row_sums(r, rows, k), SOFTMAX_EPS, channel,
                       cfg.with_site(den))
    inv = _square(party, y, channel)
    b, a, ab = channel.triples.take_fixed_mask(rows, k)
    return beaver_mul_batch(party, (Masked(r, a),), (Masked(inv, b),), (ab,),
                            channel)


def layernorm_shared(party: str, row_values, gamma, beta, channel: Channel,
                     cfg: ProtocolConfig):
    """Layer normalization of rows of shares with public gamma, beta.

    row_values is a flat, row-major batch of rows of len(gamma) shares.
    Means and centering are free (affine). The squares cost one batched
    multiplication, each row's variance inverse root runs flooded at cfg's
    site (callers pass cfg.with_site(site)), and one more batched
    multiplication normalizes. The centered values are opened once, for
    the squares, and reused by the normalizing product, which opens only
    each row's inverse root: k + 1 ring elements per row of k. All rows
    share each reshare, rsqrt batch and multiplication round, so r rows
    cost the rounds of one.
    """
    codec = channel.codec
    k = len(gamma)
    if len(beta) != k:
        raise UsageError("gamma and beta must have the same length")
    rows = _row_count(len(row_values), k)
    mod = codec.modulus
    means = scalar_mul_values(party, _row_sums(row_values, rows, k), 1.0 / k,
                              codec)
    centered = [(v - means[j // k]) % mod for j, v in enumerate(row_values)]
    b, a, ab, aa = channel.triples.take_fixed_mask(rows, k, squares=k)
    centered = Masked(centered, a)
    sq = beaver_mul_batch(party, (centered,), (centered,), (aa,), channel)
    var = scalar_mul_values(party, _row_sums(sq, rows, k), 1.0 / k, codec)
    y = _flooded_rsqrt(party, var, LAYERNORM_EPS, channel, cfg)
    normalized = beaver_mul_batch(party, (centered,), (Masked(y, b),), (ab,),
                                  channel)
    scaled = scalar_mul_values(party, normalized, list(gamma) * rows, codec)
    return add_public_values(party, scaled, list(beta) * rows, codec)


def _run_layer(layer, inputs, cfg: ProtocolConfig, seed: int, **kwargs):
    """layer(party, values, channel=, cfg=, **kwargs) over a fresh session:
    inputs split with Random(seed), dealer at seed + 1, the server's flood
    masks at flood_seed = seed + 2. Returns (decoded outputs, client
    stats, server stats)."""
    def party_fn(party, values, channel):
        return layer(party, values, channel=channel, cfg=cfg, **kwargs)

    return run_session(party_fn, *split_values(inputs, cfg.codec,
                                               random.Random(seed)),
                       DealerState(cfg.codec, seed=seed + 1),
                       flood_seed=seed + 2)


def run_smu_shared(inputs, params: SmuParams, cfg: ProtocolConfig,
                   seed: int = 0):
    """smu_shared_batch at cfg's site over a fresh _run_layer session."""
    return _run_layer(smu_shared_batch, inputs, cfg, seed, params=params)


def run_softmax_star_shared(row, cfg: ProtocolConfig, seed: int = 0,
                            iterations: int = SOFTMAX_NUM[1],
                            row_len: int | None = None):
    """softmax_star_shared over a fresh _run_layer session, at SOFTMAX_NUM
    and SOFTMAX_DEN with iterations as both sites' count. row is flat: one
    row, or rows of row_len."""
    return _run_layer(softmax_star_shared, row, cfg, seed,
                      num=(SOFTMAX_NUM[0], iterations, SOFTMAX_NUM[2]),
                      den=(SOFTMAX_DEN[0], iterations, SOFTMAX_DEN[2]),
                      row_len=row_len)


def run_layernorm_shared(row, gamma, beta, cfg: ProtocolConfig,
                         seed: int = 0, iterations: int = LAYERNORM[1]):
    """layernorm_shared over a fresh _run_layer session, at LAYERNORM with
    iterations as its count. row is flat: one row, or rows of len(gamma)."""
    return _run_layer(layernorm_shared, row,
                      cfg.with_site((LAYERNORM[0], iterations, LAYERNORM[2])),
                      seed, gamma=gamma, beta=beta)
