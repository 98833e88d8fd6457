"""Smooth-maximum-unit layers on shares: s-GeLU, normalized positive
attention weights, and layer normalization.

Every non-linearity here reduces to one primitive chain: square locally
via one multiplication, add a public constant, re-flood, take the shared
inverse square root, multiply back. The seed of the inverse square root
is the only step that ever inspects value magnitudes, and flooding pins
those magnitudes to a public constant, so per-call-site tuning reduces to
choosing the expected-magnitude exponent and an iteration budget.
"""

import math
import random
from dataclasses import dataclass

from .errors import ConfigError, UsageError
from .config import ProtocolConfig
from .flood import flood_reshare_batch
from .ring import SERVER, DealerState, FixedPointCodec, beaver_mul_batch, \
    run_session, split_values, truncate_local
from .rsqrt import rsqrt_shared_batch

S_FLOOR = 2.0 ** -12
SOFTMAX_EPS = 2.0 ** -12
LAYERNORM_EPS = 1e-5

SOFTMAX_ITERATIONS = 16
SOFTMAX_NUM_E_M = 130
SOFTMAX_DEN_E_M = 131
LAYERNORM_E_M = 127
LAYERNORM_ITERATIONS = 8


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


def softmax_plain(row):
    shift = max(row)
    exps = [math.exp(v - shift) for v in row]
    total = sum(exps)
    return [v / total for v in exps]


def softmax_star_plain(row, eps: float = SOFTMAX_EPS):
    """Normalized positive weights: relu(x_i) / (sum relu + eps)."""
    r = [relu_plain(v) for v in row]
    d = sum(r) + eps
    return [v / d for v in r]


def layernorm_plain(row, gamma, beta, eps: float = LAYERNORM_EPS):
    k = len(row)
    mean = sum(row) / k
    var = sum((v - mean) ** 2 for v in row) / k
    inv = 1.0 / math.sqrt(var + eps)
    return [g * (v - mean) * inv + b for v, g, b in zip(row, gamma, beta)]


def scalar_mul_values(party: str, values, coef, codec: FixedPointCodec):
    """Multiply shares by public reals, one truncation per element.

    coef is either one float applied across the batch or a per-element
    list. Costs nothing: public-by-shared products stay local.
    """
    if isinstance(coef, (int, float)):
        coef = [float(coef)] * len(values)
    if len(coef) != len(values):
        raise UsageError("coefficient list length mismatch")
    return truncate_local(party, [v * codec.encode(c)
                                  for v, c in zip(values, coef)], codec)


def add_public_values(party: str, values, const, codec: FixedPointCodec):
    """Add public reals to shares; only the server's half moves."""
    if isinstance(const, (int, float)):
        const = [float(const)] * len(values)
    if len(const) != len(values):
        raise UsageError("constant list length mismatch")
    if party != SERVER:
        return list(values)
    mod = codec.modulus
    return [(v + codec.encode(c)) % mod for v, c in zip(values, const)]


def smu_shared_batch(party: str, values, params: SmuParams, channel,
                     cfg: ProtocolConfig, triples, rng=None):
    """Smooth maximum unit on a batch of shares.

    Chain: t = x^2 (one multiplication), s = (1-alpha) t + max(mu^2, 2^-12)
    added server side, re-flood s, y = rsqrt(s) at this call site's seed
    configuration, w = s * y = sqrt(s), out = (1+alpha)/2 x + w/2. The
    additive floor keeps s strictly positive where mu = 0 would let the
    shared inverse square root see zero; it perturbs the exact unit by at
    most 2^-7 near the kink. Total multiplications: 2 + 3 * iterations.
    """
    codec = cfg.codec
    sq = beaver_mul_batch(party, values, values, triples.take(len(values)),
                          channel, codec)
    if params.alpha != 0.0:
        sq = scalar_mul_values(party, sq, 1.0 - params.alpha, codec)
    floor = max(params.mu * params.mu, S_FLOOR)
    s = add_public_values(party, sq, floor, codec)
    s = flood_reshare_batch(party, s, channel, codec, cfg.flood, rng)
    y = rsqrt_shared_batch(party, s, channel, codec, cfg.seed, cfg.newton,
                           triples, flooded=True)
    w = beaver_mul_batch(party, s, y, triples.take(len(values)), channel, codec)
    half_w = scalar_mul_values(party, w, 0.5, codec)
    ax = scalar_mul_values(party, values, 0.5 * (1.0 + params.alpha), codec)
    mod = codec.modulus
    return [(a + b) % mod for a, b in zip(ax, half_w)]


def softmax_star_shared(party: str, row_values, channel,
                        cfg: ProtocolConfig, triples, rng=None,
                        num_E_m: int = SOFTMAX_NUM_E_M,
                        den_E_m: int = SOFTMAX_DEN_E_M,
                        iterations: int = SOFTMAX_ITERATIONS):
    """Attention-style normalization of one row of shares.

    Numerator: ReLU-preset smooth unit per element. Denominator: their sum
    plus a public epsilon, inverted by squaring the shared inverse square
    root (1/d = rsqrt(d)^2, one extra multiplication), then one product
    per element. The epsilon bounds the output-sum deficit by eps/d.
    """
    codec = cfg.codec
    num_cfg = cfg.with_site(E_m=num_E_m, iterations=iterations)
    den_cfg = cfg.with_site(E_m=den_E_m, iterations=iterations)
    r = smu_shared_batch(party, row_values, RELU_PARAMS, channel, num_cfg,
                         triples, rng)
    mod = codec.modulus
    d = 0
    for v in r:
        d = (d + v) % mod
    d = add_public_values(party, [d], SOFTMAX_EPS, codec)
    d = flood_reshare_batch(party, d, channel, codec, den_cfg.flood, rng)
    y = rsqrt_shared_batch(party, d, channel, codec, den_cfg.seed,
                           den_cfg.newton, triples, flooded=True)
    inv = beaver_mul_batch(party, y, y, triples.take(1), channel, codec)
    inv_row = inv * len(r)
    return beaver_mul_batch(party, r, inv_row, triples.take(len(r)),
                            channel, codec)


def layernorm_shared(party: str, row_values, gamma, beta, channel,
                     cfg: ProtocolConfig, triples, rng=None,
                     E_m: int = LAYERNORM_E_M,
                     iterations: int = LAYERNORM_ITERATIONS,
                     eps: float = LAYERNORM_EPS):
    """Layer normalization of one row of shares with public gamma, beta.

    Mean and centering are free (affine). The k squares cost one batched
    multiplication, the variance inverse root runs flooded at this site's
    expected exponent, and one more batched multiplication normalizes.
    """
    codec = cfg.codec
    k = len(row_values)
    if len(gamma) != k or len(beta) != k:
        raise UsageError("gamma and beta must match the row length")
    site = cfg.with_site(E_m=E_m, iterations=iterations)
    mod = codec.modulus
    total = 0
    for v in row_values:
        total = (total + v) % mod
    mean = scalar_mul_values(party, [total], 1.0 / k, codec)[0]
    centered = [(v - mean) % mod for v in row_values]
    sq = beaver_mul_batch(party, centered, centered, triples.take(k),
                          channel, codec)
    var_total = 0
    for v in sq:
        var_total = (var_total + v) % mod
    var = scalar_mul_values(party, [var_total], 1.0 / k, codec)
    var = add_public_values(party, var, eps, codec)
    var = flood_reshare_batch(party, var, channel, codec, site.flood, rng)
    y = rsqrt_shared_batch(party, var, channel, codec, site.seed,
                           site.newton, triples, flooded=True)
    normalized = beaver_mul_batch(party, centered, y * k, triples.take(k),
                                  channel, codec)
    scaled = scalar_mul_values(party, normalized, list(gamma), codec)
    return add_public_values(party, scaled, list(beta), codec)


def _flood_rng(party: str, seed: int):
    """The server's reshare masks in a run_*_shared session."""
    return random.Random(seed + 2) if party == SERVER else None


def run_smu_shared(inputs, params: SmuParams, cfg: ProtocolConfig,
                   seed: int = 0, transport: str = "inproc"):
    """smu_shared_batch over a fresh session: inputs split with
    Random(seed), dealer at seed + 1, reshares at seed + 2. Returns
    (decoded outputs, client stats, server stats)."""
    def layer(party, values, channel, triples):
        return smu_shared_batch(party, values, params, channel, cfg, triples,
                                _flood_rng(party, seed))

    return run_session(layer, *split_values(inputs, cfg.codec,
                                            random.Random(seed)),
                       DealerState(cfg.codec, seed=seed + 1), transport)


def run_softmax_star_shared(row, cfg: ProtocolConfig, seed: int = 0,
                            transport: str = "inproc",
                            num_E_m: int = SOFTMAX_NUM_E_M,
                            den_E_m: int = SOFTMAX_DEN_E_M,
                            iterations: int = SOFTMAX_ITERATIONS):
    """softmax_star_shared over a fresh session, seeded as run_smu_shared."""
    def layer(party, values, channel, triples):
        return softmax_star_shared(party, values, channel, cfg, triples,
                                   _flood_rng(party, seed), num_E_m, den_E_m,
                                   iterations)

    return run_session(layer, *split_values(row, cfg.codec,
                                            random.Random(seed)),
                       DealerState(cfg.codec, seed=seed + 1), transport)


def run_layernorm_shared(row, gamma, beta, cfg: ProtocolConfig,
                         seed: int = 0, transport: str = "inproc",
                         E_m: int = LAYERNORM_E_M,
                         iterations: int = LAYERNORM_ITERATIONS):
    """layernorm_shared over a fresh session, seeded as run_smu_shared."""
    def layer(party, values, channel, triples):
        return layernorm_shared(party, values, gamma, beta, channel, cfg,
                                triples, _flood_rng(party, seed), E_m,
                                iterations)

    return run_session(layer, *split_values(row, cfg.codec,
                                            random.Random(seed)),
                       DealerState(cfg.codec, seed=seed + 1), transport)
