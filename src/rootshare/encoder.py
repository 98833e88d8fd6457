"""A toy encoder block, in plain floats and on additive shares, with its
seeded fixture weights and their CSV form.

The shared pass runs each attention stage once for all heads: one matrix
round for every Q_h K_h^T, one softmax* call over every head's score
rows and one round for every attention times V_h, so its rounds do not
grow with the head count. The plain pass, the reference, loops over heads.
"""

import csv
import math
import random
from dataclasses import dataclass
from functools import reduce
from operator import add, mul

from .errors import ConfigError, UsageError
from .config import DEFAULT_CONFIG, ProtocolConfig, Site
from .nonlinear import GELU_PARAMS, add_public_values, layernorm_plain, \
    layernorm_shared, scalar_mul_values, smu_plain, smu_shared_batch, \
    softmax_star_plain, softmax_star_shared
from .ring import CLIENT, DealerState, matmul_shared, run_session, \
    split_values


@dataclass(frozen=True)
class ToyEncoderConfig:
    seq_len: int = 8
    model_dim: int = 16
    ffn_dim: int = 32
    heads: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("seq_len", "model_dim", "ffn_dim", "heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.model_dim % self.heads:
            raise ConfigError(
                f"heads={self.heads} must divide model_dim={self.model_dim}")


# log2 band of the rsqrt input at each encoder site: min and max, rounded to
# two decimals, over plain passes of the default fixture (seq 8, dim 16,
# ffn 32, 1 head) on the 6,400 input sets of perfbench's encoder pools at
# seeds 0-399, 16 sets of 8 rows of 16 draws 0.8 + 0.4 U from each
# random.Random(seed).
ENCODER_SITE_BANDS = {
    "softmax_num": (2.63, 3.93),
    "softmax_den": (4.44, 4.83),
    "ffn": (1.78, 2.25),
    "ln1": (-8.38, -4.83),
    "ln2": (-0.26, 0.20),
}


@dataclass(frozen=True)
class EncoderSites:
    """One Site, (E_m, Newton iterations, seed slope), for each of the
    encoder's inverse-sqrt sites.

    Each site's flooded seed is the line y0 - slope * x, whose level E_m
    sets. Each site's line covers its band in ENCODER_SITE_BANDS: at the
    1/8-octave points from 1/8 octave below the band to 1/8 above it,
    flooded inverse square roots stay within 1e-2 of 1/sqrt(x). A slope
    saves an iteration where a flat seed at any E_m within 3 misses at the
    same count. The softmax denominator's band moves with seq_len, and
    layernorm 2 feeds the output, so both keep a flat seed. The slopes,
    fitted when the client's truncation rounded, still cover their bands
    under ring._truncate's floor-and-ceiling rule.
    """

    softmax_num: Site = (128.64, 3, 0.008)
    softmax_den: Site = (132, 4, 0.0)
    ffn: Site = (127.24, 2, 0.0358)
    ln1: Site = (118.47, 4, 227.0)
    ln2: Site = (126, 3, 0.0)


def _weight_shapes(cfg: ToyEncoderConfig):
    d, f = cfg.model_dim, cfg.ffn_dim
    return {
        "wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d),
        "w1": (d, f), "b1": (f, 1), "w2": (f, d), "b2": (d, 1),
        "ln1_gamma": (d, 1), "ln1_beta": (d, 1),
        "ln2_gamma": (d, 1), "ln2_beta": (d, 1),
    }


def generate_weights(cfg: ToyEncoderConfig):
    """Seeded fixture weights scaled so every non-linear call site sees
    activations inside its expected-magnitude band at desk scale."""
    rng = random.Random(cfg.seed)
    scale = 16.0 / cfg.model_dim
    shapes = _weight_shapes(cfg)
    bands = {"wq": (0.03, 0.08), "wk": (0.03, 0.08), "wv": (0.05, 0.10),
             "wo": (0.05, 0.10), "w1": (0.015, 0.035), "w2": (0.02, 0.05)}
    weights = {}
    for name, (m, n) in shapes.items():
        count = m * n
        if name in bands:
            lo, hi = bands[name]
            weights[name] = [rng.uniform(lo, hi) * scale for _ in range(count)]
        elif name == "b1":
            weights[name] = [1.9 + rng.uniform(-0.1, 0.1) for _ in range(count)]
        elif name == "b2":
            weights[name] = [rng.uniform(-0.05, 0.05) for _ in range(count)]
        elif name.endswith("gamma"):
            weights[name] = [1.0] * count
        else:
            weights[name] = [0.0] * count
    return weights


def save_weights_csv(path: str, weights: dict, cfg: ToyEncoderConfig):
    shapes = _weight_shapes(cfg)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("name", "i", "j", "value"))
        for name, (m, n) in shapes.items():
            flat = weights[name]
            for i in range(m):
                for j in range(n):
                    writer.writerow((name, i, j, repr(flat[i * n + j])))


def load_weights_csv(path: str, cfg: ToyEncoderConfig):
    shapes = _weight_shapes(cfg)
    weights = {name: [None] * (m * n) for name, (m, n) in shapes.items()}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["name", "i", "j", "value"]:
            raise ConfigError(f"{path}: expected header name,i,j,value")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ConfigError(f"{path}:{lineno}: expected 4 columns")
            name, i_s, j_s, v_s = row
            if name not in shapes:
                raise ConfigError(f"{path}:{lineno}: unknown weight {name!r}")
            m, n = shapes[name]
            try:
                i, j, v = int(i_s), int(j_s), float(v_s)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad indices or value")
            if not (0 <= i < m and 0 <= j < n):
                raise ConfigError(f"{path}:{lineno}: index out of range")
            if not math.isfinite(v):
                raise ConfigError(f"{path}:{lineno}: non-finite value {v_s}")
            if weights[name][i * n + j] is not None:
                raise ConfigError(f"{path}:{lineno}: repeated {name},{i},{j}")
            weights[name][i * n + j] = v
    for name, flat in weights.items():
        if any(v is None for v in flat):
            raise ConfigError(f"{path}: incomplete weight matrix {name!r}")
    return weights


def _mat_mul(a, b, m, k, n):
    """Row-major m x k times k x n, each sum taken in order from 0.0."""
    return [reduce(add, map(mul, a[i * k:(i + 1) * k], b[j::n]), 0.0)
            for i in range(m) for j in range(n)]


def _transpose(a, m, n):
    return [a[i * n + j] for j in range(n) for i in range(m)]


def _wqkv(weights, d):
    """[wq | wk | wv], d x 3d: x times it is every head's Q, K and V."""
    return [v for i in range(d) for name in ("wq", "wk", "wv")
            for v in weights[name][i * d:(i + 1) * d]]


def _heads(qkv, cfg: ToyEncoderConfig, part: int):
    """Each head's s x dh block of part 0 (Q), 1 (K) or 2 (V) of the
    s x 3d matrix qkv, in head order."""
    d, dh = cfg.model_dim, cfg.model_dim // cfg.heads
    return [[qkv[i * 3 * d + j] for i in range(cfg.seq_len)
             for j in range(j0, j0 + dh)]
            for j0 in range(part * d, (part + 1) * d, dh)]


def _merge_heads(blocks, s, d):
    """The s x d matrix of s x dh blocks laid side by side."""
    dh = d // len(blocks)
    return [blocks[j // dh][i * dh + j % dh] for i in range(s)
            for j in range(d)]


def _by_row(fn, flat, k, *args):
    """fn(row, *args) for each row of k values of flat, concatenated."""
    return [v for i in range(0, len(flat), k)
            for v in fn(flat[i:i + k], *args)]


def _encoder_plain(cfg: ToyEncoderConfig, x_rows, weights):
    s, d, f = cfg.seq_len, cfg.model_dim, cfg.ffn_dim
    dh = d // cfg.heads
    inv = 1.0 / math.sqrt(dh)
    x = [v for row in x_rows for v in row]
    qkv = _mat_mul(x, _wqkv(weights, d), s, d, 3 * d)
    ctx = []
    for q, k, v in zip(*(_heads(qkv, cfg, part) for part in range(3))):
        scores = [c * inv for c in _mat_mul(q, _transpose(k, s, dh),
                                            s, dh, s)]
        ctx.append(_mat_mul(_by_row(softmax_star_plain, scores, s), v,
                            s, s, dh))
    attn = _mat_mul(_merge_heads(ctx, s, d), weights["wo"], s, d, d)
    h1 = _by_row(layernorm_plain, [a + b for a, b in zip(x, attn)], d,
                 weights["ln1_gamma"], weights["ln1_beta"])
    pre = _mat_mul(h1, weights["w1"], s, d, f)
    act = [smu_plain(p + weights["b1"][t % f], GELU_PARAMS)
           for t, p in enumerate(pre)]
    f2 = _mat_mul(act, weights["w2"], s, f, d)
    h2 = [a + (f2[t] + weights["b2"][t % d]) for t, a in enumerate(h1)]
    out = _by_row(layernorm_plain, h2, d, weights["ln2_gamma"],
                  weights["ln2_beta"])
    return [out[i * d:(i + 1) * d] for i in range(s)]


def _encoder_shared(cfg: ToyEncoderConfig, x_rows, weights,
                    protocol: ProtocolConfig, transport: str):
    s, d, f = cfg.seq_len, cfg.model_dim, cfg.ffn_dim
    sites = EncoderSites()
    dh = d // cfg.heads
    codec = protocol.codec
    rng = random.Random(cfg.seed + 101)

    x = [v for row in x_rows for v in row]
    if len(x_rows) != s or any(len(row) != d for row in x_rows):
        raise UsageError(f"input must be {s} rows of {d} values")
    # one matmul by [wq | wk | wv] opens x once for all three
    halves = {"x": split_values(x, codec, rng),
              "wqkv": split_values(_wqkv(weights, d), codec, rng)}
    for name in ("wo", "w1", "w2"):
        halves[name] = split_values(weights[name], codec, rng)

    dealer = DealerState(codec, seed=cfg.seed + 202)
    matmul_bytes = {}
    rsqrt_elements = {}

    def party_fn(party, w, channel):
        matmul_bytes[party] = 0
        mod = codec.modulus

        def mm(*products):
            """Every (A, B, (m, k, n)) product in one round, a triple
            each, in order; one output list per product."""
            before = channel.stats().bytes_sent
            out = matmul_shared(party, [(a, b,
                                         channel.triples.take_matrix(*shape),
                                         shape) for a, b, shape in products],
                                channel)
            matmul_bytes[party] += channel.stats().bytes_sent - before
            return out

        (qkv,) = mm((w["x"], w["wqkv"], (s, d, 3 * d)))
        q, k, v = (_heads(qkv, cfg, part) for part in range(3))
        # every head's s x s scores, head after head: heads * s rows of s
        scores = mm(*((qh, _transpose(kh, s, dh), (s, dh, s))
                      for qh, kh in zip(q, k)))
        scores = scalar_mul_values(party, [c for sc in scores for c in sc],
                                   1.0 / math.sqrt(dh), codec)
        att = softmax_star_shared(party, scores, channel, protocol,
                                  sites.softmax_num, sites.softmax_den, s)
        ctx = mm(*((att[h * s * s:(h + 1) * s * s], vh, (s, s, dh))
                   for h, vh in enumerate(v)))
        (attn,) = mm((_merge_heads(ctx, s, d), w["wo"], (s, d, d)))
        h0 = [(a + b) % mod for a, b in zip(w["x"], attn)]
        h1 = layernorm_shared(party, h0, weights["ln1_gamma"],
                              weights["ln1_beta"], channel,
                              protocol.with_site(sites.ln1))
        (pre,) = mm((h1, w["w1"], (s, d, f)))
        pre = add_public_values(party, pre, weights["b1"] * s, codec)
        act = smu_shared_batch(party, pre, GELU_PARAMS, channel,
                               protocol.with_site(sites.ffn))
        (f2,) = mm((act, w["w2"], (s, f, d)))
        f2 = add_public_values(party, f2, weights["b2"] * s, codec)
        h2 = [(a + b) % mod for a, b in zip(h1, f2)]
        out = layernorm_shared(party, h2, weights["ln2_gamma"],
                               weights["ln2_beta"], channel,
                               protocol.with_site(sites.ln2))
        # one zero share per inverse-sqrt element, and none elsewhere
        rsqrt_elements[party] = sum(kind[1] for kind in channel.triples.kinds
                                    if kind[0] == "zero")
        return out

    flat, stats_c, stats_s = run_session(
        party_fn, {name: pair[0] for name, pair in halves.items()},
        {name: pair[1] for name, pair in halves.items()}, dealer, transport,
        flood_seed=cfg.seed + 303)
    rows = [flat[i * d:(i + 1) * d] for i in range(s)]
    total = stats_c.bytes_sent + stats_s.bytes_sent
    matmul = sum(matmul_bytes.values())
    info = {
        "client": stats_c,
        "server": stats_s,
        # every frame outside mm comes from a non-linear layer
        "bytes": {"matmul": matmul, "nonlinear": total - matmul,
                  "total": total},
        "rounds": max(stats_c.rounds, stats_s.rounds),
        # the session checks that both parties took the same batches
        "rsqrt_elements": rsqrt_elements[CLIENT],
    }
    return rows, info


def toy_encoder_infer(cfg: ToyEncoderConfig, x_rows, mode: str = "plain",
                      protocol: ProtocolConfig = DEFAULT_CONFIG,
                      weights: dict | None = None,
                      transport: str = "inproc"):
    """One encoder block: attention with normalized positive weights,
    residual + layernorm, smooth-unit FFN, residual + layernorm.

    plain mode returns the float reference rows. shared mode runs the same
    network on additive shares and returns (rows, info) where info carries
    per-bucket byte counts, rounds, and the inverse-sqrt element count.
    weights defaults to generate_weights(cfg). Each inverse-sqrt site runs
    at its EncoderSites (E_m, iterations, slope) in place of protocol's.
    cfg.seed fixes the input split, the dealer and the flood masks, so two
    shared calls with one cfg reuse every mask, and a party that sees both
    calls' openings learns the difference of their inputs.
    """
    if weights is None:
        weights = generate_weights(cfg)
    if mode == "plain":
        return _encoder_plain(cfg, x_rows, weights)
    if mode == "shared":
        return _encoder_shared(cfg, x_rows, weights, protocol, transport)
    raise ConfigError(f"unknown mode {mode!r}; expected plain or shared")
