"""The benchmark's workloads: inputs made from the seed, one call, its check.

Every workload keeps a pool of input sets made before timing starts and
hands them to successive calls in order. Calls past the end of the pool
reuse its sets from the start; the program keeps no state between calls,
so a reused set cannot be served from a cache.
"""

import math
import random

from rootshare import ActivationSampler, ToyEncoderConfig, draw_flood_mask, \
    flood_share, generate_weights, run_shared_rsqrt, toy_encoder_infer
from rootshare.config import DEFAULT_CONFIG

# Criterion 4 (rsqrt elements) and criterion 9 (encoder outputs) of the
# acceptance suite use this tolerance.
TOLERANCE = 1e-2
# Criterion 4 accepts a batch when at least this share of it converges.
RSQRT_MIN_RECOVERY = 0.99


class RsqrtWorkload:
    """`run_shared_rsqrt` over fresh flooded activations, default config,
    in-process transport."""

    op = "rsqrt element"

    def __init__(self, elements, pool):
        self.elements = elements
        self.pool = pool
        self.ops_per_call = elements
        self._dealer_base = 0

    def make_inputs(self, seed):
        cfg = DEFAULT_CONFIG
        rng = random.Random(seed)
        sets = []
        for _ in range(self.pool):
            sampler = ActivationSampler(cfg.sampler_log2_mean,
                                        cfg.sampler_log2_std,
                                        seed=rng.getrandbits(32))
            xs = sampler.sample(self.elements)
            mask_rng = random.Random(rng.getrandbits(32))
            pairs = []
            for x in xs:
                c, s = flood_share(x, draw_flood_mask(cfg.flood, mask_rng),
                                   cfg.codec)
                pairs.append((c.value, s.value))
            sets.append((xs, pairs))
        self._dealer_base = rng.getrandbits(32)
        return sets

    def call(self, inputs, index):
        """One call; returns (outputs, client stats, server stats, extra)."""
        cfg = DEFAULT_CONFIG
        _, pairs = inputs
        ys, stats_c, stats_s = run_shared_rsqrt(
            pairs, cfg.codec, cfg.seed, cfg.newton,
            dealer_seed=self._dealer_base + index)
        return ys, stats_c, stats_s, {}

    def misses(self, inputs, ys):
        """Elements outside the tolerance."""
        xs, _ = inputs
        return sum(1 for x, y in zip(xs, ys)
                   if not abs(y * math.sqrt(x) - 1.0) <= TOLERANCE)

    def failed_ops(self, misses):
        """The seed plus Newton is specified as a recovery rate, not as
        exact per element: a few flooded elements with an unlucky mask
        stay unconverged by design. So a call whose batch meets
        criterion 4 passes every element, and one that misses it fails
        every element."""
        if misses <= (1.0 - RSQRT_MIN_RECOVERY) * self.ops_per_call:
            return 0
        return self.ops_per_call


class EncoderWorkload:
    """`toy_encoder_infer(mode="shared")` over the socket transport, on the
    fixed default weight fixture. `ToyEncoderConfig.seed` stays at its
    default, because `EncoderSites` was frozen for that fixture; the
    workload seed varies only the input rows, drawn as in criterion 9."""

    op = "inference"

    def __init__(self, seq_len, model_dim, ffn_dim, pool):
        self.cfg = ToyEncoderConfig(seq_len=seq_len, model_dim=model_dim,
                                    ffn_dim=ffn_dim)
        self.pool = pool
        self.ops_per_call = 1
        self._weights = None

    def make_inputs(self, seed):
        cfg = self.cfg
        self._weights = generate_weights(cfg)
        rng = random.Random(seed)
        sets = []
        for _ in range(self.pool):
            rows = [[0.8 + 0.4 * rng.random() for _ in range(cfg.model_dim)]
                    for _ in range(cfg.seq_len)]
            want = toy_encoder_infer(cfg, rows, mode="plain",
                                     weights=self._weights)
            sets.append((rows, want))
        return sets

    def call(self, inputs, index):
        rows, _ = inputs
        got, info = toy_encoder_infer(self.cfg, rows, mode="shared",
                                      weights=self._weights,
                                      transport="socket")
        extra = {"encoder.matmul.bytes": info["bytes"]["matmul"],
                 "encoder.nonlinear.bytes": info["bytes"]["nonlinear"]}
        return got, info["client"], info["server"], extra

    def misses(self, inputs, got):
        """1 when the inference is outside the tolerance, else 0."""
        _, want = inputs
        close = all(abs(g - w) <= TOLERANCE
                    for got_row, want_row in zip(got, want)
                    for g, w in zip(got_row, want_row))
        return 0 if close else 1

    def failed_ops(self, misses):
        return misses


def make_workload(name, smoke=False):
    """The named workload, or its tiny form for the smoke check."""
    if name == "rsqrt-10k":
        if smoke:
            return RsqrtWorkload(elements=200, pool=1)
        return RsqrtWorkload(elements=10_000, pool=8)
    if name == "encoder-socket":
        if smoke:
            return EncoderWorkload(8, 8, 16, pool=2)
        return EncoderWorkload(8, 16, 32, pool=16)
    raise KeyError(name)
