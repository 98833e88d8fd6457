"""Baseline cost models, communication reports, and the flooding ablation.

Baselines (table lookup, Taylor seeding, exponential seeding) are analytic
models: published formulas priced in bytes, rounds and multiplications,
never reimplementations. The rootshare rows are counted live off endpoint
counters. Modeled rows price payload only; counted rows include the 4-byte
frame headers, which only handicaps the counted side.
"""

import csv
import math
import random
from dataclasses import dataclass

from .errors import ConfigError, RangeError
from .config import DEFAULT_CONFIG, ProtocolConfig
from .encoder import ToyEncoderConfig, toy_encoder_infer
from .flood import ActivationSampler, adversarial_split, draw_flood_mask, \
    flood_mask, flood_share, shares_from_floats
from .nonlinear import GELU_PARAMS, LAYERNORM, SOFTMAX_DEN, SOFTMAX_NUM, \
    run_layernorm_shared, run_smu_shared, run_softmax_star_shared
from .rsqrt import run_shared_rsqrt


@dataclass(frozen=True)
class LutCostModel:
    """Table-lookup cost: sigma input bits, M entries, alpha output bits.

    Online cost per call is M * alpha + sigma bits; offline setup is
    2^sigma - log2(M) bits per call.
    """

    sigma: int = 16
    entries: int = 1 << 16
    alpha_bits: int = 32

    def __post_init__(self):
        if self.sigma < 1 or self.alpha_bits < 1 or self.entries < 1:
            raise ConfigError("all lookup-table parameters must be positive")
        if self.entries > (1 << self.sigma):
            raise ConfigError(
                f"{self.entries} entries do not fit in {self.sigma} input bits")


def lut_cost(model: LutCostModel, calls: int):
    """(online_bits, offline_bits) for a number of table lookups."""
    if calls < 0:
        raise RangeError("call count must be non-negative")
    if calls == 0:
        return (0, 0)
    online = calls * (model.entries * model.alpha_bits + model.sigma)
    offline = calls * ((1 << model.sigma) - math.log2(model.entries))
    return (online, offline)


# Series of x^(-1/2) about 1: coefficient k is (-1)^k * C(2k, k) / 4^k.
TAYLOR_COEFFS = (1.0, -0.5, 0.375, -0.3125, 0.2734375, -0.24609375,
                 0.2255859375, -0.20947265625)
TAYLOR_HIGH_ORDER = 7


def taylor_seed(x: float, order: int) -> float:
    """Truncated series value; the cost model charges `order` muls."""
    if not 0 <= order < len(TAYLOR_COEFFS):
        raise ConfigError(f"order={order} outside 0..{len(TAYLOR_COEFFS) - 1}")
    if not x > 0:
        raise RangeError(f"taylor_seed needs x > 0, got {x!r}")
    t = x - 1.0
    acc = 0.0
    for c in reversed(TAYLOR_COEFFS[:order + 1]):
        acc = acc * t + c
    return acc


def crypten_seed(x: float) -> float:
    """Exponential-decay seed 2.2 * exp(-x/2 + 1/5) + 1/5."""
    if not x > 0:
        raise RangeError(f"crypten_seed needs x > 0, got {x!r}")
    return 2.2 * math.exp(-0.5 * x + 0.2) + 0.2


def crypten_seed_cost(exp_squarings: int = 8, newton_iters: int = 10) -> int:
    """Multiplication count: limit-form exponential (repeated squaring)
    plus the default Newton budget at three muls per iteration."""
    return exp_squarings + 3 * newton_iters


def count_rsqrt_element_bytes() -> int:
    """Per-party online bytes (headers included) for one flooded shared
    rsqrt element at the default config, x = 3.1 behind the mask at 3.098."""
    cfg = DEFAULT_CONFIG
    share_c, share_s = flood_share(3.1, flood_mask(3.098, cfg.flood.F),
                                   cfg.codec)
    _, stats_c, stats_s = run_shared_rsqrt(
        [(share_c.value, share_s.value)], cfg.codec, cfg.seed, cfg.newton)
    return max(stats_c.bytes_sent, stats_s.bytes_sent)


@dataclass(frozen=True)
class ReportRow:
    scenario: str
    method: str
    kind: str          # counted | modeled
    unit: str          # element | row | run
    online_bytes: float
    rounds: float | None
    muls: float | None


REPORT_SCENARIOS = ("activation", "softmax", "layernorm", "end2end")
REPORT_COLUMNS = ("scenario", "method", "kind", "unit", "online_bytes",
                  "rounds", "muls")


def comm_report(scenario: str, cfg: ProtocolConfig = DEFAULT_CONFIG,
                lut: LutCostModel = LutCostModel(), row_len: int = 8,
                seed: int = 0):
    """Rows of (method, counted-or-modeled, bytes, rounds, muls).

    rootshare rows come off live counters; baseline rows price the
    non-linear work with their published formulas. Lookup-table parameters
    never enter a counted row, so counted bytes are invariant in them.
    """
    if row_len < 1:
        raise ConfigError(f"row length {row_len} must be at least 1")
    n = cfg.newton.iterations

    def counted(unit, run, muls, per=1):
        # the busier party's counters of a (outputs, client, server) run
        _, st_c, st_s = run
        return ReportRow(scenario, "rootshare", "counted", unit,
                         max(st_c.bytes_sent, st_s.bytes_sent) / per,
                         max(st_c.rounds, st_s.rounds), muls)

    def lut_row(unit, calls, rounds, muls):
        return ReportRow(scenario, "lut", "modeled", unit,
                         lut_cost(lut, calls)[0] / 8, rounds, muls)

    def beaver(method, unit, muls, rounds):
        # one masked opening of two ring elements per party per product
        return ReportRow(scenario, method, "modeled", unit,
                         muls * 2 * cfg.codec.element_bytes, rounds, muls)

    c_muls = crypten_seed_cost()
    if scenario == "activation":
        inputs = [0.4 + 0.35 * i for i in range(row_len)]
        t_muls = TAYLOR_HIGH_ORDER + 3 * n
        return [counted("element", run_smu_shared(inputs, GELU_PARAMS, cfg,
                                                  seed=seed),
                        1 + 3 * n, row_len),
                lut_row("element", 1, 1, 0),
                beaver("taylor", "element", t_muls, t_muls),
                beaver("crypten", "element", c_muls, c_muls)]
    if scenario == "softmax":
        rng = random.Random(seed)
        row = [rng.gauss(1.5, 0.8) for _ in range(row_len)]
        muls = (row_len * (1 + 3 * SOFTMAX_NUM[1])
                + (1 + 3 * SOFTMAX_DEN[1]) + row_len)
        c_muls = 8 * row_len + 3 * 10
        return [counted("row", run_softmax_star_shared(row, cfg, seed=seed),
                        muls),
                lut_row("row", row_len + 1, 2, 0),
                beaver("crypten", "row", c_muls, c_muls)]
    if scenario == "layernorm":
        rng = random.Random(seed)
        row = [rng.gauss(0.0, 1.0) for _ in range(row_len)]
        # at the counted row's Newton budget
        t_muls = TAYLOR_HIGH_ORDER + 3 * LAYERNORM[1]
        return [counted("row", run_layernorm_shared(
                    row, [1.0] * row_len, [0.0] * row_len, cfg, seed=seed),
                        2 * row_len + 3 * LAYERNORM[1]),
                lut_row("row", 1, 1, 0),
                beaver("taylor", "row", t_muls, t_muls),
                beaver("crypten", "row", c_muls, c_muls)]
    if scenario == "end2end":
        enc_cfg = ToyEncoderConfig()
        rng = random.Random(seed)
        x = [[0.8 + 0.4 * rng.random() for _ in range(enc_cfg.model_dim)]
             for _ in range(enc_cfg.seq_len)]
        _, info = toy_encoder_infer(enc_cfg, x, mode="shared", protocol=cfg)
        rows = [ReportRow(scenario, f"rootshare-{bucket}", "counted", "run",
                          info["bytes"][bucket],
                          info["rounds"] if bucket == "total" else None, None)
                for bucket in ("nonlinear", "matmul", "total")]
        calls = info["rsqrt_elements"]
        return rows + [lut_row("run", calls, None, None),
                       beaver("crypten", "run", calls * c_muls, None)]
    raise ConfigError(f"unknown scenario {scenario!r}; "
                      f"expected one of {REPORT_SCENARIOS}")


def write_report_csv(rows, path: str):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in rows:
            writer.writerow([
                r.scenario, r.method, r.kind, r.unit,
                f"{r.online_bytes:.1f}",
                "" if r.rounds is None else r.rounds,
                "" if r.muls is None else r.muls,
            ])


@dataclass(frozen=True)
class AblationRow:
    arm: str
    gap: int
    trials: int
    converged: int
    rate: float


def flood_ablation(gap: int = 6, trials: int = 200,
                   cfg: ProtocolConfig = DEFAULT_CONFIG, seed: int = 7):
    """Convergence with and without flooding on identical inputs.

    Each trial draws one activation; the with-flood arm splits it behind a
    flooded mask, the without-flood arm splits it adversarially at the
    requested exponent gap. Both arms run the same codec, seed constants,
    and iteration budget, but not the same seed conversion: the with-flood
    arm converts its seed bits locally, the without-flood arm pays one
    masked opening. A trial converges within 1e-2 relative error.
    """
    if gap < 0:
        raise ConfigError("gap must be non-negative")
    if trials < 1:
        raise ConfigError("trials must be positive")
    codec = cfg.codec
    sampler = ActivationSampler(cfg.sampler_log2_mean, cfg.sampler_log2_std,
                                seed=seed)
    xs = sampler.sample(trials)
    rng = random.Random(seed + 1)
    rows = []
    for arm in ("with-flood", "without-flood"):
        pairs = []
        flooded = arm == "with-flood"
        for x in xs:
            if flooded:
                mask = draw_flood_mask(cfg.flood, rng)
                c, sv = flood_share(x, mask, codec)
            else:
                fc, mask = adversarial_split(x, gap, rng)
                c, sv = shares_from_floats(fc, mask, codec)
            pairs.append((c.value, sv.value))
        results, _, _ = run_shared_rsqrt(pairs, codec, cfg.seed, cfg.newton,
                                         dealer_seed=seed + 2, flooded=flooded)
        converged = sum(
            1 for x, y in zip(xs, results)
            if abs(y * math.sqrt(x) - 1.0) <= 1e-2)
        rows.append(AblationRow(arm, gap, trials, converged,
                                converged / trials))
    return rows
