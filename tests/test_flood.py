"""Flood masks, flooded share geometry, adversarial splits, and the
synthetic activation sampler."""

import math
import random

import pytest

from conftest import chi2_uniform_stat
from rootshare.errors import (ConfigError, ConstructionError, RangeError,
                              UsageError)
from rootshare.flood import (ActivationSampler, FloodConfig,
                             adversarial_split, draw_flood_mask, flood_mask,
                             flood_reshare_batch, flood_share,
                             shares_from_floats)
from rootshare.floatbits import decompose
from rootshare.ring import CLIENT, SERVER, FixedPointCodec, RingShare, reconstruct
from rootshare.transport import open_inproc, run_pair


def test_flood_mask_worked_values():
    assert flood_mask(3.098) == 8195.098
    assert flood_mask(0.0) == 8192.0
    assert flood_mask(-3.0) == 8189.0


def test_flood_mask_rejects_large_offset():
    with pytest.raises(ConfigError):
        flood_mask(4096.0)
    with pytest.raises(ConfigError):
        flood_mask(-5000.0)


def test_flood_config_validation():
    FloodConfig()
    with pytest.raises(ConfigError):
        FloodConfig(mask_spread=0.0)
    with pytest.raises(ConfigError):
        FloodConfig(mask_spread=5000.0)   # must stay below F/2


def test_mask_exponent_field_sweep():
    # every legal mask keeps a biased exponent of 139 or 140
    cfg = FloodConfig()
    rng = random.Random(17)
    seen = set()
    for _ in range(20_000):
        mask = draw_flood_mask(cfg, rng)
        assert cfg.F - cfg.mask_spread <= mask <= cfg.F + cfg.mask_spread
        seen.add(decompose(mask).E)
    assert seen == {139, 140}


def test_flood_share_worked_pair():
    codec = FixedPointCodec()
    c, s = flood_share(3.1, 8195.098, codec)
    assert c.party == CLIENT and s.party == SERVER
    assert codec.decode(c.value) == pytest.approx(-8191.998, abs=2 ** -15)
    assert codec.decode(s.value) == pytest.approx(8195.098, abs=2 ** -15)
    assert reconstruct(c, s, codec) == pytest.approx(3.1, abs=2 ** -15)


def test_flood_share_of_zero():
    codec = FixedPointCodec()
    c, s = flood_share(0.0, 8192.0, codec)
    assert codec.decode(c.value) == -8192.0
    assert codec.decode(s.value) == 8192.0


def test_flood_share_reconstruction_property():
    codec = FixedPointCodec()
    cfg = FloodConfig()
    rng = random.Random(18)
    for _ in range(500):
        x = rng.uniform(-60, 60)
        c, s = flood_share(x, draw_flood_mask(cfg, rng), codec)
        assert abs(reconstruct(c, s, codec) - x) <= 2.0 ** -codec.f


def test_flooded_exponent_gap_at_most_one():
    # both share magnitudes sit within one octave for sampled activations
    codec = FixedPointCodec()
    cfg = FloodConfig()
    rng = random.Random(19)
    sampler = ActivationSampler(seed=20)
    worst = 0
    for x in sampler.sample(100_000):
        mask = draw_flood_mask(cfg, rng)
        c, s = flood_share(x, mask, codec)
        gap = abs(decompose(codec.decode(c.value)).E
                  - decompose(codec.decode(s.value)).E)
        worst = max(worst, gap)
    assert worst <= 1


def test_flooding_guarantee_rate():
    # the gap <= 5 event must hold essentially always under the sampler
    codec = FixedPointCodec()
    cfg = FloodConfig()
    rng = random.Random(21)
    sampler = ActivationSampler(seed=22)
    hits = 0
    n = 20_000
    for x in sampler.sample(n):
        c, s = flood_share(x, draw_flood_mask(cfg, rng), codec)
        gap = abs(decompose(codec.decode(c.value)).E
                  - decompose(codec.decode(s.value)).E)
        hits += gap <= 5
    assert hits / n >= 0.999


def test_client_exponent_leaks_nothing_but_sign():
    # two-sample test: exponent-field histograms for different small inputs
    codec = FixedPointCodec()
    cfg = FloodConfig()

    def exponent_counts(x, seed, n=60_000):
        rng = random.Random(seed)
        out = {}
        for _ in range(n):
            c, _ = flood_share(x, draw_flood_mask(cfg, rng), codec)
            e = decompose(codec.decode(c.value)).E
            out[e] = out.get(e, 0) + 1
        return out

    ca = exponent_counts(0.7, 21)
    cb = exponent_counts(-0.3, 22)
    bins = sorted(set(ca) | set(cb))
    na, nb = sum(ca.values()), sum(cb.values())
    stat = 0.0
    for e in bins:
        a, b = ca.get(e, 0), cb.get(e, 0)
        ea = (a + b) * na / (na + nb)
        eb = (a + b) * nb / (na + nb)
        stat += (a - ea) ** 2 / ea + (b - eb) ** 2 / eb
    # upper 1% point of chi-square with len(bins)-1 = 1 degree of freedom
    assert stat < 6.635


def test_adversarial_split_hits_exact_gap():
    rng = random.Random(23)
    for gap in (0, 1, 3, 6, 10, 11):
        fc, mask = adversarial_split(3.1, gap, rng)
        # both halves live on the binary32 grid, so the sum reconstructs
        # the input to single precision only
        assert fc + mask == pytest.approx(3.1, abs=1e-5)
        assert abs(decompose(mask).E - decompose(fc).E) == gap


def test_adversarial_split_worked_close_pair():
    # a mask just below the input leaves a tiny counterpart about 2^-9
    rng = random.Random(24)
    fc, mask = adversarial_split(3.1, 11, rng)
    assert 0 < abs(fc) < 0.004
    assert 3.0 < mask < 3.2


def test_adversarial_split_infeasible_gap():
    with pytest.raises(ConstructionError):
        adversarial_split(3.1, 40, random.Random(25))
    with pytest.raises(ConstructionError):
        adversarial_split(3.1, -1, random.Random(25))
    with pytest.raises(ConstructionError):
        adversarial_split(0.0, 3, random.Random(25))


def test_shares_from_floats_reconstruct():
    codec = FixedPointCodec()
    c, s = shares_from_floats(-0.4, 3.5, codec)
    assert reconstruct(c, s, codec) == pytest.approx(3.1, abs=2 ** -15)


def test_sampler_tail_bound():
    sampler = ActivationSampler(seed=26)
    values = sampler.sample(200_000)
    assert all(v > 0 for v in values)
    big = sum(1 for v in values if v > 2.0 ** 6)
    assert big / len(values) < 1e-4


def test_sampler_is_seeded():
    assert ActivationSampler(seed=1).sample(5) == ActivationSampler(seed=1).sample(5)
    assert ActivationSampler(seed=1).sample(5) != ActivationSampler(seed=2).sample(5)


def test_flood_reshare_preserves_value_and_floods_server():
    codec = FixedPointCodec()
    cfg = FloodConfig()
    rng = random.Random(27)
    xs = [rng.uniform(-40, 40) for _ in range(16)]
    pairs = [shares_from_floats(x - 1.0, 1.0, codec) for x in xs]

    def client_fn(ep):
        vals = [p[0].value for p in pairs]
        return flood_reshare_batch(CLIENT, vals, ep, codec, cfg, None)

    def server_fn(ep):
        vals = [p[1].value for p in pairs]
        return flood_reshare_batch(SERVER, vals, ep, codec, cfg,
                                   random.Random(28))

    out_c, out_s = run_pair(client_fn, server_fn)
    for x, c, s in zip(xs, out_c, out_s):
        got = reconstruct(RingShare(CLIENT, c), RingShare(SERVER, s), codec)
        assert got == pytest.approx(x, abs=2 ** -14)
        server_float = codec.decode(s)
        assert cfg.F - cfg.mask_spread <= server_float <= cfg.F + cfg.mask_spread


def test_flood_reshare_requires_server_rng():
    # the rng check fires before the channel is touched
    codec = FixedPointCodec()
    cfg = FloodConfig()
    endpoint, _peer = open_inproc()
    with pytest.raises(ConfigError):
        flood_reshare_batch(SERVER, [1], endpoint, cfg=cfg, codec=codec,
                            rng=None)

