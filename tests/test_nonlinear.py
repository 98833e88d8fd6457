"""Smooth-maximum activations, the normalized-positive attention layer,
and layer normalization, plain and on shares."""

import math
import random

import pytest

from rootshare.config import DEFAULT_CONFIG
from rootshare.errors import ConfigError, UsageError
from rootshare.nonlinear import (GELU_PARAMS, RELU_PARAMS, SmuParams,
                                 add_public_values, gelu_plain,
                                 layernorm_plain, relu_plain,
                                 run_layernorm_shared, run_smu_shared,
                                 run_softmax_star_shared, scalar_mul_values,
                                 smu_plain, softmax_star_plain)
from rootshare.ring import CLIENT, FixedPointCodec, split_values


# ------------------------------------------------------------- plain smu

def test_presets():
    assert GELU_PARAMS == SmuParams(0.0, 2.0 ** -0.5)
    assert RELU_PARAMS == SmuParams(0.0, 0.0)


def test_params_validation():
    with pytest.raises(ConfigError):
        SmuParams(alpha=1.0, mu=0.5)
    with pytest.raises(ConfigError):
        SmuParams(alpha=-0.1, mu=0.5)
    with pytest.raises(ConfigError):
        SmuParams(alpha=0.0, mu=-1.0)


def test_smu_relu_limit_branches():
    assert smu_plain(3.0, RELU_PARAMS) == 3.0
    assert smu_plain(-3.0, RELU_PARAMS) == 0.0


def test_smu_at_zero_is_half_mu():
    got = smu_plain(0.0, GELU_PARAMS)
    assert got == pytest.approx(GELU_PARAMS.mu / 2, abs=1e-12)
    assert got == pytest.approx(0.35355, abs=5e-6)


def test_smu_formula_against_direct_evaluation():
    rng = random.Random(60)
    for _ in range(300):
        x = rng.uniform(-8, 8)
        alpha = rng.uniform(0.0, 0.9)
        mu = rng.uniform(0.0, 2.0)
        s = (1 - alpha) * x * x + mu * mu
        want = (1 + alpha) / 2 * x + math.sqrt(s) / 2 if s > 0 else x / 2
        assert smu_plain(x, SmuParams(alpha, mu)) == pytest.approx(want,
                                                                   abs=1e-9)


def test_gelu_replacement_fidelity():
    # coarse but uniform bound; the gap peaks at the origin offset mu/2
    grid = [x / 100.0 for x in range(-600, 601)]
    worst = max(abs(smu_plain(x, GELU_PARAMS) - gelu_plain(x)) for x in grid)
    assert worst <= 0.36
    assert worst == pytest.approx(abs(smu_plain(0.0, GELU_PARAMS)
                                      - gelu_plain(0.0)), abs=1e-6)


def test_relu_replacement_fidelity():
    params = SmuParams(0.0, 1e-3)
    grid = [x / 100.0 for x in range(-600, 601)]
    for x in grid:
        assert abs(smu_plain(x, params) - relu_plain(x)) <= 5e-4


def test_reference_oracles():
    assert gelu_plain(0.0) == 0.0
    assert gelu_plain(2.0) == pytest.approx(
        0.5 * 2.0 * (1.0 + math.erf(2.0 / math.sqrt(2.0))), abs=1e-12)
    assert relu_plain(-1.5) == 0.0


def test_softmax_star_plain_values():
    got = softmax_star_plain([5.0, -5.0])
    assert got[0] == pytest.approx(1.0, abs=2 ** -10)
    assert got[1] == 0.0
    assert sum(got) == pytest.approx(1.0, abs=2 ** -10)


def test_layernorm_plain_closed_form():
    got = layernorm_plain([1.0, -1.0], [1.0, 1.0], [0.0, 0.0])
    want = 1.0 / math.sqrt(1.0 + 1e-5)
    assert got == pytest.approx([want, -want], abs=1e-12)


# ------------------------------------------------------ local share maps

def test_scalar_mul_and_public_add_are_local():
    # the two truncation halves only cancel across a share pair, so the
    # check reconstructs after acting on both parties
    codec = FixedPointCodec()
    rng = random.Random(76)
    values = [2.0, -1.5]
    vc, vs = split_values(values, codec, rng)

    def recombine(client, server):
        return [codec.decode((a + b) % codec.modulus)
                for a, b in zip(client, server)]

    doubled = recombine(scalar_mul_values(CLIENT, vc, 2.0, codec),
                        scalar_mul_values("server", vs, 2.0, codec))
    assert doubled == pytest.approx([4.0, -3.0], abs=2 ** -14)
    per_element = recombine(
        scalar_mul_values(CLIENT, vc, [0.5, 2.0], codec),
        scalar_mul_values("server", vs, [0.5, 2.0], codec))
    assert per_element == pytest.approx([1.0, -3.0], abs=2 ** -14)
    # public constants enter on the server side only; an unreduced client
    # half, such as a row sum, comes back reduced for the lane packing
    assert add_public_values(CLIENT, vs, 1.0, codec) == vs
    assert add_public_values(CLIENT, [v + 3 * codec.modulus for v in vs],
                             1.0, codec) == vs
    shifted = recombine(vc, add_public_values("server", vs, 1.0, codec))
    assert shifted == pytest.approx([3.0, -0.5], abs=2 ** -14)


def test_scalar_mul_length_mismatch():
    codec = FixedPointCodec()
    with pytest.raises(UsageError):
        scalar_mul_values(CLIENT, [0, 0], [1.0], codec)
    with pytest.raises(UsageError):
        add_public_values("server", [0, 0], [1.0], codec)


# ----------------------------------------------------------- shared smu

def test_shared_gelu_grid():
    # default iteration budget, one site: the full working grid
    xs = [x / 4.0 for x in range(-24, 25)]
    got, _, _ = run_smu_shared(xs, GELU_PARAMS,
                               DEFAULT_CONFIG.with_site((130, 8, 0.0)),
                               seed=63)
    for x, g in zip(xs, got):
        assert abs(g - smu_plain(x, GELU_PARAMS)) <= 2e-2


def test_shared_gelu_low_iteration_site():
    # a four-iteration budget still meets the bound on a site whose
    # expected exponent matches the input scale
    xs = [x / 4.0 for x in range(-10, 11)]
    got, _, _ = run_smu_shared(xs, GELU_PARAMS,
                               DEFAULT_CONFIG.with_site((128, 4, 0.0)),
                               seed=64)
    for x, g in zip(xs, got):
        assert abs(g - smu_plain(x, GELU_PARAMS)) <= 2e-2


def test_shared_smu_zero_tensor_gives_half_mu():
    got, _, _ = run_smu_shared([0.0] * 6, GELU_PARAMS,
                               DEFAULT_CONFIG.with_site((128, 4, 0.0)),
                               seed=65)
    for g in got:
        assert g == pytest.approx(GELU_PARAMS.mu / 2, abs=2e-2)


def test_shared_smu_with_leaning_asymptotes():
    # alpha != 0 scales the square by 1 - alpha before the floor is added
    # and the linear term by (1 + alpha) / 2
    params = SmuParams(alpha=0.3, mu=0.5)
    xs = [x / 4.0 for x in range(-10, 11)]
    got, _, _ = run_smu_shared(xs, params,
                               DEFAULT_CONFIG.with_site((130, 8, 0.0)),
                               seed=67)
    for x, g in zip(xs, got):
        assert abs(g - smu_plain(x, params)) <= 2e-2


def test_shared_smu_comm_formula():
    # per element and party: 1 + 3n multiplications, sent in 2 + 2n frames
    # (Newton fuses two of its three per iteration). They open 3n + 2 ring
    # elements: 1 for the square, 4 then 3 per iteration in Newton but the
    # last (x/2 is opened once, y once per iteration, and the product of
    # the two takes 2), and 3 for the last, which forms sqrt(s)/2 in
    # product form and opens y, Q = (s/2) y and r = 1/2 - Q y once each.
    # The server adds its reshare frame of one element per input; the
    # flooded seed conversion adds nothing
    cfg = DEFAULT_CONFIG.with_site((128, 4, 0.0))
    k = 5
    n = cfg.newton.iterations
    xs = [0.3 * i - 0.7 for i in range(k)]
    _, st_c, st_s = run_smu_shared(xs, GELU_PARAMS, cfg, seed=66)
    element = cfg.codec.element_bytes
    assert st_c.frames == 2 + 2 * n
    assert st_s.frames == 3 + 2 * n
    assert st_c.payload_bytes == (3 * n + 2) * k * element
    assert st_s.payload_bytes == ((3 * n + 2) * k + k) * element
    assert st_c.rounds == st_s.rounds == 3 + 2 * n


# ------------------------------------------------------- shared softmax

def test_shared_softmax_star_normalization():
    rng = random.Random(67)
    for trial in range(40):
        row = [rng.gauss(1.5, 0.8) for _ in range(8)]
        got, _, _ = run_softmax_star_shared(row, DEFAULT_CONFIG,
                                            seed=700 + trial)
        assert sum(got) == pytest.approx(1.0, abs=2 ** -10)
        assert min(got) >= -(2.0 ** -10)


def test_shared_softmax_star_all_zero_row_is_uniform():
    # symmetry puts every output near 1/k; the smoothing floor keeps the
    # numerators tiny, so protocol noise shows up at the module tolerance
    got, _, _ = run_softmax_star_shared([0.0] * 4, DEFAULT_CONFIG, seed=68)
    for g in got:
        assert g == pytest.approx(0.25, abs=2e-2)


def test_shared_softmax_star_spread_pair():
    got, _, _ = run_softmax_star_shared([5.0, -5.0], DEFAULT_CONFIG, seed=69)
    assert got[0] == pytest.approx(1.0, abs=1e-2)
    assert abs(got[1]) <= 1e-2


def test_shared_softmax_star_agreement_low_iterations():
    rng = random.Random(70)
    for trial in range(15):
        row = [rng.gauss(1.5, 0.8) for _ in range(8)]
        got, _, _ = run_softmax_star_shared(row, DEFAULT_CONFIG,
                                            seed=800 + trial, iterations=4)
        want = softmax_star_plain(row)
        for g, w in zip(got, want):
            assert abs(g - w) <= 2e-2


def test_shared_softmax_star_rows_cost_one_row():
    # three rows in one call: each row keeps its own denominator, all rows
    # share every round, so the call costs the 6 + 4n rounds of one row
    rng = random.Random(77)
    n, k, rows = 4, 8, 3
    flat = [rng.gauss(1.5, 0.8) for _ in range(rows * k)]
    got, st_c, st_s = run_softmax_star_shared(flat, DEFAULT_CONFIG, seed=78,
                                              iterations=n, row_len=k)
    _, one_c, one_s = run_softmax_star_shared(flat[:k], DEFAULT_CONFIG,
                                              seed=78, iterations=n)
    assert st_c.rounds == st_s.rounds == one_c.rounds == one_s.rounds \
        == 6 + 4 * n
    for i in range(rows):
        want = softmax_star_plain(flat[i * k:(i + 1) * k])
        for g, w in zip(got[i * k:(i + 1) * k], want):
            assert abs(g - w) <= 2e-2


def test_shared_softmax_star_rejects_partial_rows():
    with pytest.raises(UsageError):
        run_softmax_star_shared([1.0] * 10, DEFAULT_CONFIG, row_len=4)


# ----------------------------------------------------- shared layernorm

def test_shared_layernorm_constant_row_returns_beta():
    k = 8
    beta = [0.25 * i for i in range(k)]
    got, _, _ = run_layernorm_shared([3.7] * k, [1.0] * k, beta,
                                     DEFAULT_CONFIG, seed=71)
    for g, b in zip(got, beta):
        assert g == pytest.approx(b, abs=2e-3)


def test_shared_layernorm_two_point_row():
    got, _, _ = run_layernorm_shared([1.0, -1.0], [1.0, 1.0], [0.0, 0.0],
                                     DEFAULT_CONFIG, seed=72)
    want = 1.0 / math.sqrt(1.0 + 1e-5)
    assert got[0] == pytest.approx(want, abs=2e-2)
    assert got[1] == pytest.approx(-want, abs=2e-2)


def test_shared_layernorm_agreement_random_rows():
    rng = random.Random(73)
    ones, zeros = [1.0] * 16, [0.0] * 16
    for trial in range(15):
        row = [rng.gauss(0.0, 1.0) for _ in range(16)]
        got, _, _ = run_layernorm_shared(row, ones, zeros, DEFAULT_CONFIG,
                                         seed=900 + trial)
        want = layernorm_plain(row, ones, zeros)
        for g, w in zip(got, want):
            assert abs(g - w) <= 2e-2


def test_shared_layernorm_agreement_low_iterations():
    # at four iterations the variance site covers about [0.5, 2.8]; rows
    # are rescaled into that window before the comparison
    rng = random.Random(74)
    ones, zeros = [1.0] * 16, [0.0] * 16
    for trial in range(15):
        row = [rng.gauss(0.0, 1.0) for _ in range(16)]
        mean = sum(row) / 16
        var = sum((v - mean) ** 2 for v in row) / 16
        target = 0.6 * 2.0 ** (rng.random() * 1.5)
        row = [v * math.sqrt(target / var) for v in row]
        got, _, _ = run_layernorm_shared(row, ones, zeros, DEFAULT_CONFIG,
                                         seed=950 + trial, iterations=4)
        want = layernorm_plain(row, ones, zeros)
        for g, w in zip(got, want):
            assert abs(g - w) <= 2e-2


def test_shared_layernorm_output_moments():
    rng = random.Random(75)
    ones, zeros = [1.0] * 16, [0.0] * 16
    for trial in range(10):
        row = [rng.gauss(0.0, 1.0) for _ in range(16)]
        got, _, _ = run_layernorm_shared(row, ones, zeros, DEFAULT_CONFIG,
                                         seed=980 + trial)
        mean = sum(got) / len(got)
        var = sum((g - mean) ** 2 for g in got) / len(got)
        assert abs(mean) <= 1e-2
        assert var == pytest.approx(1.0, abs=5e-2)


def test_shared_layernorm_parameter_validation():
    with pytest.raises(UsageError):
        run_layernorm_shared([1.0, 2.0], [1.0], [0.0, 0.0], DEFAULT_CONFIG)


def test_shared_layernorm_rows_cost_one_row():
    # rows of len(gamma) in one call cost the 3 + 2n rounds of one row
    rng = random.Random(79)
    k, rows = 16, 3
    n = 8
    ones, zeros = [1.0] * k, [0.0] * k
    flat = [rng.gauss(0.0, 1.0) for _ in range(rows * k)]
    got, st_c, st_s = run_layernorm_shared(flat, ones, zeros, DEFAULT_CONFIG,
                                           seed=80, iterations=n)
    _, one_c, one_s = run_layernorm_shared(flat[:k], ones, zeros,
                                           DEFAULT_CONFIG, seed=80,
                                           iterations=n)
    assert st_c.rounds == st_s.rounds == one_c.rounds == one_s.rounds \
        == 3 + 2 * n
    for i in range(rows):
        want = layernorm_plain(flat[i * k:(i + 1) * k], ones, zeros)
        for g, w in zip(got[i * k:(i + 1) * k], want):
            assert abs(g - w) <= 2e-2


def test_shared_layernorm_rejects_partial_rows():
    with pytest.raises(UsageError):
        run_layernorm_shared([1.0] * 10, [1.0] * 4, [0.0] * 4,
                             DEFAULT_CONFIG)
