"""Configuration bundle and the key=value file loader."""

import dataclasses

import pytest

from rootshare.config import (DEFAULT_CONFIG, ProtocolConfig,
                              config_from_mapping, load_config_file,
                              read_config_file)
from rootshare.errors import ConfigError
from rootshare.ring import FixedPointCodec
from rootshare.rsqrt import SeedParams


def test_default_bundle():
    cfg = DEFAULT_CONFIG
    assert cfg.codec == FixedPointCodec(l=64, f=16)
    assert cfg.flood.F == 8192.0
    assert cfg.seed.E_f == 140
    assert cfg.seed.E_m == 128
    assert cfg.newton.iterations == 4
    assert cfg.flood.mask_spread == 2048.0
    assert cfg.sampler_log2_mean == pytest.approx(1.4)
    assert cfg.sampler_log2_std == pytest.approx(0.45)


def test_bundle_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_CONFIG.sampler_log2_mean = 0.0


def test_constituents_must_agree():
    # the reference exponents live only in the seed, so overriding them
    # there needs no matching flood override
    assert ProtocolConfig(seed=SeedParams(E_m=130)).seed.E_m == 130
    with pytest.raises(ConfigError):
        ProtocolConfig(sampler_log2_std=-0.1)


@pytest.mark.parametrize("std", ["0", "-0.0", "nan"])
def test_sampler_spread_is_refused_at_load_unless_positive(std):
    # the sampler refuses a spread of 0 too, so a file that sets it fails
    # when loaded, naming its key, and not later inside a command
    with pytest.raises(ConfigError, match="sampler_log2_std"):
        config_from_mapping({"sampler_log2_std": std})


def test_with_site_overrides():
    # a site is one (E_m, iterations, slope) triple, applied whole
    cfg = DEFAULT_CONFIG.with_site((127.24, 2, 0.0358))
    assert (cfg.seed.E_m, cfg.newton.iterations, cfg.seed.slope) == \
        (127.24, 2, 0.0358)
    # untouched fields carry over
    assert cfg.codec == DEFAULT_CONFIG.codec
    assert cfg.flood.F == DEFAULT_CONFIG.flood.F
    assert cfg.seed.E_f == DEFAULT_CONFIG.seed.E_f
    # a second site replaces all three, the slope included
    flat = cfg.with_site((131, 4, 0.0))
    assert (flat.seed.E_m, flat.newton.iterations, flat.seed.slope) == \
        (131, 4, 0.0)
    home = (DEFAULT_CONFIG.seed.E_m, DEFAULT_CONFIG.newton.iterations,
            DEFAULT_CONFIG.seed.slope)
    assert cfg.with_site(home) == DEFAULT_CONFIG
    with pytest.raises(TypeError):
        DEFAULT_CONFIG.with_site(131, 4, 0.0)
    with pytest.raises(ValueError):
        DEFAULT_CONFIG.with_site((131, 4))


def test_mapping_round_trip():
    cfg = config_from_mapping({
        "l": "32", "f": "12", "F": "4096", "E_f": "139", "E_m": "129.5",
        "mask_spread": "1024", "iterations": "6",
        "b": "0.045", "sampler_log2_mean": "1.0", "sampler_log2_std": "0.3",
    })
    assert cfg.codec == FixedPointCodec(l=32, f=12)
    assert cfg.flood.F == 4096.0
    assert cfg.seed.E_f == 139 and cfg.seed.E_m == 129.5
    assert cfg.flood.mask_spread == 1024.0
    assert cfg.newton.iterations == 6
    assert cfg.sampler_log2_mean == 1.0


def test_mapping_alias_and_types():
    # iterations has no alias any more: n is an unknown key
    with pytest.raises(ConfigError, match="unknown configuration key 'n'"):
        config_from_mapping({"n": 4})
    with pytest.raises(ConfigError):
        config_from_mapping({"iterations": "many"})
    with pytest.raises(ConfigError):
        config_from_mapping({"F": "big"})
    with pytest.raises(ConfigError):
        config_from_mapping({"no_such_key": "1"})
    # the seed conversion follows from flooding; there is no key for it
    with pytest.raises(ConfigError, match="unknown configuration key"):
        config_from_mapping({"strategy": "masked-open"})


def test_mapping_empty_is_default():
    assert config_from_mapping({}) == DEFAULT_CONFIG


def test_file_loader(tmp_path):
    path = tmp_path / "proto.cfg"
    path.write_text(
        "# toy profile\n"
        "\n"
        "l = 32\n"
        "f=12   # fractional bits\n"
        "iterations = 4\n"
    )
    cfg = load_config_file(str(path))
    assert cfg.codec == FixedPointCodec(l=32, f=12)
    assert cfg.newton.iterations == 4


def test_file_loader_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config_file(str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))


@pytest.mark.parametrize("lines, line, names", [
    ("E_m = 120\nE_m = 130\n", 2, "E_m repeats the E_m setting of line 1")],
    ids=["E_m"])
def test_file_loader_refuses_a_repeated_key(tmp_path, lines, line, names):
    # the last line used to win without a word
    path = tmp_path / "twice.cfg"
    path.write_text(lines)
    with pytest.raises(ConfigError, match=f"twice.cfg:{line}: {names}"):
        read_config_file(str(path))


def test_mapping_refuses_n_with_iterations():
    with pytest.raises(ConfigError, match="unknown configuration key 'n'"):
        config_from_mapping({"iterations": "4", "n": "6"})
