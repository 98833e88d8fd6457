"""Protocol configuration: one object tying codec, seed, flooding and
Newton settings together, plus a small key=value file loader for the CLI."""

import os
from dataclasses import dataclass, replace

from .errors import ConfigError
from .flood import FloodConfig
from .ring import FixedPointCodec
from .rsqrt import NewtonConfig, SeedParams


@dataclass(frozen=True)
class ProtocolConfig:
    """Bundle of all tunables one protocol run needs.

    The flood constant lives in the flooding layer, the reference exponents
    in the seed constants, which derive the flooding compensation from them.
    """

    codec: FixedPointCodec = FixedPointCodec()
    seed: SeedParams = SeedParams()
    newton: NewtonConfig = NewtonConfig()
    flood: FloodConfig = FloodConfig()
    sampler_log2_mean: float = 1.4
    sampler_log2_std: float = 0.45

    def __post_init__(self):
        if self.sampler_log2_std < 0:
            raise ConfigError("sampler spread must be non-negative")

    def with_site(self, E_m: int | None = None,
                  iterations: int | None = None) -> "ProtocolConfig":
        """Per-call-site variant: same codec and flood constant, but a
        different expected-magnitude exponent or iteration budget."""
        seed = self.seed if E_m is None else replace(self.seed, E_m=E_m)
        newton = (self.newton if iterations is None
                  else replace(self.newton, iterations=iterations))
        return replace(self, seed=seed, newton=newton)


DEFAULT_CONFIG = ProtocolConfig()

_INT_KEYS = {"l", "f", "E_f", "E_m", "iterations"}
_FLOAT_KEYS = {"b", "F", "mask_spread", "sampler_log2_mean", "sampler_log2_std"}
_KEY_ALIASES = {"n": "iterations"}


def config_from_mapping(mapping: dict) -> ProtocolConfig:
    """Build a ProtocolConfig from flat key=value pairs.

    Recognized keys: l, f, b, F, E_f, E_m, mask_spread, iterations (alias
    n), sampler_log2_mean, sampler_log2_std. F sets the flood constant,
    E_f and E_m the seed's reference exponents. Unknown keys raise
    ConfigError so typos never silently fall back to defaults.
    """
    values = {}
    for raw_key, raw_value in mapping.items():
        key = _KEY_ALIASES.get(raw_key, raw_key)
        if key in _INT_KEYS:
            try:
                values[key] = int(raw_value)
            except (TypeError, ValueError):
                raise ConfigError(f"{raw_key} needs an integer, got {raw_value!r}")
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(raw_value)
            except (TypeError, ValueError):
                raise ConfigError(f"{raw_key} needs a number, got {raw_value!r}")
        else:
            raise ConfigError(f"unknown configuration key {raw_key!r}")

    base = DEFAULT_CONFIG
    codec = FixedPointCodec(
        l=values.get("l", base.codec.l),
        f=values.get("f", base.codec.f),
    )
    seed = SeedParams(
        b=values.get("b", base.seed.b),
        E_f=values.get("E_f", base.seed.E_f),
        E_m=values.get("E_m", base.seed.E_m),
    )
    flood = FloodConfig(
        F=values.get("F", base.flood.F),
        mask_spread=values.get("mask_spread", base.flood.mask_spread),
    )
    newton = NewtonConfig(
        iterations=values.get("iterations", base.newton.iterations))
    return ProtocolConfig(
        codec=codec, seed=seed, newton=newton, flood=flood,
        sampler_log2_mean=values.get("sampler_log2_mean", base.sampler_log2_mean),
        sampler_log2_std=values.get("sampler_log2_std", base.sampler_log2_std),
    )


def load_config_file(path: str) -> ProtocolConfig:
    """The ProtocolConfig of a key=value file."""
    return config_from_mapping(read_config_file(path))


def read_config_file(path: str) -> dict:
    """Read key=value lines (# comments, blank lines allowed)."""
    if not os.path.isfile(path):
        raise ConfigError(f"configuration file not found: {path}")
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            mapping[key.strip()] = value.strip()
    return mapping
