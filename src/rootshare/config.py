"""Protocol configuration: one object tying codec, seed, flooding and
Newton settings together, plus a small key=value file loader for the CLI."""

import os
from dataclasses import dataclass, replace

from .errors import ConfigError
from .flood import FloodConfig
from .ring import FixedPointCodec
from .rsqrt import NewtonConfig, SeedParams

# A call site's inverse square root: (E_m, Newton iterations, seed slope)
Site = tuple[float, int, float]


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
        if not self.sampler_log2_std > 0:
            raise ConfigError("sampler_log2_std must be positive")

    def with_site(self, site: Site) -> "ProtocolConfig":
        """This configuration at one call site: same codec and flood
        constant, with the site's expected-magnitude exponent, Newton
        iteration count and seed slope in place of its own."""
        E_m, iterations, slope = site
        return replace(self, seed=replace(self.seed, E_m=E_m, slope=slope),
                       newton=replace(self.newton, iterations=iterations))


DEFAULT_CONFIG = ProtocolConfig()

# Each key's ProtocolConfig field (None for the bundle's own) and type.
_KEYS = {"l": ("codec", int), "f": ("codec", int), "b": ("seed", float),
         "E_f": ("seed", int), "E_m": ("seed", float), "F": ("flood", float),
         "mask_spread": ("flood", float), "iterations": ("newton", int),
         "sampler_log2_mean": (None, float),
         "sampler_log2_std": (None, float)}


def config_from_mapping(mapping: dict) -> ProtocolConfig:
    """Build a ProtocolConfig from flat key=value pairs.

    Recognized keys: l, f, b, F, E_f, E_m, mask_spread, iterations,
    sampler_log2_mean, sampler_log2_std. F sets the flood constant, E_f
    and E_m the seed's reference exponents. Unknown keys raise
    ConfigError so typos never silently fall back to defaults.
    """
    changes = {}
    for key, raw_value in mapping.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        owner, kind = _KEYS[key]
        try:
            changes.setdefault(owner, {})[key] = kind(raw_value)
        except (TypeError, ValueError):
            need = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} needs {need}, got {raw_value!r}")
    own = changes.pop(None, {})
    return replace(DEFAULT_CONFIG, **own, **{
        owner: replace(getattr(DEFAULT_CONFIG, owner), **fields)
        for owner, fields in changes.items()})


def load_config_file(path: str) -> ProtocolConfig:
    """The ProtocolConfig of a key=value file."""
    return config_from_mapping(read_config_file(path))


def read_config_file(path: str) -> dict:
    """Read key=value lines (# comments, blank lines allowed), refusing a
    key given twice."""
    if not os.path.isfile(path):
        raise ConfigError(f"configuration file not found: {path}")
    mapping = {}
    lines = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            if key in lines:
                raise ConfigError(f"{path}:{lineno}: {key} repeats the "
                                  f"{key} setting of line {lines[key]}")
            lines[key] = lineno
            mapping[key] = value.strip()
    return mapping
