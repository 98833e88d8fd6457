"""Share flooding: masks that drown both shares' float exponents.

A plain additive mask leaves the two shares' binary32 exponents arbitrary,
and the communication-free seed needs them close together. Flooding draws
the mask near a large power-of-two constant F, so the client share (x - m)
and the server share (m) land within one exponent of each other whenever
|x| is small against F. The systematic bias this injects into the seed is
removed by the compensation constant in the seed parameters.

Also here: the adversarial split constructor used to reproduce seed
failures at chosen exponent gaps, and the synthetic activation sampler
standing in for measured model activations.
"""

import math
import random
from dataclasses import dataclass

from .errors import ConfigError, ConstructionError, RangeError
from .floatbits import decompose, to_binary32
from .ring import CLIENT, SERVER, Channel, FixedPointCodec, RingShare, _lanes


@dataclass(frozen=True)
class FloodConfig:
    """F is the flood constant; the mask is F + r with r uniform on
    [-mask_spread, +mask_spread]. The seed's compensation for the exponent
    bias this injects lives in the seed parameters (E_f, E_m).
    """

    F: float = 8192.0
    mask_spread: float = 2048.0

    def __post_init__(self):
        if not 0 < self.F < math.inf:
            raise ConfigError(
                f"flood constant F={self.F} must be positive and finite")
        if not 0 < self.mask_spread < self.F / 2:
            raise ConfigError("mask_spread must lie in (0, F/2)")


def flood_mask(r: float, F: float = 8192.0) -> float:
    """F + r; the offset must stay below F/2 so the exponent stays pinned."""
    if not abs(r) < F / 2:
        raise ConfigError(f"mask offset {r!r} must satisfy |r| < F/2 = {F / 2}")
    return F + r


def draw_flood_mask(cfg: FloodConfig, rng: random.Random) -> float:
    return flood_mask(rng.uniform(-cfg.mask_spread, cfg.mask_spread), cfg.F)


def flood_share(x: float, mask: float, codec: FixedPointCodec):
    """(client, server) = (x - mask, mask) as ring shares, exact sum."""
    enc_x = codec.encode(x)
    enc_m = codec.encode(mask)
    return (RingShare(CLIENT, (enc_x - enc_m) % codec.modulus),
            RingShare(SERVER, enc_m))


def shares_from_floats(fc: float, fs: float, codec: FixedPointCodec):
    """Encode a (client, server) float pair as ring shares."""
    return (RingShare(CLIENT, codec.encode(fc)),
            RingShare(SERVER, codec.encode(fs)))


def flood_reshare_batch(party: str, values, channel: Channel,
                        cfg: FloodConfig):
    """Refresh a batch of shares so the float views are flooded.

    Shares coming out of a multiplication are uniform, not flooded. The
    server draws fresh flooded masks from channel.rng and sends the batch
    of differences (its old shares minus the encoded masks) to the client:
    one frame of len(values) ring elements, one round, server to client
    only. The reconstructed values are unchanged.
    """
    codec, rng = channel.codec, channel.rng
    lanes = _lanes(codec, len(values))
    if party == SERVER:
        if rng is None:
            raise ConfigError("server reshares need run_session's flood_seed")
        masks = [codec.encode(draw_flood_mask(cfg, rng)) for _ in values]
        deltas = lanes.sub(lanes.pack(values), lanes.pack(masks))
        channel.send_frame(deltas.to_bytes(lanes.size, "little"))
        return masks
    deltas = lanes.read(channel.recv_frame())
    return lanes.unpack(lanes.add(lanes.pack(values), deltas))


def adversarial_split(x: float, gap: int, rng: random.Random | None = None):
    """A float share pair (client, server) of x with exponent gap exactly gap.

    The mask is placed near x itself, the gray-box failure case for the
    communication-free seed. Up to 500 draws are tried until the binary32
    exponent gap matches; an infeasible request raises ConstructionError.
    """
    if gap < 0:
        raise ConstructionError("gap must be non-negative")
    if x == 0.0 or x != x:
        raise ConstructionError(f"cannot split {x!r}")
    rng = rng or random.Random(0)
    try:
        e_x = decompose(x).E
    except Exception as exc:
        raise ConstructionError(f"cannot split {x!r}: {exc}") from exc
    for attempt in range(500):
        c = 1.0 + rng.random()
        jitter = (0, 1, -1, 2, -2)[attempt % 5]
        exponent = e_x - 127 - gap + jitter
        if not -126 <= exponent <= 127:
            continue
        delta = c * 2.0 ** exponent
        if rng.random() < 0.5:
            delta = -delta
        mask = to_binary32(x - delta)
        fc = to_binary32(x - mask)
        if fc == 0.0 or mask == 0.0:
            continue
        try:
            got = abs(decompose(fc).E - decompose(mask).E)
        except Exception:
            continue
        if got == gap:
            return fc, mask
    raise ConstructionError(
        f"no split of {x!r} with exponent gap {gap} found in 500 tries")


class ActivationSampler:
    """Positive, near-zero-concentrated values: log2 of the sample is
    normal with the given mean and spread. With the defaults the mass above
    2^6 is negligible (more than ten sigmas out), matching the flooding
    assumption that activations are small against F.
    """

    def __init__(self, log2_mean: float = 1.4, log2_std: float = 0.45,
                 seed: int = 0):
        if log2_std <= 0:
            raise ConfigError("log2_std must be positive")
        self.log2_mean = log2_mean
        self.log2_std = log2_std
        self._rng = random.Random(seed)

    def sample(self, count: int):
        if count < 0:
            raise RangeError("sample count must be non-negative")
        try:
            return [2.0 ** self._rng.gauss(self.log2_mean, self.log2_std)
                    for _ in range(count)]
        except OverflowError:
            raise RangeError("a sampled activation overflows; lower "
                             "sampler_log2_mean or sampler_log2_std") from None
