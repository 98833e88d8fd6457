"""Every dealer mask is opened once, against one value.

An opening sends D = u - r for a dealer mask r. Two openings of one mask
against values u1 and u2 would reveal u1 - u2, so an operand is opened
once and its D reused by every product that needs it. These tests record
each party's half of every dealer batch, add the two halves into the
full value of every mask, record every element the client sends and
then receives in lockstep (an opening and the server's half of it),
reconstruct each opened D, and attribute it to the one mask r that
leaves u = D + r small.
"""

import bisect
import random

import pytest

from rootshare import ToyEncoderConfig, toy_encoder_infer
from rootshare.config import DEFAULT_CONFIG
from rootshare.flood import draw_flood_mask, flood_share
from rootshare.nonlinear import GELU_PARAMS, run_layernorm_shared, \
    run_smu_shared, run_softmax_star_shared
from rootshare.ring import CLIENT, SERVER, TripleStream, _lanes
from rootshare.rsqrt import run_shared_rsqrt
from rootshare.transport import Endpoint

CODEC = DEFAULT_CONFIG.codec
# Every value these sessions open is below 2^14 in magnitude; a uniform
# mask lands this close to another opening's -D with negligible chance.
WINDOW = 1 << (CODEC.f + 14)
# Halves of each dealer kind that are masks, by position; the rest are
# shares of mask products and zero shares, which are never opened. A fixed
# mask with a product-form tail ends in (q, rho, q a, rho q): two masks more.
MASK_HALVES = {"scalar": (0, 1), "square": (0,), "fixed": (0, 1),
               "matrix": (0, 1), "zero": ()}
TAIL_MASKS = (-4, -3)


@pytest.fixture
def openings(monkeypatch):
    """(each party's dealer halves in request order, the client's (sent,
    received) opening frames), filled in as the test runs a session."""
    halves = {CLIENT: [], SERVER: []}
    events = []
    take = TripleStream._next
    send, recv = Endpoint.send_frame, Endpoint.recv_frame

    def recording_next(self, kind):
        half = take(self, kind)
        halves[self.party].append((kind, half))
        return half

    def recording_send(self, payload):
        if self.party == CLIENT:
            events.append(("send", bytes(payload)))
        return send(self, payload)

    def recording_recv(self):
        payload = recv(self)
        if self.party == CLIENT:
            events.append(("recv", payload))
        return payload

    monkeypatch.setattr(TripleStream, "_next", recording_next)
    monkeypatch.setattr(Endpoint, "send_frame", recording_send)
    monkeypatch.setattr(Endpoint, "recv_frame", recording_recv)
    return halves, events


def dealer_masks(halves):
    """The full value of every dealer mask issued: the two parties' halves
    of each batch, added at each mask position."""
    mod = CODEC.modulus
    assert len(halves[CLIENT]) == len(halves[SERVER])
    masks = []
    for (kind, client), (peer_kind, server) in zip(halves[CLIENT],
                                                   halves[SERVER]):
        assert kind == peer_kind
        tail = kind[0] == "fixed" and kind[-1]
        for part in MASK_HALVES[kind[0]] + (TAIL_MASKS if tail else ()):
            masks.extend((c + s) % mod
                         for c, s in zip(client[part], server[part]))
    return masks


def opened_per_mask(halves, events):
    """{mask: [u, ...]} over every opened element of the session."""
    mod = CODEC.modulus
    width = CODEC.element_bytes
    ordered = sorted(dealer_masks(halves))
    assert len(set(ordered)) == len(ordered)
    found = {}
    for (kind, own), (next_kind, peer) in zip(events, events[1:]):
        # the client never sends outside an opening, and each of its
        # openings is answered by the server's half of it; a receive that
        # does not follow a send is a reshare
        if kind != "send":
            continue
        assert next_kind == "recv" and len(peer) == len(own)
        lanes = _lanes(CODEC, len(own) // width)
        for d_own, d_peer in zip(lanes.unpack(lanes.read(own)),
                                 lanes.unpack(lanes.read(peer))):
            target = -(d_own + d_peer) % mod
            near = [r for shift in (-mod, 0, mod) for r in ordered[
                bisect.bisect_left(ordered, target + shift - WINDOW):
                bisect.bisect_right(ordered, target + shift + WINDOW)]]
            assert len(near) == 1, "an opened element matches no dealer mask"
            r = near[0]
            found.setdefault(r, []).append((d_own + d_peer + r) % mod)
    return found


def assert_each_mask_opened_once(halves, events):
    """Check that no mask is opened twice; returns opened_per_mask."""
    found = opened_per_mask(halves, events)
    assert found, "the session opened nothing"
    reused = [values for values in found.values() if len(set(values)) > 1]
    assert not reused, f"{len(reused)} masks opened against two values"
    again = [values for values in found.values() if len(values) > 1]
    assert not again, f"{len(again)} masks opened twice"
    return found


def test_rsqrt_opens_each_mask_once(openings):
    rng = random.Random(5)
    pairs = []
    for x in (0.6, 1.3, 2.7, 3.1, 5.5, 9.0):
        c, s = flood_share(x, draw_flood_mask(DEFAULT_CONFIG.flood, rng),
                           CODEC)
        pairs.append((c.value, s.value))
    run_shared_rsqrt(pairs, CODEC, DEFAULT_CONFIG.seed, DEFAULT_CONFIG.newton,
                     dealer_seed=6)
    assert_each_mask_opened_once(*openings)


def test_smu_opens_each_mask_once(openings):
    xs = [0.5 * i - 1.5 for i in range(7)]
    cfg = DEFAULT_CONFIG.with_site((128, 4, 0.0))
    run_smu_shared(xs, GELU_PARAMS, cfg, seed=7)
    found = assert_each_mask_opened_once(*openings)
    # per element: the square, x/2 once, y and a plain pair per Newton
    # iteration but the last, and y, Q and r of the last, which forms
    # sqrt(s)/2 = Q + Q r and reopens neither x/2 nor Q
    n = cfg.newton.iterations
    assert sum(map(len, found.values())) == (3 * n + 2) * len(xs)


def test_softmax_star_opens_each_mask_once(openings):
    rng = random.Random(8)
    rows = [rng.gauss(1.5, 0.8) for _ in range(12)]
    run_softmax_star_shared(rows, DEFAULT_CONFIG, seed=8, iterations=4,
                            row_len=4)
    assert_each_mask_opened_once(*openings)


def test_layernorm_opens_each_mask_once(openings):
    rng = random.Random(9)
    rows = [rng.gauss(0.0, 1.0) for _ in range(12)]
    run_layernorm_shared(rows, [1.0] * 4, [0.0] * 4, DEFAULT_CONFIG, seed=9,
                         iterations=4)
    assert_each_mask_opened_once(*openings)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_encoder_opens_each_mask_once(openings, heads):
    # at more than one head, one frame opens every head's operands
    cfg = ToyEncoderConfig(heads=heads)
    rng = random.Random(10)
    rows = [[0.8 + 0.4 * rng.random() for _ in range(cfg.model_dim)]
            for _ in range(cfg.seq_len)]
    toy_encoder_infer(cfg, rows, mode="shared")
    assert_each_mask_opened_once(*openings)
