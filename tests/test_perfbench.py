"""The benchmark under perfbench/ drives this package by name: its tracer
wraps public entry points in place, and its guard checks that every byte
sent is seen inside them. The smoke run exercises all of that at a tiny
size, so a renamed entry point or a frame sent from elsewhere fails here."""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from rootshare import nonlinear

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output[-4000:]
    assert proc.stdout.splitlines()[-1].startswith("smoke ok"), output[-4000:]


def _traced_functions():
    """perfbench/tracer.py's FUNCTIONS, read without importing perfbench as
    a package or touching sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.FUNCTIONS


def test_traced_steps_take_party_first_and_one_channel():
    # the tracer reads a span's party from the first argument, its byte,
    # frame and round counts from channel.stats() and its item count from
    # the named argument; the codec, the dealer's replay and the server's
    # flood generator travel in the channel. beaver_mul_batch's triples is
    # its per-call mask material, not a stream
    steps = [(getattr(importlib.import_module(module), attr), items)
             for module, attr, _, items in _traced_functions()]
    steps += [(nonlinear._square, "values"),
              (nonlinear._flooded_rsqrt, "values")]
    total = 0
    for fn, items in steps:
        params = list(inspect.signature(fn).parameters)
        total += len(params)
        assert params[0] == "party", fn.__name__
        assert "channel" in params, fn.__name__
        assert items is None or items in params, fn.__name__
        allowed = {"triples"} if fn.__name__ == "beaver_mul_batch" else set()
        assert not ({"codec", "triples", "rng"} - allowed) & set(params), \
            fn.__name__
    assert len(steps) == 11 and total <= 57
