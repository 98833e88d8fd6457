"""The benchmark under perfbench/ drives this package by name: its tracer
wraps public entry points in place, and its guard checks that every byte
sent is seen inside them. The smoke run exercises all of that at a tiny
size, so a renamed entry point or a frame sent from elsewhere fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output[-4000:]
    assert proc.stdout.splitlines()[-1].startswith("smoke ok"), output[-4000:]
