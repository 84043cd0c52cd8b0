"""The benchmark's smoke run: every workload at a tiny size checked against
its independent oracles, and every check shown to fail on a corrupted value."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "benchmark" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke ok" in proc.stdout.splitlines()
