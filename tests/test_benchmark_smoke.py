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


def test_benchmark_trace_targets_resolve(monkeypatch):
    # the smoke run is untraced, so a traced function renamed or deleted in
    # klab would break only `run.py --trace`; install and uninstall here
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    import klab.cli  # noqa: F401  (loads every klab module)
    import spans

    mods = [m for n, m in sys.modules.items() if n == "klab" or n.startswith("klab.")]
    before = [(m, dict(vars(m))) for m in mods]
    targets = spans.targets(klab)
    origs = [getattr(owner, attr) for owner, attr, _, _ in targets]
    tracer = spans.Tracer()
    tracer.install(targets)
    try:
        for (owner, attr, _, _), orig in zip(targets, origs):
            assert getattr(owner, attr) is not orig, attr
    finally:
        tracer.uninstall()
    for (owner, attr, _, _), orig in zip(targets, origs):
        assert getattr(owner, attr) is orig, attr
    for m, names in before:
        assert all(vars(m).get(key) is val for key, val in names.items()), m.__name__
