"""Benchmark for klab: one workload per run, in this process.

    python3 benchmark/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --smoke

A run sets up the workload several times (``setup_s`` is the import time
plus the median set-up), then repeats whole rounds of the same operations
until ``--seconds`` have passed, and checks every round's outputs against
independent computations.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics, from spans
recorded around the program's public functions, with ``--trace 1``.

``--smoke`` runs every workload at a tiny size, then feeds each check one
corrupted value and requires that check to fail.
"""

import os
import time

_T0 = time.perf_counter()

# One BLAS/OpenMP thread: a second OpenBLAS thread only spins on this
# workload mix (see README), so it must be pinned before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("KLAB_CACHE_DIR", None)

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import klab  # noqa: E402
import klab.bilinear  # noqa: E402,F401
import klab.cli  # noqa: E402,F401
import klab.divisor  # noqa: E402,F401
import klab.fields  # noqa: E402,F401
import klab.kloosterman  # noqa: E402,F401
import klab.reporting  # noqa: E402,F401
import klab.root_sums  # noqa: E402,F401
import klab.sum_product  # noqa: E402,F401

import spans  # noqa: E402
from common import CheckFailed  # noqa: E402
import w_cli  # noqa: E402
import w_ext  # noqa: E402
import w_scan  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

WORKLOADS = {"scan": w_scan, "ext": w_ext, "cli": w_cli}
SETUP_REPEATS = 5
RUNS_DIR = HERE / "_runs"


def run_checks(wl, state, data, only=None, ops_failed=False):
    """Messages of the checks that fail on ``data`` (all of them, or ``only``).

    A check that misses an output is skipped when an operation of the round
    failed, as it then speaks of that operation.
    """
    failed = []
    for name, check, _corrupt in wl.CHECKS:
        if only is not None and name != only:
            continue
        try:
            check(state, data)
        except CheckFailed as e:
            failed.append(f"{name}: {e}")
        except (KeyError, IndexError) as e:
            if not ops_failed:
                failed.append(f"{name}: missing output {e!r}")
    return failed


def run_round(ops, tracer):
    """Run one round; returns (wall, cpu, raw outputs, failed op names)."""
    raw, failed = {}, []
    w0, c0 = time.perf_counter(), time.process_time()
    for name, fn, span in ops:
        s = tracer.begin(span) if (tracer and span) else None
        try:
            raw[name] = fn(raw)
        except Exception as e:  # a failing operation is counted, not fatal
            failed.append(f"{name}: {type(e).__name__}: {e}")
        finally:
            if s is not None:
                tracer.end(s)
    return time.perf_counter() - w0, time.process_time() - c0, raw, failed


def measure(wl, seed, seconds, traced, smoke=False):
    scratch = RUNS_DIR / f"{wl.NAME}-{seed}-{os.getpid()}"
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install(spans.targets(klab))
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            if tracer:
                tracer.phase = ("setup", i)
            t = time.perf_counter()
            state = wl.setup(seed, scratch / f"setup{i}", smoke)
            setup_times.append(time.perf_counter() - t)
        walls, cpus, attempted, failures, bad = [], [], 0, [], []
        end = time.perf_counter() + seconds
        i = 0
        while True:
            ops = wl.round_ops(state, scratch / f"round{i}")
            if tracer:
                tracer.phase = ("round", i)
            wall, cpu, raw, failed = run_round(ops, tracer)
            walls.append(wall)
            cpus.append(cpu)
            attempted += len(ops)
            failures += failed
            if i == 0:  # rounds repeat the same work; read before any check
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer:
                tracer.phase = ("check", i)
            data = wl.extract(state, raw)
            bad += run_checks(wl, state, data, ops_failed=bool(failed))
            i += 1
            if time.perf_counter() >= end:
                break
        for msg in bad + failures:
            print(msg, file=sys.stderr)
        print(f"{wl.NAME}: setups {[round(t, 4) for t in setup_times]} "
              f"rounds {[round(t, 4) for t in walls]}", file=sys.stderr)
        result = {"correct": not bad, "attempted": attempted,
                  "failed": len(failures)}
        if tracer:
            RUNS_DIR.mkdir(exist_ok=True)
            tracer.dump(RUNS_DIR / f"trace-{wl.NAME}-seed{seed}.json")
            result["metrics"] = spans.layer_metrics(tracer.spans)
        else:
            result["metrics"] = {
                "setup_s": {"value": IMPORT_S + statistics.median(setup_times),
                            "unit": "s"},
                "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
                "cpu_s": {"value": statistics.fmean(cpus), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss, "unit": "MiB"},
            }
        return result, state, data
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)


def smoke() -> int:
    """Every workload tiny; every check must pass, then fail on corruption."""
    ok = True
    for name, wl in WORKLOADS.items():
        t = time.perf_counter()
        result, state, data = measure(wl, seed=1, seconds=0, traced=False,
                                      smoke=True)
        line = [f"{name}: correct={result['correct']} failed={result['failed']}"]
        ok &= result["correct"] and result["failed"] == 0
        for check_name, _check, corrupt in wl.CHECKS:
            bad = copy.deepcopy(data)
            corrupt(bad)
            caught = bool(run_checks(wl, state, bad, only=check_name))
            ok &= caught
            line.append(f"{check_name}={'caught' if caught else 'MISSED'}")
        print(" ".join(line) + f" ({time.perf_counter() - t:.1f} s)")
    print("smoke", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if pathlib.Path(klab.__file__).resolve().parent != ROOT / "src" / "klab":
        print(f"klab imported from {klab.__file__}, not from this checkout",
              file=sys.stderr)
        return 1
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    result, _state, _data = measure(WORKLOADS[args.workload], args.seed,
                                    args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
