"""Workload ``cli``: the user-facing commands, run in this process.

Each command goes through ``klab.cli.main(argv)`` and writes its JSON or
CSV artifact to a scratch directory:

* ``report`` (the combined battery, with a full ``delta_star_search``)
* ``exponent-lp --delta 0.03`` and ``--delta 0.05``
* ``progression`` at x = 5*10^4
* ``kl-table --cache``, then a ``sumprod-scan`` that reads the warm cache
* ``kl-check --k 4 --q 101``
* ``moments``, ``bilinear-sweep``, ``opnorm`` and ``shift-check``

``divisor`` does most of the work (``tau_table`` and the case analyses);
``sum_product`` does little.  Set-up fills a cold cache with the same
``sumprod-scan``, whose artifact the warm run must reproduce byte for byte.
"""

import csv
import json
import math
import os

import numpy as np

import klab.cli
import klab.divisor as dv
import oracles
from common import cached, expect

NAME = "cli"
PROGRESSION_QS = (53, 101, 199)
FULL = {"x": 50000, "kl_check": ("4", "101"), "scan_q": "101", "scan_n": "256"}
SMOKE = {"x": 2000, "kl_check": ("3", "23"), "scan_q": "37", "scan_n": "16"}
OPNORM = {"k": 2, "q": 499, "M": 22, "N": 22, "offset": 1}


def _scan_argv(size, seed):
    return ["sumprod-scan", "--k", "2", "--q", size["scan_q"], "--samples",
            size["scan_n"], "--seed", str(seed), "--format", "csv"]


def _with_cache(cache_dir, argv):
    os.environ["KLAB_CACHE_DIR"] = str(cache_dir)
    try:
        return klab.cli.main(argv)
    finally:
        del os.environ["KLAB_CACHE_DIR"]


def setup(seed, scratch, smoke):
    size = SMOKE if smoke else FULL
    scratch.mkdir(parents=True, exist_ok=True)
    cold = scratch / "scan_cold.csv"
    code = _with_cache(scratch / "cache", _scan_argv(size, seed) + ["--out", str(cold)])
    return {"seed": seed, "size": size, "cold_code": code,
            "cold_bytes": cold.read_bytes() if cold.exists() else b""}


def commands(state, scratch):
    """(artifact name, argv) in the order a round runs them."""
    seed, size = str(state["seed"]), state["size"]
    pq = PROGRESSION_QS[state["seed"] % len(PROGRESSION_QS)]
    op = OPNORM
    cmds = [
        ("report.json", ["report", "--q", "53", "--seed", seed]),
        ("lp03.json", ["exponent-lp", "--delta", "0.03"]),
        ("lp05.json", ["exponent-lp", "--delta", "0.05"]),
        ("prog.csv", ["progression", "--x", str(size["x"]), "--q", str(pq),
                      "--format", "csv"]),
        ("kl_table.json", ["kl-table", "--k", "2", "--q", size["scan_q"],
                           "--cache", str(scratch / "cache")]),
        ("scan_warm.csv", _scan_argv(size, seed)),
        ("kl_check.json", ["kl-check", "--k", size["kl_check"][0],
                           "--q", size["kl_check"][1]]),
        ("moments.json", ["moments", "--k", "3", "--q", "53", "--samples", "50",
                          "--seed", seed]),
        ("sweep.json", ["bilinear-sweep", "--k", "2", "--q", "2003", "--M", "40",
                        "45", "--N", "45", "--seed", seed]),
        ("opnorm.json", ["opnorm", "--k", str(op["k"]), "--q", str(op["q"]),
                         "--M", str(op["M"]), "--N", str(op["N"]),
                         "--offset", str(op["offset"])]),
        ("shift.json", ["shift-check", "--k", "2", "--q", "101", "--M", "5",
                        "--N", "20", "--A", "2", "--B", "3", "--offset", "40",
                        "--seed", seed]),
    ]
    return [(name, argv + ["--out", str(scratch / name)]) for name, argv in cmds]


def round_ops(state, scratch):
    scratch.mkdir(parents=True, exist_ok=True)
    cmds = commands(state, scratch)
    ops = []
    for name, argv in cmds:
        if argv[0] == "sumprod-scan":
            fn = (lambda raw, argv=argv: _with_cache(scratch / "cache", argv))
        else:
            fn = (lambda raw, argv=argv: klab.cli.main(argv))
        ops.append(((name, str(scratch / name)), fn, f"cli.{argv[0]}"))
    return ops


def extract(state, raw):
    data = {"codes": {"cold sumprod-scan": state["cold_code"]}, "json": {},
            "prog": [], "warm_bytes": b"", "cold_bytes": state["cold_bytes"],
            "tau10": list(dv.tau_table(10).tau[1:11])}
    for (name, path), code in raw.items():
        data["codes"][name] = code
        if not os.path.exists(path):
            continue
        if name.endswith(".json"):
            with open(path) as fh:
                data["json"][name] = json.load(fh)
        elif name == "prog.csv":
            with open(path, newline="") as fh:
                data["prog"] = [[int(r["q"]), int(r["a"]), float(r["raw"])]
                                for r in csv.DictReader(fh)]
        elif name == "scan_warm.csv":
            with open(path, "rb") as fh:
                data["warm_bytes"] = fh.read()
    return data


# ------------------------------------------------------------------ checks

def check_exit_codes(state, data):
    bad = {n: c for n, c in data["codes"].items() if c != 0}
    expect(not bad, f"exit codes {bad}")


def check_report(state, data):
    rep = data["json"]["report.json"]
    ds, es = rep["exponent_lp"]["delta_star"], rep["exponent_lp"]["eta_star"]
    expect(abs(ds - 1 / 26) <= 1e-3 and abs(es - 1 / 102) <= 1e-3,
           f"delta* {ds}, eta* {es} vs 1/26, 1/102")
    expect(rep["kloosterman"]["deligne_margin"] <= 1e-9,
           f"report Deligne margin {rep['kloosterman']['deligne_margin']}")


def check_exponent_verdicts(state, data):
    good, bad = data["json"]["lp03.json"], data["json"]["lp05.json"]
    expect(good["passed"] is True, "delta = 0.03 does not pass")
    expect(bad["passed"] is False and bad["witnesses"], "delta = 0.05 has no witness")
    for mu, nu, worst in bad["witnesses"]:
        # the witness lies in the feasible band and beats every bound; the
        # artifact rounds witness coordinates to 6 decimals
        expect(mu >= 0 and nu >= 0 and 1 - 1e-6 <= mu + nu <= 1 + bad["delta"] + 1e-6
               and worst >= 1 - bad["kappa"] - 5e-7, f"witness {(mu, nu, worst)}")


def check_progression(state, data):
    x = state["size"]["x"]
    lam = cached(state, ("lam", x), lambda: oracles.lam_from_tau(oracles.tau_exact(x)))
    q = data["prog"][0][0]
    S, budget = cached(state, ("hyperbola", x, q),
                       lambda: oracles.hyperbola_class_sums(lam, x, q))
    classes = sorted(a for _q, a, _raw in data["prog"])
    expect(classes == list(range(1, q)), f"classes {classes[:5]}... for prime q={q}")
    dev = max(abs(raw - S[a]) for _q, a, raw in data["prog"])
    expect(dev <= budget, f"class sums vs hyperbola count: {dev:.3e} > {budget:.3e}")


def check_tau(state, data):
    own = cached(state, ("tau10",), lambda: oracles.tau_exact(10)[1:11])
    expect(list(oracles.TAU_PUBLISHED) == own, f"oracle tau(1..10) = {own}")
    expect(data["tau10"] == list(oracles.TAU_PUBLISHED),
           f"klab tau(1..10) = {data['tau10']}")


def check_kl(state, data):
    k = int(state["size"]["kl_check"][0])
    chk = data["json"]["kl_check.json"]
    expect(chk["cross_check_max"] <= 1e-8 * k and chk["deligne_margin"] <= 1e-9
           and chk["conjugation_deviation"] <= 1e-9,
           f"kl-check {chk['cross_check_max']}, {chk['deligne_margin']}")
    tab = data["json"]["kl_table.json"]
    expect(tab["deligne_margin"] <= 1e-9 and tab["complete_sum_residual"] <= 1e-9,
           f"kl-table {tab['deligne_margin']}, {tab['complete_sum_residual']}")


def check_opnorm(state, data):
    op = OPNORM
    res = data["json"]["opnorm.json"]

    def dense():
        table = oracles.kl2_prime(op["q"]) / math.sqrt(op["q"])
        m = np.arange(1, op["M"] + 1)[:, None]
        n = np.arange(op["offset"], op["offset"] + op["N"])[None, :]
        return float(np.linalg.svd(table[m * n % op["q"]], compute_uv=False)[0])

    ref = cached(state, ("svd",), dense)
    sigma, mn = res["sigma_max"], op["M"] * op["N"]
    expect(abs(sigma - ref) <= 1e-6 * ref, f"opnorm {sigma} vs dense SVD {ref}")
    expect(sigma * math.sqrt(mn) <= op["k"] * mn, f"opnorm {sigma} above k*MN")


def check_shift(state, data):
    dev = data["json"]["shift.json"]["max_deviation"]
    expect(dev < 1e-9, f"shift-check deviation {dev}")


def check_warm_cache(state, data):
    expect(data["warm_bytes"] and data["warm_bytes"] == data["cold_bytes"],
           "warm-cache sumprod-scan output differs from the cold-cache run")


def check_moments_sweep(state, data):
    mo = data["json"]["moments.json"]
    dev = abs(mo["full_average_moment"] - mo["q"]) / math.sqrt(mo["q"])
    expect(math.isclose(mo["full_average_dev"], dev, rel_tol=1e-12)
           and math.isfinite(mo["second_moment_dev_max"]),
           f"moments {mo['full_average_dev']} vs {dev}")
    sw = data["json"]["sweep.json"]
    worst = max(e["max_measured"] for e in sw["per_ensemble"].values())
    M, N = max(m for m, _ in sw["sizes"]), max(n for _, n in sw["sizes"])
    expect(not sw["hypothesis_flags"] and worst <= 2 * M * N,  # k = 2
           f"sweep flags {sw['hypothesis_flags']}, max |B| {worst}")


def _set(path):
    def corrupt(data):
        *keys, last, value = path
        obj = data
        for k in keys:
            obj = obj[k]
        obj[last] = value(obj[last]) if callable(value) else value
    return corrupt


CHECKS = [
    ("exit_codes", check_exit_codes, _set(("codes", "opnorm.json", 2))),
    ("report_delta_star", check_report,
     _set(("json", "report.json", "exponent_lp", "delta_star", lambda v: v + 2e-3))),
    ("exponent_verdicts", check_exponent_verdicts,
     _set(("json", "lp05.json", "witnesses", []))),
    ("progression_hyperbola", check_progression,
     _set(("prog", 0, 2, lambda v: v + 1e-6))),
    ("tau_published", check_tau, _set(("tau10", 3, lambda v: v + 1))),
    ("kl_tables", check_kl,
     _set(("json", "kl_check.json", "cross_check_max", 1.0))),
    ("opnorm_svd", check_opnorm,
     _set(("json", "opnorm.json", "sigma_max", lambda v: v * (1 + 1e-5)))),
    ("shift_deviation", check_shift,
     _set(("json", "shift.json", "max_deviation", 1e-8))),
    ("warm_cache_bytes", check_warm_cache,
     _set(("warm_bytes", lambda v: v.replace(b"\n", b"\r\n", 1)))),
    ("moments_sweep", check_moments_sweep,
     _set(("json", "moments.json", "full_average_dev", lambda v: v * 1.001))),
]
