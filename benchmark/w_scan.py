"""Workload ``scan``: the prime-field four-fold product kernels.

``ratio_scan`` for k = 2, 3 over q in {53, 101, 151, 199} with seeded
replicates (the shape of acceptance criterion 3 at 32 replicates of 16
tuples instead of 32 of 500), plus sampled ``scan_bad_tuples`` and
``second_moment_r_lambda`` on seeded generic tuples.  Nearly all the time is
in ``sum_product``'s index gathers and batched matmuls; no naive oracle, tau
or exponent code runs.
"""

import math

import numpy as np

import klab.fields as fl
import klab.kloosterman as kl
import klab.sum_product as sp
import oracles
from common import expect, moment, subseed

NAME = "scan"
KS = (2, 3)
FULL = {"qs": (53, 101, 151, 199), "n": 16, "reps": 32, "bad_q": 199,
        "bad_n": 128, "moment_tuples": 16}
SMOKE = {"qs": (23, 29, 37, 43), "n": 8, "reps": 6, "bad_q": 37,
         "bad_n": 16, "moment_tuples": 2}
STATS = "KRCD"
# The slope of log max-ratio against log q must stay near 0 under square-root
# cancellation.  Criterion 3 holds it to 0.1 with 16000 tuples per point; at
# 512 tuples the slope's standard error is 0.025-0.055 and k = 2 C sits at
# 0.1-0.18 by itself, so the bound is 0.1 plus SLOPE_SE standard errors of
# the 32 replicate slopes (over 40 seeds the worst excess was 2.5 of them).
SLOPE_BOUND = 0.1
SLOPE_SE = 5.0


def setup(seed, _scratch, smoke):
    size = SMOKE if smoke else FULL
    fields = {q: fl.make_prime_field(q) for q in size["qs"]}
    ctxs = {(k, q): sp.SumProductContext(kl.kloosterman_table(k, f))
            for k in KS for q, f in fields.items()}
    return {"seed": seed, "size": size, "ctxs": ctxs}


def round_ops(state, _scratch):
    seed, size, ctxs = state["seed"], state["size"], state["ctxs"]
    ops = []
    for (k, q), ctx in ctxs.items():
        for r in range(size["reps"]):
            ops.append((("ratio", k, q, r),
                        lambda raw, ctx=ctx, s=subseed(seed, "ratio", k, q, r):
                        sp.ratio_scan(ctx, n_samples=size["n"], seed=s,
                                      replicates=1), None))
    for k in KS:
        spec = sp.ScanSpec(n_samples=size["bad_n"], seed=subseed(seed, "bad", k))
        ops.append((("bad", k), lambda raw, ctx=ctxs[k, size["bad_q"]], spec=spec:
                    sp.scan_bad_tuples(ctx, spec=spec), None))
    for (k, q), ctx in ctxs.items():
        ops.append((("tuples", k, q),
                    lambda raw, ctx=ctx, s=subseed(seed, "moment", k, q):
                    sp.sample_generic_tuples(ctx.field, ctx.k, size["moment_tuples"],
                                             np.random.default_rng(s)), None))
        for j in range(size["moment_tuples"]):
            ops.append((("moment", k, q, j),
                        lambda raw, ctx=ctx, key=("tuples", k, q), j=j:
                        moment(ctx, raw[key][j]), None))
    return ops


def extract(state, raw):
    size = state["size"]
    qs, reps = size["qs"], size["reps"]
    maxr = {(k, s): np.full((reps, len(qs)), np.nan) for k in KS for s in STATS}
    meanr = {(k, s): np.full((reps, len(qs)), np.nan) for k in KS for s in STATS}
    for k, q in state["ctxs"]:
        for r in range(reps):
            rep = raw.get(("ratio", k, q, r))
            if rep is None:
                continue
            for s in STATS:
                maxr[k, s][r, qs.index(q)] = rep[s].max_ratio
                meanr[k, s][r, qs.index(q)] = rep[s].mean_ratio
    bad = {}
    for k in KS:
        res = raw.get(("bad", k))
        if res is not None:
            bad[k] = {"rows": [[r.b, r.classification, r.ratio_r_linear,
                                r.ratio_corr, r.flagged] for r in res.rows],
                      "thresholds": dict(res.thresholds),
                      "flagged_fraction": res.flagged_fraction}
    moments = [[name[1], name[2], *out] for name, out in raw.items()
               if name[0] == "moment"]
    tables = {key: np.array(ctx.table.values) for key, ctx in state["ctxs"].items()}
    return {"maxr": maxr, "meanr": meanr, "bad": bad, "moments": moments,
            "tables": tables}


# ------------------------------------------------------------------ checks

def check_deligne(state, data):
    for (k, q), v in data["tables"].items():
        margin = float(np.abs(v).max()) - k
        expect(margin <= 1e-9, f"Deligne margin {margin:.3e} at k={k} q={q}")


def check_collapse(state, data):
    for (k, q), v in data["tables"].items():
        # sum_a of the unnormalized sum is (-1)^k; compared at the scale 1/q^{(k-1)/2}
        res = abs(v.sum() - (-1) ** k / q ** ((k - 1) / 2))
        expect(res <= 1e-12, f"complete sum residual {res:.3e} at k={k} q={q}")


def check_ratios_positive(state, data):
    for (k, s), m in data["maxr"].items():
        both = np.concatenate([m.ravel(), data["meanr"][k, s].ravel()])
        expect(np.isfinite(both).all() and (both > 0).all(),
               f"non-finite or non-positive {s} ratio at k={k}")


def check_slopes(state, data):
    qs = state["size"]["qs"]
    for (k, s), m in data["maxr"].items():
        slope = oracles.loglog_slope(qs, m.mean(axis=0))
        per_rep = [oracles.loglog_slope(qs, row) for row in m]
        se = float(np.std(per_rep, ddof=1)) / math.sqrt(len(per_rep))
        expect(slope <= SLOPE_BOUND + SLOPE_SE * se,
               f"k={k} {s}: max-ratio slope {slope:+.3f} > "
               f"{SLOPE_BOUND} + {SLOPE_SE} x {se:.3f}")


def check_plancherel(state, data):
    for k, q, b, value in data["moments"]:
        ref = oracles.plancherel_fft(state["ctxs"][k, q].twisted, q, b)
        expect(abs(value - ref) <= 1e-9 * max(1.0, ref),
               f"second moment {value!r} vs FFT {ref!r} at k={k} q={q} b={b}")


def check_bad_ratios(state, data):
    q = state["size"]["bad_q"]
    for k, res in data["bad"].items():
        twisted = state["ctxs"][k, q].twisted
        for b, _cls, lin, corr, _flag in res["rows"][:8]:
            rlin, rcorr = oracles.scan_ratios(twisted, q, b)
            expect(abs(lin - rlin) <= 1e-9 * max(1.0, rlin)
                   and abs(corr - rcorr) <= 1e-9 * max(1.0, rcorr),
                   f"scan ratios ({lin}, {corr}) vs FFT ({rlin}, {rcorr}) at b={b}")


def _diagonal(b, k):
    if k % 2 == 0:
        return all(b.count(x) % 2 == 0 for x in b)
    return sorted(b[:2]) == sorted(b[2:])


def check_bad_flags(state, data):
    for k, res in data["bad"].items():
        rows = res["rows"]
        generic = [r for r in rows if not _diagonal(list(r[0]), k)]
        thr_lin = 3.0 * float(np.median([r[2] for r in generic]))
        thr_corr = 3.0 * float(np.median([r[3] for r in generic]))
        expect(math.isclose(res["thresholds"]["r_linear"], thr_lin, rel_tol=1e-12)
               and math.isclose(res["thresholds"]["corr"], thr_corr, rel_tol=1e-12),
               f"thresholds {res['thresholds']} vs 3 x median ({thr_lin}, {thr_corr})")
        for b, cls, lin, corr, flag in rows:
            diag = _diagonal(list(b), k)
            expect(cls == ("diagonal" if diag else "generic"),
                   f"tuple {b} classified {cls}")
            expect(flag == (diag or lin > thr_lin or corr > thr_corr),
                   f"tuple {b} flagged={flag}")
        frac = sum(r[4] for r in rows) / len(rows)
        expect(res["flagged_fraction"] == frac,
               f"flagged fraction {res['flagged_fraction']} vs {frac}")


def _corrupt_deligne(data):
    (k, _q), v = next(iter(data["tables"].items()))
    v[1] = k + 1e-6


def _corrupt_collapse(data):
    next(iter(data["tables"].values()))[2] += 1e-9


def _corrupt_ratio(data):
    data["meanr"][3, "D"][0, 0] = float("nan")


def _corrupt_slope(data):
    data["maxr"][2, "K"][:, -1] *= 4.0


def _corrupt_moment(data):
    data["moments"][0][3] *= 1 + 1e-6


def _corrupt_bad_row(data):
    data["bad"][2]["rows"][0][2] *= 1.001


def _corrupt_bad_flag(data):
    row = data["bad"][2]["rows"][0]
    row[4] = not row[4]


CHECKS = [
    ("deligne", check_deligne, _corrupt_deligne),
    ("collapse", check_collapse, _corrupt_collapse),
    ("ratios_positive", check_ratios_positive, _corrupt_ratio),
    ("slopes", check_slopes, _corrupt_slope),
    ("plancherel", check_plancherel, _corrupt_moment),
    ("bad_ratios", check_bad_ratios, _corrupt_bad_row),
    ("bad_flags", check_bad_flags, _corrupt_bad_flag),
]
