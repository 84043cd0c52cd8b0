"""Workload ``ext``: the same layers over F_{q^d}, d = 2..6.

A round has three parts:

* extension fields built afresh by polynomial arithmetic, with their dense
  ``add_table``/``mul_table``;
* ``naive_table`` on those fields, checked against the ``kloosterman_table``
  built at set-up (k = 3 over F_{23^2}, k = 4 over F_{11^2}, and smaller
  tables at d = 3, 4, 5, 6);
* ``ratio_scan`` and second moments over F_{11^2}, F_{13^2} and F_{23^2},
  and ``compute_sk``/``stabilizer_group`` on extension hosts (k = 5 at q = 7,
  k = 7 at q = 5, k = 4 at q = 7, k = 6 at q = 11).

The time splits between the naive oracle and the dense-table route of the
``sum_product`` kernels, so a kernel change that speeds d = 1 but slows
d > 1 shows here.
"""

import numpy as np

import klab.fields as fl
import klab.kloosterman as kl
import klab.root_sums as rs
import klab.sum_product as sp
import oracles
from common import cached, expect, moment, subseed

NAME = "ext"
FULL = {
    "naive": ((3, 23, 2), (4, 11, 2), (3, 3, 3), (2, 5, 4), (3, 3, 5), (2, 3, 6)),
    # (q, d, tuples, replicates); ratio_scan holds a batch of up to 64
    # Q x Q grids, so F_{23^2} runs small replicates to stay near 250 MiB
    "scan": ((11, 2, 256, 1), (13, 2, 256, 1), (23, 2, 16, 4)),
    "moment_tuples": 16,
    "literal_max_tuples": 4,
    "sk": ((5, 7), (7, 5), (4, 7), (6, 11)),
}
SMOKE = {
    "naive": ((3, 3, 3), (2, 5, 2), (3, 7, 2)),
    "scan": ((5, 2, 16, 1), (7, 2, 8, 2)),
    "moment_tuples": 2,
    "literal_max_tuples": 2,
    "sk": ((5, 7), (4, 7)),
}
DENSE_PAIRS = 64


def _ext(q, d):
    return fl.build_extension(fl.make_prime_field(q), d)


def setup(seed, _scratch, smoke):
    size = SMOKE if smoke else FULL
    # the modulus search is memoized per process; clear it so that every
    # set-up repeat does the work of a fresh process
    getattr(fl._smallest_irreducible, "cache_clear", lambda: None)()
    fields = {}
    for q, d in [(q, d) for _k, q, d in size["naive"]] + [s[:2] for s in size["scan"]]:
        if (q, d) not in fields:
            fields[q, d] = _ext(q, d)
    ctxs = {}
    for q, d, _n, _reps in size["scan"]:
        f = fields[q, d]
        f.add_table()
        f.mul_table()
        ctxs[q] = sp.SumProductContext(kl.kloosterman_table(2, f))
    tables = {(k, q, d): kl.kloosterman_table(k, fields[q, d])
              for k, q, d in size["naive"]}
    hosts = {(k, q): rs.host_field(k, q) for k, q in size["sk"]}
    return {"seed": seed, "size": size, "ctxs": ctxs, "tables": tables,
            "hosts": hosts}


def round_ops(state, _scratch):
    seed, size = state["seed"], state["size"]
    ops = []
    for q, d in dict.fromkeys((q, d) for _k, q, d in size["naive"]):
        ops.append((("field", q, d), lambda raw, q=q, d=d: _fresh_field(q, d), None))
    for k, q, d in size["naive"]:
        ops.append((("naive", k, q, d),
                    lambda raw, k=k, key=("field", q, d): kl.naive_table(k, raw[key]),
                    None))
    for q, _d, n, reps in size["scan"]:
        ctx = state["ctxs"][q]
        ops.append((("ratio", q),
                    lambda raw, ctx=ctx, n=n, reps=reps, s=subseed(seed, "ratio", q):
                    sp.ratio_scan(ctx, n_samples=n, seed=s, replicates=reps), None))
        ops.append((("tuples", q), lambda raw, ctx=ctx, s=subseed(seed, "moment", q):
                    sp.sample_generic_tuples(ctx.field, 2, size["moment_tuples"],
                                             np.random.default_rng(s)), None))
        for j in range(size["moment_tuples"]):
            ops.append((("moment", q, j), lambda raw, ctx=ctx, key=("tuples", q), j=j:
                        moment(ctx, raw[key][j]), None))
    for key, host in state["hosts"].items():
        ops.append((("sk",) + key, lambda raw, k=key[0], host=host: _sk(k, host), None))
    return ops


def _fresh_field(q, d):
    f = _ext(q, d)
    f.add_table()
    f.mul_table()
    return f


def _sk(k, host):
    sk = rs.compute_sk(k, host)
    return sk, rs.multiplicity_one_element(sk), rs.stabilizer_group(sk)


def extract(state, raw):
    data = {"dense": {}, "naive": {}, "ratios": {}, "moments": [], "sk": {},
            # unnormalized k = 2 sums at the constants a in F_q (set-up tables)
            "hd": {q: ctx.table.values[:q] * q for q, ctx in state["ctxs"].items()}}
    rng = np.random.default_rng(subseed(state["seed"], "dense"))
    for name, t in raw.items():
        if name[0] == "field":
            pairs = rng.integers(0, t.size, size=(DENSE_PAIRS, 2))
            add, mul = t.add_table(), t.mul_table()
            data["dense"][name[1:]] = {
                "modulus": t.modulus,
                "pairs": [[int(a), int(b), int(add[a, b]), int(mul[a, b])]
                          for a, b in pairs]}
        elif name[0] == "naive":
            data["naive"][name[1:]] = np.array(t.values)
        elif name[0] == "ratio":
            data["ratios"][name[1]] = {s: [r.max_ratio, r.mean_ratio]
                                       for s, r in t.items()}
        elif name[0] == "moment":
            data["moments"].append([name[1], *t])
        elif name[0] == "sk":
            sk, witness, stab = t
            data["sk"][name[1:]] = {"entries": dict(sk.entries),
                                    "zero": sk.zero_sum_count,
                                    "witness": witness, "stabilizer": list(stab)}
    return data


# ------------------------------------------------------------------ checks

def check_dense_tables(state, data):
    for (q, d), got in data["dense"].items():
        for a, b, s, p in got["pairs"]:
            expect(s == oracles.ext_add(a, b, q, d), f"F_{q}^{d}: {a} + {b} = {s}")
            expect(p == oracles.ext_mul(a, b, got["modulus"], q),
                   f"F_{q}^{d}: {a} * {b} = {p}")


def check_naive(state, data):
    for (k, q, d), naive in data["naive"].items():
        dev = float(np.abs(naive - state["tables"][k, q, d].values).max())
        expect(dev <= 1e-8 * k, f"naive vs convolution {dev:.3e} at k={k} {q}^{d}")


def check_hasse_davenport(state, data):
    # -Kl(a; q^2) = alpha^2 + beta^2 with alpha + beta = -Kl(a; q), alpha beta = q,
    # on unnormalized sums, for the constants a in F_q
    for q in data["hd"]:
        kq = cached(state, ("kl2", q), lambda q=q: oracles.kl2_prime(q))
        a = np.arange(1, q)
        dev = float(np.abs(data["hd"][q][a] - (2 * q - kq[a] ** 2)).max())
        expect(dev <= 1e-9 * q, f"Hasse-Davenport deviation {dev:.3e} at q={q}")


def check_second_moment(state, data):
    done = {}
    for q, b, value in data["moments"]:
        if done.get(q, 0) >= state["size"]["literal_max_tuples"]:
            continue
        done[q] = done.get(q, 0) + 1
        f = state["ctxs"][q].field
        add, mul = f.add_table(), f.mul_table()
        ids = np.arange(f.size)
        tw = state["ctxs"][q].twisted
        G = np.ones((f.size, f.size), dtype=complex)
        for i, bi in enumerate(b):
            v = tw[mul[add[ids, bi]]]  # [r, s] -> K_c(s (r + b_i))
            G *= v if i < 2 else np.conj(v)
        ref = oracles.literal_second_moment(G, f.psi_vec[mul])
        expect(abs(value - ref) <= 1e-9 * max(1.0, ref),
               f"shortcut {value!r} vs literal {ref!r} at q={q} b={b}")


def check_ratios_positive(state, data):
    for q, stats in data["ratios"].items():
        vals = np.array(list(stats.values()), dtype=float)
        expect(np.isfinite(vals).all() and (vals > 0).all(),
               f"non-finite or non-positive ratio over F_{q}^2")


def check_sk(state, data):
    for (k, q), sk in data["sk"].items():
        total = sum(sk["entries"].values()) + sk["zero"]
        expect(total == k**3, f"S_{k} at q={q}: multiplicity total {total} != {k**3}")
        w = sk["witness"]
        expect(w is not None and sk["entries"].get(w) == 1,
               f"S_{k} at q={q}: witness {w} is not of multiplicity one")
        # -1 is the constant q - 1 in the base-q digit encoding
        want = [1] if k % 2 == 0 else sorted({1, q - 1})
        expect(sk["stabilizer"] == want,
               f"S_{k} at q={q}: stabilizer {sk['stabilizer']} != {want}")


def _first(d):
    return next(iter(d))


def _corrupt_dense(data):
    pair = data["dense"][_first(data["dense"])]["pairs"][0]
    pair[3] += 1


def _corrupt_naive(data):
    data["naive"][_first(data["naive"])][1] += 1e-6


def _corrupt_hd(data):
    data["hd"][_first(data["hd"])][1] += 1e-6


def _corrupt_moment(data):
    data["moments"][0][2] *= 1 + 1e-6


def _corrupt_ratio(data):
    data["ratios"][_first(data["ratios"])]["K"][0] = float("inf")


def _corrupt_sk(data):
    sk = data["sk"][_first(data["sk"])]
    sk["stabilizer"] = sk["stabilizer"][:1] + [2]


CHECKS = [
    ("dense_tables", check_dense_tables, _corrupt_dense),
    ("naive_vs_table", check_naive, _corrupt_naive),
    ("hasse_davenport", check_hasse_davenport, _corrupt_hd),
    ("second_moment_literal", check_second_moment, _corrupt_moment),
    ("ratios_positive", check_ratios_positive, _corrupt_ratio),
    ("sk_structure", check_sk, _corrupt_sk),
]
