"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; sampled checks carry explicit seeds
and are deterministic.
"""

import math

import numpy as np
import pytest

from klab.bilinear import (nontrivial_threshold, operator_norm,
                           operator_norm_dense, saving_exponent,
                           shift_identity_check)
from klab.divisor import (delta_star_search, discrepancy_all,
                          exponent_case_analysis, ExponentConfig,
                          hecke_violations, hyperbola_residual, ktilde_all,
                          tau_table)
from klab.fields import build_extension, make_prime_field
from klab.kloosterman import (conjugation_symmetry_check, kloosterman_table,
                              naive_table)
from klab.root_sums import (compute_sk, expected_stabilizer, host_field,
                            multiplicity_one_element, stabilizer_group)
from klab.sum_product import (SumProductContext, full_average_moment,
                              product_grid, ratio_scan, second_moment_r_lambda,
                              second_moment_r_lambda_naive)

from divisor_oracle import d2_table, sigma11_mod
from grid_oracle import full_average_moment_naive

MASTER_SEED = 777


def verdict(num, name, ok, detail):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def coeffs_1e5():
    return tau_table(100000)


# ---------------------------------------------------------------------------
# 1. exact identities
# ---------------------------------------------------------------------------

def test_criterion_1_exact_identities():
    worst = 0.0
    # shift-by-ab re-indexing, 100 seeded coefficient draws
    ctx101 = SumProductContext(kloosterman_table(2, make_prime_field(101)))
    rng = np.random.default_rng(1)
    for _ in range(100):
        alpha = np.exp(2j * math.pi * rng.random(5))
        worst = max(worst, shift_identity_check(ctx101, alpha, offset=40,
                                                N=20, A=2, B=3))
    # Plancherel link per fixed r, 20 seeded tuples for k = 2, 3 at q = 53
    rng = np.random.default_rng(2)
    for k in (2, 3):
        ctx = SumProductContext(kloosterman_table(k, make_prime_field(53)))
        ids = np.arange(53)
        psi_mat = ctx.field.psi_vec[ids[:, None] * ids[None, :] % 53]
        for _ in range(20):
            b = tuple(int(x) for x in rng.integers(0, 53, size=4))
            G = product_grid(ctx, b)
            lhs = (np.abs(G @ psi_mat) ** 2).sum(axis=1)
            rhs = 53 * (np.abs(G) ** 2).sum(axis=1)
            worst = max(worst, float((np.abs(lhs - rhs)
                                      / np.maximum(1.0, np.abs(rhs))).max()))
    # transform of a progression indicator is the rank-3 table, all (a, m)
    for q in (7, 53, 101):
        ctx3 = SumProductContext(kloosterman_table(3, make_prime_field(q)))
        mvals = np.arange(q)
        for a in range(1, q):
            K = np.zeros(q)
            K[a] = 1.0
            got = ktilde_all(K, ctx3)
            want = ctx3.twisted[a * mvals % q] / math.sqrt(q)
            worst = max(worst, float((np.abs(got - want)
                                      / np.maximum(1.0, np.abs(want))).max()))
    verdict(1, "exact identity suite", worst < 1e-9, f"max deviation {worst:.3e}")


# ---------------------------------------------------------------------------
# 2. Kloosterman correctness
# ---------------------------------------------------------------------------

def test_criterion_2_kloosterman_correctness():
    details = []
    ok = True
    fields_d1 = {q: make_prime_field(q) for q in (53, 101, 151, 199)}
    fields_d2 = {q: build_extension(make_prime_field(q), 2) for q in (11, 13)}
    worst_cross = 0.0
    for k in (2, 3, 4):
        for f in list(fields_d1.values()) + list(fields_d2.values()):
            conv = kloosterman_table(k, f)
            naive = naive_table(k, f)
            dev = float(np.abs(conv.values - naive.values).max())
            worst_cross = max(worst_cross, dev / k)
            ok &= dev <= 1e-8 * k
    details.append(f"cross max {worst_cross:.2e} (tol 1e-8)")
    worst_margin, worst_conj, worst_collapse = -math.inf, 0.0, 0.0
    for q in (101, 499, 997):
        f = make_prime_field(q)
        for k in (2, 3, 4):
            t = kloosterman_table(k, f)
            worst_margin = max(worst_margin, t.deligne_margin())
            worst_conj = max(worst_conj, conjugation_symmetry_check(t))
            worst_collapse = max(worst_collapse, t.complete_sum_residual())
    ok &= worst_margin <= 1e-9 and worst_conj <= 1e-9 and worst_collapse <= 1e-12
    details.append(f"deligne margin {worst_margin:.2e}")
    details.append(f"conjugation {worst_conj:.2e}")
    details.append(f"collapse {worst_collapse:.2e} (tol 1e-12)")
    verdict(2, "kloosterman correctness", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. square-root cancellation stability
# ---------------------------------------------------------------------------

def test_criterion_3_ratio_stability():
    qs = (53, 101, 151, 199)
    logq = np.log(qs)
    slopes = {}
    for k in (2, 3):
        maxima = {n: [] for n in "KRCD"}
        for q in qs:
            ctx = SumProductContext(kloosterman_table(k, make_prime_field(q)))
            reps = ratio_scan(ctx, n_samples=500, seed=MASTER_SEED + q,
                              replicates=32)
            for n in "KRCD":
                maxima[n].append(reps[n].max_ratio)
        for n in "KRCD":
            slopes[f"k{k}:{n}"] = float(np.polyfit(logq, np.log(maxima[n]), 1)[0])
    worst = max(slopes.values())
    detail = " ".join(f"{k}={v:+.3f}" for k, v in sorted(slopes.items()))
    verdict(3, "ratio stability", worst <= 0.1, detail)


# ---------------------------------------------------------------------------
# 4. second moments
# ---------------------------------------------------------------------------

def test_criterion_4_second_moments():
    points = [(53, 1), (101, 1), (151, 1), (11, 2), (13, 2)]
    cs = {}
    for q, d in points:
        f = make_prime_field(q) if d == 1 else build_extension(make_prime_field(q), d)
        ctx = SumProductContext(kloosterman_table(2, f))
        rng = np.random.default_rng(MASTER_SEED + q * d)
        Q = f.size
        devs = []
        got = 0
        while got < 200:
            b = tuple(int(x) for x in rng.integers(0, Q, size=4))
            if len(set(b)) < 4:
                continue
            got += 1
            devs.append(abs(second_moment_r_lambda(ctx, b) - Q) / math.sqrt(Q))
        cs[(q, d)] = max(devs)
    d1 = [(q, cs[(q, 1)]) for q in (53, 101, 151)]
    slope = float(np.polyfit(np.log([p[0] for p in d1]),
                             np.log([p[1] for p in d1]), 1)[0])
    d2max = max(cs[(11, 2)], cs[(13, 2)])
    d1max = max(c for _, c in d1)
    ctx11 = SumProductContext(kloosterman_table(2, make_prime_field(11)))
    red = full_average_moment(ctx11)
    nav = full_average_moment_naive(ctx11)
    rel = abs(red - nav) / abs(nav)
    sm_rel = abs(second_moment_r_lambda(ctx11, (1, 2, 3, 5))
                 - second_moment_r_lambda_naive(ctx11, (1, 2, 3, 5))) / 11
    ok = slope <= 0.1 and d2max <= 1.5 * d1max and rel < 1e-6 and sm_rel < 1e-6
    verdict(4, "second moments", ok,
            f"d1 slope {slope:+.3f}, C(d1) max {d1max:.3f}, C(d2) max {d2max:.3f}, "
            f"reduction rel err {rel:.2e}")


# ---------------------------------------------------------------------------
# 5. root-of-unity sum multisets
# ---------------------------------------------------------------------------

def test_criterion_5_sk_suite():
    sk2 = compute_sk(2, make_prime_field(101))
    ok = sk2.entries == {4: 4, 16: 1}
    details = [f"S_2 = {sk2.entries}"]
    # smallest-q conforming hosts sit below the structural-claim range for
    # k = 5, 7 over prime fields (no multiplicity-one entry at q = 101/113),
    # so those use the next conforming primes
    hosts = {2: (101, 1), 3: (103, 1), 4: (101, 1), 5: (131, 1),
             6: (103, 1), 7: (281, 1)}
    for k, (q, d) in hosts.items():
        host = host_field(k, q)
        assert host.degree == d and host.size <= 10**6
        sk = compute_sk(k, host)
        ok &= sk.total_multiplicity + sk.zero_sum_count == k**3
        ok &= multiplicity_one_element(sk) is not None
        ok &= stabilizer_group(sk) == expected_stabilizer(sk)
    for k, q in ((5, 7), (7, 5)):  # minimal-degree extension hosts (d = 4, 6)
        ext = compute_sk(k, host_field(k, q))
        ok &= multiplicity_one_element(ext) is not None
        ok &= stabilizer_group(ext) == expected_stabilizer(ext)
    details.append("k=2..7 multiplicity-one + stabilizer checks")
    verdict(5, "root-of-unity multisets", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. bound-bracket reproduction
# ---------------------------------------------------------------------------

def test_criterion_6_bound_brackets():
    q = 2003
    e = math.log(math.isqrt(q) + 1, q)  # M = N = ceil(sqrt(q))
    s2 = saving_exponent("general", e, e)
    s1 = saving_exponent("special", e, e)
    cross2 = nontrivial_threshold("general")
    cross1 = nontrivial_threshold("special")
    ok = (abs(s2 - 1 / 64) <= 0.01 and abs(s1 - 1 / 24) <= 0.01
          and abs(cross2 - 11 / 24) <= 0.01 and abs(cross1 - 3 / 7) <= 0.01)
    verdict(6, "bound brackets", ok,
            f"savings {s2:.4f}/{s1:.4f} vs 1/64, 1/24; "
            f"crossings {cross2:.4f}/{cross1:.4f} vs 11/24, 3/7")


# ---------------------------------------------------------------------------
# 7. extremal envelope
# ---------------------------------------------------------------------------

def test_criterion_7_extremal_envelope():
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(499)))
    M = N = 22
    sigma = operator_norm(ctx, M, N, offset=1)
    dense = operator_norm_dense(ctx, M, N, offset=1)
    rel = abs(sigma - dense) / dense
    envelope_ok = sigma * math.sqrt(M * N) <= ctx.k * M * N + 1e-9
    ok = rel < 1e-6 and envelope_ok
    verdict(7, "extremal envelope", ok,
            f"sigma {sigma:.6f}, dense {dense:.6f}, rel {rel:.2e}, "
            f"envelope {sigma * math.sqrt(M * N):.2f} <= {ctx.k * M * N}")


# ---------------------------------------------------------------------------
# 8. exponent case analysis
# ---------------------------------------------------------------------------

def test_criterion_8_exponent_lp():
    res = delta_star_search()
    ok = (abs(res["delta_star"] - 1 / 26) <= 1e-3
          and abs(res["eta_star"] - 1 / 102) <= 1e-3)
    good = exponent_case_analysis(ExponentConfig(delta=0.03, kappa=1e-3))
    bad = exponent_case_analysis(ExponentConfig(delta=0.05, kappa=1e-3))
    ok &= good.passed and not bad.passed and len(bad.witnesses) > 0
    verdict(8, "exponent case analysis", ok,
            f"delta* {res['delta_star']:.6f} (1/26 = {1/26:.6f}), "
            f"eta* {res['eta_star']:.6f} (1/102 = {1/102:.6f}), "
            f"0.03 pass / 0.05 fail with witness {bad.witnesses[:1]}")


# ---------------------------------------------------------------------------
# 9. divisor application
# ---------------------------------------------------------------------------

def test_criterion_9_divisor_application(coeffs_1e5):
    coeffs = coeffs_1e5
    n_max = coeffs.n_max
    ok = hecke_violations(coeffs) == 0
    d2 = d2_table(n_max)
    ok &= bool((np.abs(coeffs.lam[1:]) <= d2[1:] + 1e-9).all())
    sig = sigma11_mod(n_max)
    ok &= all((coeffs.tau[n] - int(sig[n])) % 691 == 0 for n in range(1, n_max + 1))
    x = 50000
    qs = (53, 101, 199)
    max_norm = []
    max_abs_e = []
    worst_share = 0.0
    for q in qs:
        sums = discrepancy_all(coeffs, x, q)
        residual, budget = hyperbola_residual(coeffs, x, q, sums["raw"])
        worst_share = max(worst_share, residual / budget)
        max_norm.append(max(abs(v) for v in sums["normalized"]))
        max_abs_e.append(max(abs(v) for v in sums["E"]))
    ok &= worst_share <= 1
    semilog_slope = float(np.polyfit(np.log(qs), max_norm, 1)[0])
    loglog_e_slope = float(np.polyfit(np.log(qs), np.log(max_abs_e), 1)[0])
    ok &= semilog_slope <= 0.2
    verdict(9, "divisor application", ok,
            f"hecke/deligne/691 exact; hyperbola residual "
            f"{worst_share:.1e} of budget; "
            f"max|E|q/x = {['%.4f' % v for v in max_norm]}, "
            f"slope in log q {semilog_slope:+.4f} (<= 0.2); "
            f"log-log slope of max|E| {loglog_e_slope:+.3f}")
