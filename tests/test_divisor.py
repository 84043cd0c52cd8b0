import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klab.divisor as dv
from klab.cli import main
from klab.divisor import (TAU_N_MAX, TAU_PRIMES, ExponentConfig,
                          bound_exponents, combined_bounds, d2_table,
                          delta_star_search, delta_to_eta, discrepancy_all,
                          exponent_case_analysis, hecke_violations,
                          hyperbola_residual, ktilde, ktilde_all,
                          lambda_star_one_table, sigma11_mod, tau_table)
from klab.errors import (CompositeModulus, HypothesisViolated, OutOfRange,
                         ResourceLimit)
from klab.fields import is_prime, make_prime_field
from klab.kloosterman import kloosterman_table
from klab.sum_product import SumProductContext


@pytest.fixture(scope="module")
def coeffs():
    return tau_table(3000)


def _kronecker_square(coeffs: list, slot_bits: int) -> list:
    """Exact square of an integer polynomial via one big-int multiply.

    Coefficients (possibly negative) are offset-encoded into fixed-width
    little-endian slots; |result coefficients| must stay below 2^(slot_bits-1).
    """
    L = len(coeffs)
    nbytes = slot_bits // 8
    half = 1 << (slot_bits - 1)
    buf = bytearray(L * nbytes)
    for i, c in enumerate(coeffs):
        buf[i * nbytes:(i + 1) * nbytes] = (c + half).to_bytes(nbytes, "little")
    ones_in = ((1 << (slot_bits * L)) - 1) // ((1 << slot_bits) - 1)
    E = int.from_bytes(bytes(buf), "little") - half * ones_in
    P = E * E
    out_len = 2 * L - 1
    ones_out = ((1 << (slot_bits * out_len)) - 1) // ((1 << slot_bits) - 1)
    raw = (P + half * ones_out).to_bytes(out_len * nbytes + 16, "little")
    return [int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little") - half
            for i in range(out_len)]


def _kronecker_tau(n_max: int) -> list:
    """tau(0..n_max) (tau(0) = 0) by three exact big-int squarings of F."""
    F = [0] * n_max
    n = 0
    while n * (n + 1) // 2 < n_max:
        F[n * (n + 1) // 2] = (2 * n + 1) * (-1 if n & 1 else 1)
        n += 1
    F2 = _kronecker_square(F, 64)[:n_max]
    F4 = _kronecker_square(F2, 96)[:n_max]
    return [0] + _kronecker_square(F4, 192)[:n_max]


def _sparse_tau(n_max: int) -> list:
    """tau(0..n_max) (tau(0) = 0) by seven sparse passes cur <- F * cur
    modulo each of TAU_PRIMES, then CRT.  A pass adds at most 1414 terms
    c * r with |c| < 2^12 and 0 <= r < 2^31, so int64 holds it unreduced."""
    terms = []
    n = 0
    while n * (n + 1) // 2 < n_max:
        terms.append((n * (n + 1) // 2, (2 * n + 1) * (-1 if n & 1 else 1)))
        n += 1
    p = np.array(TAU_PRIMES, dtype=np.int64)[:, None]
    cur = np.zeros((len(TAU_PRIMES), n_max), dtype=np.int64)
    for e, c in terms:
        cur[:, e] = c
    cur %= p
    for _ in range(7):
        acc = np.zeros_like(cur)
        for e, c in terms:
            acc[:, e:] += c * cur[:, :n_max - e]
        cur = acc % p
    M = math.prod(TAU_PRIMES)
    out = [0]
    for residues in zip(*(row.tolist() for row in cur)):
        v = sum(r * (M // q) * pow(M // q, -1, q) for r, q in zip(residues, TAU_PRIMES)) % M
        out.append(v - M if v > M // 2 else v)
    return out


def test_tau_matches_kronecker_oracle(coeffs):
    assert coeffs.tau == _kronecker_tau(coeffs.n_max)
    assert all(type(t) is int for t in coeffs.tau)
    for n_max in (1, 2, 3, 10):
        assert tau_table(n_max).tau == _kronecker_tau(n_max)


def test_tau_matches_sparse_oracle(coeffs, coeffs_5e4):
    for c in (coeffs, coeffs_5e4):
        assert c.tau == _sparse_tau(c.n_max)
    for n_max in (1, 2, 3, 10):
        assert tau_table(n_max).tau == _sparse_tau(n_max)


def test_fft_rounding_guard_bites(monkeypatch):
    # 26-bit limbs put the limb products far beyond float64's 53 bits
    monkeypatch.setattr(dv, "_LIMB_BITS", 26)
    with pytest.raises(ResourceLimit, match="rounding"):
        tau_table(3000)


def test_rint_exact_rejects_each_doubt():
    assert dv._rint_exact(np.array([1.2, -3.0, 2.0**49 + 0.125])).tolist() == [1, -3, 2**49]
    with pytest.raises(ResourceLimit):
        dv._rint_exact(np.array([1.0, 7.25]))
    with pytest.raises(ResourceLimit):
        dv._rint_exact(np.array([2.0**51]))  # integral, but too coarse to tell


def test_tau_table_reaches_its_cap():
    # the top of the range against the table's own small entries, through
    # Hecke's relations, a route independent of the FFT squarings
    tau = tau_table(TAU_N_MAX).tau
    assert TAU_N_MAX == 10**6 and len(tau) == TAU_N_MAX + 1

    def prime_power(p, j):
        prev, cur = 1, tau[p]
        for _ in range(j - 1):
            prev, cur = cur, tau[p] * cur - p**11 * prev
        return cur

    assert tau[10**6] == prime_power(2, 6) * prime_power(5, 6)
    assert tau[999999] == tau[27] * tau[7] * tau[11] * tau[13] * tau[37]


def test_tau_crt_modulus_covers_deligne_bound():
    # |tau(n)| <= d(n) n^{11/2} with d(n) <= 240 up to 10^6; the symmetric
    # residue needs the product of the primes above twice that
    assert TAU_N_MAX <= 10**6
    assert all(is_prime(p) and p < 2**31 for p in TAU_PRIMES)
    assert math.prod(TAU_PRIMES) ** 2 > (2 * 240) ** 2 * TAU_N_MAX**11


def test_crt_symmetric_folds_at_the_boundary():
    M = math.prod(TAU_PRIMES)
    h = (M - 1) // 2  # M is odd, so the symmetric range is [-h, h]
    values = [h, -h, h + 1, 0, 1, -1]
    residues = np.array([[v % p for v in values] for p in TAU_PRIMES], dtype=np.int64)

    def oracle(res):
        v = sum(r * (M // p) * pow(M // p, -1, p) for r, p in zip(res, TAU_PRIMES)) % M
        return v - M if v > M // 2 else v

    want = [oracle([int(x) for x in col]) for col in residues.T]
    assert want == [h, -h, -h, 0, 1, -1]
    got = dv._crt_symmetric(residues, TAU_PRIMES)
    assert got == want and all(type(x) is int for x in got)


def test_tau_small_values(coeffs):
    assert coeffs.tau[1] == 1
    assert coeffs.tau[2] == -24
    assert coeffs.tau[3] == 252
    assert coeffs.tau[4] == -1472
    assert coeffs.tau[5] == 4830
    assert coeffs.tau[6] == -6048
    assert coeffs.tau[6] == coeffs.tau[2] * coeffs.tau[3]


def test_tau_hecke_relations(coeffs):
    assert hecke_violations(coeffs) == 0


def test_tau_congruence_691(coeffs):
    sig = sigma11_mod(coeffs.n_max)
    for n in range(1, coeffs.n_max + 1):
        assert (coeffs.tau[n] - int(sig[n])) % 691 == 0


def test_lambda_bounded_by_d2(coeffs):
    d2 = d2_table(coeffs.n_max)
    assert (np.abs(coeffs.lam[1:]) <= d2[1:] + 1e-9).all()


def _lambda_star_one(coeffs, n):
    """Oracle: sum_{d | n} lambda(d), one divisor at a time."""
    return float(sum(coeffs.lam[d] for d in range(1, n + 1) if n % d == 0))


def _tau_star_one(coeffs, n):
    """Oracle: the exact sum_{d | n} tau(d)."""
    return sum(coeffs.tau[d] for d in range(1, n + 1) if n % d == 0)


def test_lambda_star_one_values(coeffs):
    assert _lambda_star_one(coeffs, 1) == 1.0
    lam = coeffs.lam
    assert abs(_lambda_star_one(coeffs, 7) - (1 + lam[7])) < 1e-15
    assert abs(_lambda_star_one(coeffs, 4) - (1 + lam[2] + lam[4])) < 1e-15
    table = lambda_star_one_table(coeffs, 50)
    for n in (1, 4, 7, 12, 50):
        assert abs(table[n] - _lambda_star_one(coeffs, n)) < 1e-12


def _sieve_oracle(coeffs, x):
    out = np.zeros(x + 1)
    for d in range(1, x + 1):
        out[d::d] += coeffs.lam[d]
    return out


@pytest.fixture(scope="module")
def coeffs_5e4():
    return tau_table(50000)


@pytest.mark.parametrize("x", [1, 2, 50, 2000, 50000])
def test_lambda_star_one_table_equals_sieve(coeffs_5e4, x):
    assert np.array_equal(lambda_star_one_table(coeffs_5e4, x),
                          _sieve_oracle(coeffs_5e4, x))


def test_tau_star_one_exact(coeffs):
    assert _tau_star_one(coeffs, 6) == 1 - 24 + 252 - 6048
    with pytest.raises(OutOfRange):
        lambda_star_one_table(coeffs, coeffs.n_max + 1)


def test_discrepancy_centering_float(coeffs):
    x, q = 2000, 53
    reports = discrepancy_all(coeffs, x, q)
    assert len(reports) == q - 1
    assert abs(sum(r.E for r in reports)) < 1e-7


def test_discrepancy_centering_exact(coeffs):
    # the class sums against the hyperbola count, within the stated budget
    for x, q in ((500, 11), (1000, 53), (3000, 101), (20, 53)):
        residual, budget = hyperbola_residual(coeffs, x, q)
        assert residual <= budget
        assert math.isclose(budget, 1e-13 * sum(abs(coeffs.lam[d]) * (x // d + 1)
                                                for d in range(1, x + 1)),
                            rel_tol=1e-9)


def test_hyperbola_residual_flags_one_corrupted_class(coeffs):
    x, q = 3000, 53
    reports = discrepancy_all(coeffs, x, q)
    _, budget = hyperbola_residual(coeffs, x, q, reports)
    bad = list(reports)
    bad[17] = dataclasses.replace(bad[17], raw=bad[17].raw + 2 * budget)
    residual, _ = hyperbola_residual(coeffs, x, q, bad)
    assert budget < residual < 3 * budget


def test_discrepancy_empty_progression(coeffs):
    # x < q and a > x: the raw count is 0 and E = -average
    x, q = 20, 53
    rep = discrepancy_all(coeffs, x, q)[37 - 1]
    assert rep.a == 37
    assert rep.raw == 0
    assert abs(rep.E + rep.main) < 1e-12


def test_discrepancy_rejects_composite_modulus(coeffs):
    # phi(15) = 8 and the classes 3, 5, 6, 9, 10, 12 are not units
    with pytest.raises(CompositeModulus):
        discrepancy_all(coeffs, 500, 15)
    with pytest.raises(CompositeModulus):
        hyperbola_residual(coeffs, 500, 15)


# ------------------------------------------------------------------- ktilde

@pytest.fixture(scope="module")
def ctx3_53():
    return SumProductContext(kloosterman_table(3, make_prime_field(53)))


def test_ktilde_zero_function(ctx3_53):
    K = np.zeros(53)
    assert ktilde(K, 5, ctx3_53) == 0


def test_ktilde_delta_identity(ctx3_53):
    q = 53
    for a in (1, 2, 17):
        K = np.zeros(q)
        K[a] = 1.0
        for m in (0, 1, 5, 30):
            got = ktilde(K, m, ctx3_53)
            want = ctx3_53.twisted[a * m % q] / math.sqrt(q)
            assert abs(got - want) < 1e-12
        allm = ktilde_all(K, ctx3_53)
        want_all = ctx3_53.twisted[(a * np.arange(q)) % q] / math.sqrt(q)
        assert np.abs(allm - want_all).max() < 1e-12


def test_ktilde_linearity(ctx3_53):
    rng = np.random.default_rng(0)
    K1, K2 = rng.normal(size=53), rng.normal(size=53)
    lhs = ktilde(K1 + 2.0 * K2, 7, ctx3_53)
    rhs = ktilde(K1, 7, ctx3_53) + 2.0 * ktilde(K2, 7, ctx3_53)
    assert abs(lhs - rhs) < 1e-10


# ----------------------------------------------------------- bound brackets

def test_combined_bounds_special_saving():
    q = 10**4
    M = N = math.sqrt(q)
    out = combined_bounds(M, N, q)
    assert abs(out["special"] - M * N * q ** (-1 / 24)) < 1e-6


def test_combined_bounds_substitutions():
    q = 401
    out = combined_bounds(M=4.0, N=float(q), q=q)  # N = q: special flagged
    assert abs(out["pv"] - 4 * q * (1 / q + q ** -0.5)) < 1e-9
    assert out["special_failed"] == ["N < q"] and math.isnan(out["special"])
    out2 = combined_bounds(M=float(q), N=float(q) / 2, q=q)
    assert abs(out2["linear"] - q * (q ** -0.125 + q ** 0.375 / math.sqrt(q))) < 1e-9


def test_combined_bounds_hypothesis_violation():
    out = combined_bounds(M=100.0, N=2.0, q=11)
    assert set(out["special_failed"]) == {"M <= N^2", "MN <= q^{3/2}"}
    with pytest.raises(HypothesisViolated):
        combined_bounds(M=100.0, N=2.0, q=11, strict=True)


# ------------------------------------------------------------- exponent LP

def test_bound_exponents_spec_point():
    vals = bound_exponents(0.75, 0.75, 0.0)
    assert abs(vals[4] - 1.3125) < 1e-12  # 1.5 + 0.25 - 0.125 - 0.3125


def test_bound_exponents_pv_linear_form():
    # nu' <= 3/2 always holds on the feasible band, so the completion bound
    # reduces to mu' + 1/2
    f1 = bound_exponents(0.4, 0.7)[0]
    assert abs(f1 - 0.9) < 1e-12


def test_bound_exponents_special_inapplicable():
    vals = bound_exponents(0.9, 0.4)  # mu' > 2 nu'
    assert vals[4] == math.inf


@settings(max_examples=80, deadline=None)
@given(st.floats(0, 1.2), st.floats(0, 1.0))
def test_bound_exponents_replacements_hold(mu_p, nu_p):
    # on the band, each simplified form either coincides with the full bound
    # or the full bound's other branch is already below 1
    delta = 0.05
    if not 1 <= mu_p + nu_p <= 1 + delta:
        return
    f1, f2, *_ = bound_exponents(mu_p, nu_p, delta)
    assert abs(f1 - (mu_p + 0.5)) < 1e-12  # nu' <= 3/2 on the band
    f2bis = (mu_p + nu_p) / 2 + nu_p / 2 + 0.375
    assert abs(f2 - f2bis) < 1e-12 or f2 <= 1 + delta - 0.125 + 1e-12
    assert mu_p + nu_p - 1 <= 1 + delta - 0.125 + 1e-12


def test_case_analysis_pass_and_fail():
    ok = exponent_case_analysis(ExponentConfig(delta=0.03, kappa=1e-3))
    assert ok.passed and not ok.witnesses
    bad = exponent_case_analysis(ExponentConfig(delta=0.05, kappa=1e-3))
    assert not bad.passed and bad.witnesses
    mu_p, nu_p, _ = bad.witnesses[0]
    # the witness sits where the special/general brackets cross, near
    # mu' = 5(1+delta)/9 on the top boundary
    assert abs(mu_p + nu_p - 1.05) < 5e-3


def test_delta_eta_conversion():
    assert abs(delta_to_eta(1 / 26) - 1 / 102) < 1e-15
    cfg = ExponentConfig(eta=1 / 102)
    assert abs(cfg.resolved_delta() - 1 / 26) < 1e-12
    with pytest.raises(ValueError):
        ExponentConfig(delta=0.05, eta=0.001)


def test_delta_star_search():
    res = delta_star_search()
    assert abs(res["delta_star"] - 1 / 26) < 1e-3
    assert abs(res["eta_star"] - 1 / 102) < 1e-3


def test_slack_sensitivity_monotone():
    base = delta_star_search()["delta_star"]
    loose = delta_star_search(slack=1e-2)["delta_star"]
    assert loose < base


def test_delta_star_exact_values():
    res = delta_star_search()
    assert Fraction(res["delta_star_exact"]) == Fraction(1, 26)
    assert Fraction(res["eta_star_exact"]) == Fraction(1, 102)
    shifted = delta_star_search(kappa=Fraction(1, 1000))
    assert Fraction(shifted["delta_star_exact"]) == Fraction(241, 6500)
    loose = delta_star_search(slack=Fraction(1, 100))
    assert Fraction(loose["delta_star_exact"]) == Fraction(37, 1300)


def test_case_analysis_exact_worst():
    ok = exponent_case_analysis(ExponentConfig(delta=Fraction(3, 100)))
    assert ok.worst == Fraction(1789, 1800)
    bad = exponent_case_analysis(ExponentConfig(delta=Fraction(1, 20)))
    assert bad.worst == Fraction(121, 120)
    assert bad.worst_at == (Fraction(7, 12), Fraction(7, 15))


@pytest.mark.parametrize("kappa, slack", [(0, 0), (Fraction(1, 1000), 0),
                                          (0, Fraction(1, 100))])
def test_worst_at_delta_star_is_the_level(kappa, slack):
    ds = Fraction(delta_star_search(kappa, slack)["delta_star_exact"])
    at = exponent_case_analysis(ExponentConfig(delta=ds, kappa=kappa, slack=slack))
    assert at.passed and at.worst == 1 - kappa
    above = exponent_case_analysis(ExponentConfig(delta=ds + Fraction(1, 10**6),
                                                  kappa=kappa, slack=slack))
    assert not above.passed
    if (kappa, slack) == (0, 0):
        assert at.worst_at == (Fraction(15, 26), Fraction(6, 13))


@settings(max_examples=60, deadline=None)
@given(st.fractions(0, Fraction(1, 5), max_denominator=1000),
       st.fractions(0, Fraction(1, 20), max_denominator=1000),
       st.fractions(0, 1, max_denominator=1000),
       st.fractions(0, 1, max_denominator=1000))
def test_worst_vertex_is_sound_and_attained(delta, slack, u, t):
    v = exponent_case_analysis(ExponentConfig(delta=delta, slack=slack))
    # a point of the band {mu', nu' >= 0, nu' <= 1 + slack,
    # 1 <= mu' + nu' <= 1 + delta + slack}
    s = 1 + u * (delta + slack)
    nu = t * min(1 + slack, s)
    assert min(bound_exponents(s - nu, nu)) <= v.worst
    mu_w, nu_w = v.worst_at
    assert mu_w >= 0 and 0 <= nu_w <= 1 + slack
    assert 1 <= mu_w + nu_w <= 1 + delta + slack
    assert min(bound_exponents(mu_w, nu_w)) == v.worst


@pytest.mark.parametrize("delta, slack", [(-0.5, 0.0), (-0.03, 0.02), (2.0, -1.5)])
def test_case_analysis_rejects_empty_band(delta, slack):
    with pytest.raises(OutOfRange):
        exponent_case_analysis(ExponentConfig(delta=delta, slack=slack))


def test_case_analysis_segment_band():
    # delta + slack = 0 leaves the segment mu' + nu' = 1, not an empty band
    v = exponent_case_analysis(ExponentConfig(delta=-0.01, slack=0.01))
    assert v.passed and v.worst < 1


def test_slack_beyond_vertex_validity_rejected():
    with pytest.raises(OutOfRange):
        exponent_case_analysis(ExponentConfig(delta=0.03, slack=1.0))


def test_grid_option_is_gone(tmp_path, capsys):
    assert main(["exponent-lp", "--search", "--grid", "1e-3"]) == 1
    cfg = tmp_path / "klab.cfg"
    cfg.write_text("[exponent-lp]\ngrid = 1e-3\n")
    assert main(["--config", str(cfg), "exponent-lp", "--delta", "0.03"]) == 1
    assert "Traceback" not in capsys.readouterr().err
