import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klab.bilinear import (bilinear_form, kloosterman_matrix, nontrivial_threshold,
                           operator_norm, operator_norm_dense, pv_bound,
                           saving_exponent, saving_sweep, shift_identity_check,
                           thm_typeI_bound, thm_typeII_bound, trivial_bound,
                           typeI_hypotheses)
from klab.errors import ConstraintViolated, HypothesisViolated
from klab.fields import make_prime_field
from klab.kloosterman import kloosterman_table
from klab.sum_product import SumProductContext


@pytest.fixture(scope="module")
def ctx101():
    return SumProductContext(kloosterman_table(2, make_prime_field(101)))


def test_bilinear_single_term(ctx101):
    M, N, offset = 4, 6, 10
    alpha = np.zeros(M, dtype=np.complex128)
    beta = np.zeros(N, dtype=np.complex128)
    alpha[2] = 1.0  # m0 = 3
    beta[1] = 1.0   # n0 = offset + 1 = 11
    got = bilinear_form(ctx101, alpha, beta, offset)
    assert abs(got - complex(ctx101.twisted[3 * 11 % 101])) < 1e-14


def test_bilinear_zero_coefficients(ctx101):
    assert bilinear_form(ctx101, np.zeros(3, dtype=complex), np.zeros(3, dtype=complex),
                         offset=1) == 0


def test_bilinear_transposed_loop_oracle(ctx101):
    rng = np.random.default_rng(1)
    M = N = 10
    alpha = np.exp(2j * math.pi * rng.random(M))
    beta = np.exp(2j * math.pi * rng.random(N))
    got = bilinear_form(ctx101, alpha, beta, offset=5)
    acc = 0j
    for j, n in enumerate(range(5, 5 + N)):  # n-major order
        for i, m in enumerate(range(1, M + 1)):
            acc += alpha[i] * beta[j] * complex(ctx101.twisted[m * n % 101])
    assert abs(got - acc) < 1e-10


def test_trivial_bound_unit_modulus():
    assert abs(trivial_bound(np.ones(10, dtype=complex), np.ones(10, dtype=complex))
               - 100.0) < 1e-12
    assert trivial_bound(np.ones(4, dtype=complex), np.zeros(4, dtype=complex)) == 0


def test_measured_below_trivial_times_k(ctx101):
    rng = np.random.default_rng(3)
    for _ in range(10):
        M, N = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        alpha = np.exp(2j * math.pi * rng.random(M))
        beta = np.exp(2j * math.pi * rng.random(N))
        assert (abs(bilinear_form(ctx101, alpha, beta, offset=1))
                <= trivial_bound(alpha, beta) * ctx101.k + 1e-9)


def test_pv_bound_arithmetic():
    got = pv_bound(np.ones(100, dtype=complex), np.ones(100, dtype=complex), 10**4)
    bracket = 0.1 + 0.1 + 0.1 * 10 * math.log(10**4)
    assert abs(got - 10 * 10 * 100 * bracket) < 1e-9


def test_typeII_hypothesis_violation():
    with pytest.raises(HypothesisViolated) as exc:
        thm_typeII_bound(1, 1, 10**4, 1.0, 1.0)  # MN <= q^{1/4}
    assert any("q^{1/4} < MN" in c for c in exc.value.failed)


def test_typeI_hypothesis_violation():
    with pytest.raises(HypothesisViolated) as exc:
        thm_typeI_bound(10, 2 * 10**4, 10**4, 10.0, math.sqrt(10))  # N >= q
    assert any("N < q" in c for c in exc.value.failed)


def test_typeI_bound_special_saving():
    # M = N = q^{1/2} with unit coefficients (l1 = M, l2 = M^{1/2}): the
    # special bracket saves q^{1/24} over MN
    q = 10**4
    got = thm_typeI_bound(100, 100, q, 100.0, 10.0)
    assert abs(got - 100 * 100 * q ** (-1 / 24)) < 1e-6


@pytest.mark.parametrize("M, N, q, failed", [
    (100, 2, 11, ["1 <= M <= N^2", "MN < q^{3/2}"]),
    (4, 401, 401, ["N < q"]),
    (8, 8, 16, ["MN < q^{3/2}"]),
    (0.5, 4, 101, ["1 <= M <= N^2"]),
])
def test_typeI_bound_names_each_failed_hypothesis(M, N, q, failed):
    assert typeI_hypotheses(M, N, q) == failed
    with pytest.raises(HypothesisViolated) as exc:
        thm_typeI_bound(M, N, q, 1.0, 1.0)
    assert exc.value.failed == tuple(failed)


def test_saving_exponents_at_sqrt_q():
    assert abs(saving_exponent("general", 0.5, 0.5) - 1 / 64) < 1e-12
    assert abs(saving_exponent("special", 0.5, 0.5) - 1 / 24) < 1e-12


def test_nontrivial_thresholds():
    assert abs(nontrivial_threshold("general") - 11 / 24) < 1e-6
    assert abs(nontrivial_threshold("special") - 3 / 7) < 1e-6


def test_nontrivial_thresholds_exact():
    # the crossings are rational, so they come out as the nearest floats
    assert nontrivial_threshold("general") == 11 / 24
    assert nontrivial_threshold("special") == 3 / 7


@settings(max_examples=40, deadline=None)
@given(st.floats(0.3, 0.62), st.floats(0.3, 0.62), st.floats(0.001, 0.05))
def test_typeII_bracket_monotone_in_N(eM, eN, step):
    # larger N (fixed M, q) never increases the bracket exponent
    assert (saving_exponent("general", eM, eN + step)
            >= saving_exponent("general", eM, eN) - 1e-12)


def test_shift_identity_degenerate(ctx101):
    rng = np.random.default_rng(0)
    alpha = np.exp(2j * math.pi * rng.random(3))
    dev = shift_identity_check(ctx101, alpha, offset=30, N=10, A=1, B=1)
    assert dev < 1e-12


def test_shift_identity_q101(ctx101):
    rng = np.random.default_rng(1)
    alpha = np.exp(2j * math.pi * rng.random(5))
    dev = shift_identity_check(ctx101, alpha, offset=40, N=20, A=2, B=3)
    assert dev < 1e-9


def test_shift_identity_constraint_violation(ctx101):
    alpha = np.ones(5, dtype=complex)
    with pytest.raises(ConstraintViolated):
        shift_identity_check(ctx101, alpha, offset=1, N=20, A=2, B=51)  # 2B >= q


def test_operator_norm_1x1(ctx101):
    val = operator_norm(ctx101, 1, 1, offset=7)
    assert abs(val - abs(complex(ctx101.twisted[7]))) < 1e-9


def test_operator_norm_matches_dense(ctx101):
    sig = operator_norm(ctx101, 8, 8, offset=3)
    dense = operator_norm_dense(ctx101, 8, 8, offset=3)
    assert abs(sig - dense) / dense < 1e-8


@pytest.mark.parametrize("norm", [operator_norm, operator_norm_dense])
@pytest.mark.parametrize("M, N, offset", [(5, 150, 1), (5, 5, 0), (5, 5, -3)])
def test_operator_norms_refuse_an_interval_outside_the_units(ctx101, norm, M, N, offset):
    with pytest.raises(ValueError, match=r"does not fit in \[1, 100\]"):
        norm(ctx101, M, N, offset)


@pytest.mark.parametrize("q, M, N", [(1009, 500, 700), (10007, 300, 300)])
def test_operator_norm_matches_svd_to_rounding(q, M, N):
    # 1009, 500 x 700 has a small top gap: power iteration stalled there
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(q)))
    sig = operator_norm(ctx, M, N)
    dense = operator_norm_dense(ctx, M, N)
    assert abs(sig - dense) <= 1e-12 * dense


def test_operator_norm_dominates_samples(ctx101):
    sig = operator_norm(ctx101, 6, 6, offset=2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        alpha = rng.normal(size=6) + 1j * rng.normal(size=6)
        beta = rng.normal(size=6) + 1j * rng.normal(size=6)
        l2 = [float(np.sqrt((np.abs(v) ** 2).sum())) for v in (alpha, beta)]
        ratio = abs(bilinear_form(ctx101, alpha, beta, offset=2)) / (l2[0] * l2[1])
        assert ratio <= sig + 1e-9


def test_saving_sweep_rows(ctx101):
    cols, _ = saving_sweep(ctx101, ((8, 10), (10, 10)), seed=2)
    assert {len(v) for v in cols.values()} == {6}
    rows = [dict(zip(cols, r)) for r in zip(*cols.values())]
    ones = [r for r in rows if r["ensemble"] == "ones"]
    for r in ones:
        A = kloosterman_matrix(ctx101, r["M"], r["N"], 1)
        assert abs(r["measured"] - abs(A.sum())) < 1e-9
    for r in rows:
        assert r["measured"] <= r["trivial"] * ctx101.k + 1e-9
        if r["measured"] > 0:
            assert abs(r["gamma"] - math.log(r["trivial"] / r["measured"], 101)) < 1e-12
    again, _ = saving_sweep(ctx101, ((8, 10), (10, 10)), seed=2)
    assert again["measured"] == cols["measured"]
