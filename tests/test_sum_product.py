import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klab.sum_product as sp
from klab.errors import NoGenericTuple, NotDistinct, RangeTooLarge, WrongParity
from klab.fields import build_extension, make_prime_field
from klab.kloosterman import kloosterman_table
from klab.sum_product import (ScanSpec, SumProductContext, big_k, big_r,
                              classify_tuple, correlation_matrix_cdiag,
                              full_average_moment, full_average_moment_naive,
                              is_generic_tuple, noncorrelation_moment,
                              product_grid, ratio_scan, sample_generic_tuples,
                              scan_bad_tuples, second_moment_r_lambda,
                              second_moment_r_lambda_naive, sigma_incomplete,
                              sigma_neq, zero_sum_patterns)


@pytest.fixture(scope="module")
def ctx13():
    return SumProductContext(kloosterman_table(2, make_prime_field(13)))


@pytest.fixture(scope="module")
def ctx13k3():
    return SumProductContext(kloosterman_table(3, make_prime_field(13)))


@pytest.fixture(scope="module")
def ctx53():
    return SumProductContext(kloosterman_table(2, make_prime_field(53)))


def brute_big_r(ctx, r, lam, b):
    """Independent nested-loop oracle built from scalar table lookups."""
    f = ctx.field
    total = 0j
    for s in range(f.size):
        term = complex(f.psi_vec[f.mul(lam, s)])
        term *= complex(ctx.twisted[f.mul(s, f.add(r, b[0]))])
        term *= complex(ctx.twisted[f.mul(s, f.add(r, b[1]))])
        term *= (complex(ctx.twisted[f.mul(s, f.add(r, b[2]))])
                 * complex(ctx.twisted[f.mul(s, f.add(r, b[3]))])).conjugate()
        total += term
    return total


def psi_column(ctx, lam):
    """psi(lam * s) for every s, the column that turns a grid into big_r."""
    f = ctx.field
    return f.psi_vec[f.mul_vec(lam, np.arange(f.size))]


# ----------------------------------------------------------------- big_k/big_r

def test_big_k_absolute_value_collapse(ctx13):
    v = big_k(ctx13, 3, 2, 0, (0, 0, 0, 0))
    assert abs(v.imag) < 1e-12 and v.real >= -1e-12
    assert abs(v - abs(complex(ctx13.twisted[6])) ** 4) < 1e-12


def test_big_k_zero_s(ctx13):
    assert big_k(ctx13, 5, 0, 1, (1, 2, 3, 4)) == 0


def test_big_k_bounded_by_k4_full_scan():
    q = 53
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(q)))
    from klab.sum_product import product_grid
    assert np.abs(product_grid(ctx, (1, 2, 3, 5))).max() <= 16 + 1e-9


def test_big_r_constant_for_zero_tuple(ctx13):
    t = (np.abs(ctx13.twisted) ** 4).sum()
    for r in range(1, 13):
        assert abs(big_r(ctx13, r, 0, (0, 0, 0, 0)) - t) < 1e-10
    assert abs(big_r(ctx13, 0, 0, (0, 0, 0, 0))) < 1e-12


def test_big_r_vanishes_when_factor_pinned_at_zero(ctx13):
    b = (1, 2, 3, 5)
    assert abs(big_r(ctx13, 13 - 1, 4, b)) < 1e-12  # r = -b_1


def test_big_r_matches_nested_loop_oracle():
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(53)))
    b = (1, 2, 3, 5)
    got = big_r(ctx, 7, 1, b)
    assert abs(got - brute_big_r(ctx, 7, 1, b)) < 1e-9


_PROPERTY_FIELDS = ((5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2))


@lru_cache(maxsize=None)
def _property_table(q, d, k):
    base = make_prime_field(q)
    return kloosterman_table(k, base if d == 1 else build_extension(base, d))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_PROPERTY_FIELDS), st.integers(2, 3), st.data())
def test_product_grid_matches_scalar_big_k(fd, k, data):
    # the row-gather kernel against big_k's scalar field operations
    q, d = fd
    Q = q**d
    cell = st.integers(0, Q - 1)
    ctx = SumProductContext(_property_table(q, d, k), c=data.draw(st.integers(1, Q - 1)))
    b = tuple(data.draw(st.lists(cell, min_size=4, max_size=4)))
    r, s = data.draw(cell), data.draw(cell)
    assert abs(product_grid(ctx, b)[r, s] - big_k(ctx, r, s, 0, b)) < 1e-12


def test_context_builds_row_table_lazily():
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(53)), c=3)
    assert "row_table" not in vars(ctx)
    product_grid(ctx, (1, 2, 3, 5))
    T = vars(ctx)["row_table"]
    assert T.shape == (53, 53) and T[4, 7] == ctx.twisted[28]


def test_r_profile_matches_big_r(ctx13):
    b = (1, 2, 3, 5)
    prof = product_grid(ctx13, b) @ psi_column(ctx13, 2)
    for r in (0, 1, 5, 12):
        assert abs(prof[r] - big_r(ctx13, r, 2, b)) < 1e-10


def test_c_twist_covariance():
    f = make_prime_field(13)
    t = kloosterman_table(2, f)
    c = 5
    ctx_c = SumProductContext(t, c=c)
    ctx_1 = SumProductContext(t, c=1)
    cinv = pow(c, 11, 13)
    b = (1, 2, 3, 5)
    for lam in (0, 1, 7):
        lhs = big_r(ctx_c, 4, lam, b)
        rhs = big_r(ctx_1, 4, lam * cinv % 13, b)
        assert abs(lhs - rhs) < 1e-10


# ------------------------------------------------------------ classification

@pytest.mark.parametrize("b,k,expect", [
    ((1, 2, 2, 1), 2, "diagonal"),
    ((2, 5, 5, 2), 3, "diagonal"),
    ((1, 1, 2, 3), 2, "generic"),
    ((1, 1, 2, 2), 3, "generic"),  # {1,1} != {2,2} despite even multiplicities
    ((1, 1, 2, 2), 2, "diagonal"),
    ((3, 3, 3, 3), 2, "diagonal"),
])
def test_classify_tuple(b, k, expect):
    assert classify_tuple(b, k) == expect


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=4, max_size=4))
def test_classify_sp_is_permutation_invariant(b):
    import itertools
    base = classify_tuple(tuple(b), 2)
    for perm in itertools.permutations(b):
        assert classify_tuple(perm, 2) == base


# ---------------------------------------------------------------- genericity

def test_zero_sum_patterns_k2():
    f = make_prime_field(11)
    pats = set(zero_sum_patterns(f, 2))
    assert pats == {(1, 1, 1), (10, 1, 10), (10, 10, 1)}


def test_is_generic_excludes_pairing_hyperplanes():
    f = make_prime_field(11)
    assert not is_generic_tuple((1, 2, 3, 0), 2, f)  # 1+2 = 3+0
    assert not is_generic_tuple((5, 2, 3, 4), 2, f)  # 5-2 = 3+... 5+2-3-4=0
    assert not is_generic_tuple((1, 2, 1, 5), 2, f)  # repeated coordinate
    assert is_generic_tuple((1, 2, 3, 5), 2, f)
    # k=3, q=13: mu_3 = {1,3,9}; zero-sum patterns are (z,1,z) and (z,z,1)
    f13 = make_prime_field(13)
    pats = set(zero_sum_patterns(f13, 3))
    assert pats == {(1, 1, 1), (3, 1, 3), (3, 3, 1), (9, 1, 9), (9, 9, 1)}


def test_sample_generic_tuples_all_generic():
    f = make_prime_field(53)
    rng = np.random.default_rng(0)
    ts = sample_generic_tuples(f, 2, 200, rng)
    assert ts.shape == (200, 4)
    assert all(is_generic_tuple(tuple(int(x) for x in t), 2, f) for t in ts)


@pytest.mark.parametrize("q, d, k", [(q, 1, k) for q in (3, 5, 7) for k in range(2, 6)]
                         + [(3, 2, 2), (3, 2, 4)])
def test_sampler_agrees_with_enumeration(q, d, k):
    # the sampler returns generic tuples exactly when some tuple is generic,
    # and otherwise raises before it draws
    f = make_prime_field(q)
    if d > 1:
        f = build_extension(f, d)
    exists = any(is_generic_tuple(b, k, f)
                 for b in itertools.product(range(f.size), repeat=4))
    rng = np.random.default_rng(0)
    if exists:
        ts = sample_generic_tuples(f, k, 20, rng)
        assert all(is_generic_tuple(tuple(int(x) for x in t), k, f) for t in ts)
    else:
        state = rng.bit_generator.state
        with pytest.raises(NoGenericTuple):
            sample_generic_tuples(f, k, 20, rng)
        assert rng.bit_generator.state == state


# ------------------------------------------------------------ complete sums

def test_complete_sum_diagonal_is_real_nonnegative(ctx13, ctx13k3):
    for ctx in (ctx13, ctx13k3):
        v = product_grid(ctx, (1, 2, 1, 2))[:, 2].sum()
        assert abs(v.imag) < 1e-10 and v.real >= -1e-10


def test_complete_sum_c_multiplicativity():
    f = make_prime_field(13)
    t = kloosterman_table(2, f)
    ctx_c = SumProductContext(t, c=4)
    ctx_1 = SumProductContext(t, c=1)
    G_c = product_grid(ctx_c, (1, 2, 3, 5))
    G_1 = product_grid(ctx_1, (1, 2, 3, 5))
    for s in (1, 3, 7):
        assert abs(G_c[:, s].sum() - G_1[:, 4 * s % 13].sum()) < 1e-10


def test_complete_corr_conjugate_swap(ctx13):
    # the full grid against the kernel's sliced route, s taken in swapped order
    G = product_grid(ctx13, (1, 2, 3, 5))
    H = sp._four_fold(ctx13, [(1, 2, 3, 5)], s=[5, 2])[0]
    v12 = (G[:, 2] * np.conj(G[:, 5])).sum()
    v21 = (H[:, 0] * np.conj(H[:, 1])).sum()
    assert abs(v12 - v21.conjugate()) < 1e-10


def test_complete_corr_scan_bounded():
    ctx = SumProductContext(kloosterman_table(3, make_prime_field(53)))
    G = product_grid(ctx, (1, 2, 3, 5))
    v = (G[:, 1] * np.conj(G[:, 2])).sum()
    assert abs(v) / math.sqrt(53) < 20


# ------------------------------------------------------- r-linear sum, corr

def test_r_linear_sum_fubini(ctx13):
    b = (1, 2, 3, 5)
    lam = 7
    direct = sum(big_r(ctx13, r, lam, b) for r in range(13))
    assert abs(product_grid(ctx13, b).sum(0) @ psi_column(ctx13, lam) - direct) < 1e-9


def test_r_correlation_degenerate_zero_tuple(ctx13):
    t = (np.abs(ctx13.twisted) ** 4).sum()
    R = product_grid(ctx13, (0, 0, 0, 0)) @ psi_column(ctx13, 0)
    got = R @ np.conj(R)
    # the r = 0 slice vanishes, leaving q - 1 identical terms
    assert abs(got - 12 * t * t) < 1e-8


def test_r_correlation_matches_profiles(ctx13):
    b = (1, 2, 3, 5)
    G = product_grid(ctx13, b)
    got = (G @ psi_column(ctx13, 1)) @ np.conj(G @ psi_column(ctx13, 4))
    # oracle: the profiles from scalar table lookups
    want = sum(brute_big_r(ctx13, r, 1, b) * brute_big_r(ctx13, r, 4, b).conjugate()
               for r in range(13))
    assert abs(got - want) < 1e-9


def test_plancherel_identity_per_r(ctx13):
    from klab.sum_product import product_grid
    b = (1, 2, 3, 5)
    G = product_grid(ctx13, b)
    Q = 13
    ids = np.arange(Q)
    psi_mat = ctx13.field.psi_vec[(ids[:, None] * ids[None, :]) % Q]
    R = G @ psi_mat  # [r, lam]
    lhs = (np.abs(R) ** 2).sum(axis=1)
    rhs = Q * (np.abs(G) ** 2).sum(axis=1)
    assert np.abs(lhs - rhs).max() < 1e-8 * Q * Q


# ------------------------------------------------------------ second moments

def test_second_moment_shortcut_equals_naive():
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(11)))
    b = (1, 2, 3, 5)
    a = second_moment_r_lambda(ctx, b)
    c = second_moment_r_lambda_naive(ctx, b)
    assert abs(a - c) / abs(c) < 1e-6


def test_second_moment_extension_field():
    f = build_extension(make_prime_field(11), 2)
    ctx = SumProductContext(kloosterman_table(2, f))
    b = (1, 2, 3, 5)
    v = second_moment_r_lambda(ctx, b)
    assert abs(v - 121) <= 20 * 11


def test_second_moment_requires_distinct(ctx13):
    with pytest.raises(NotDistinct):
        second_moment_r_lambda(ctx13, (1, 1, 2, 3))


def test_noncorrelation_parity(ctx13, ctx13k3):
    with pytest.raises(WrongParity):
        noncorrelation_moment(ctx13, (1, 2, 3, 5))
    v = noncorrelation_moment(ctx13k3, (1, 2, 3, 5))
    assert abs(v.imag) <= 1e-9 * (abs(v) + 1)  # conjugate pairing in lam
    assert abs(v) / math.sqrt(13) < 25


def test_noncorrelation_matches_definition():
    ctx = SumProductContext(kloosterman_table(3, make_prime_field(11)))
    b = (1, 2, 3, 5)
    Q = 11
    total = 0j
    for r in range(Q):
        for lam in range(Q):
            total += big_r(ctx, r, lam, b) * big_r(ctx, r, (-lam) % Q, b).conjugate()
    assert abs(total / Q**2 - noncorrelation_moment(ctx, b)) < 1e-8


def test_full_average_reduction_vs_naive():
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(11)))
    a = full_average_moment(ctx)
    b = full_average_moment_naive(ctx)
    assert abs(a - b) / abs(b) < 1e-6


def test_correlation_diag_constant(ctx13):
    C = correlation_matrix_cdiag(ctx13)
    diag = np.diagonal(C)[1:]
    assert np.abs(diag - diag[0]).max() < 1e-10


# ------------------------------------------------------------ incomplete sums

def test_sigma_incomplete_empty(ctx13):
    assert sigma_incomplete(ctx13, (1, 2, 3, 5), 1, 0) == 0


def test_sigma_incomplete_loop_reorder():
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(101)))
    b = (1, 2, 3, 5)
    A, M = 2, 5
    got = sigma_incomplete(ctx, b, A, M)
    tv = ctx.twisted
    q = 101
    acc = 0j
    for s in range(1, 2 * A * M + 1):
        for r in range(q):
            acc += (complex(tv[s * (r + b[0]) % q]) * complex(tv[s * (r + b[1]) % q])
                    * (complex(tv[s * (r + b[2]) % q]) * complex(tv[s * (r + b[3]) % q])).conjugate())
    assert abs(got - acc) < 1e-8


def test_sigma_incomplete_diagonal_under_trivial_bound(ctx53):
    b = (1, 2, 1, 2)
    A, M = 2, 3
    v = sigma_incomplete(ctx53, b, A, M)
    assert abs(v) <= 2 * A * M * 53 * 16  # |K| <= k per factor


def test_sigma_incomplete_cap(ctx13):
    with pytest.raises(RangeTooLarge):
        sigma_incomplete(ctx13, (1, 2, 3, 5), 10**6, 10**6)


def test_sigma_neq_empty(ctx13):
    assert sigma_neq(ctx13, (1, 2, 3, 5), 1) == 0


def test_sigma_neq_nested_loop_oracle():
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(53)))
    b = (1, 2, 3, 5)
    AM = 6
    got = sigma_neq(ctx, b, AM)
    tv = ctx.twisted
    q = 53
    acc = 0j

    def quad(s, r):
        return (complex(tv[s * (r + b[0]) % q]) * complex(tv[s * (r + b[1]) % q])
                * (complex(tv[s * (r + b[2]) % q]) * complex(tv[s * (r + b[3]) % q])).conjugate())

    for s1 in range(1, AM + 1):
        for s2 in range(1, AM + 1):
            if (s1 - s2) % q == 0:
                continue
            for r in range(q):
                acc += quad(s1, r) * quad(s2, r).conjugate()
    assert abs(got - acc) < 1e-8


def test_sigma_neq_swap_conjugation(ctx53):
    b = (1, 2, 3, 5)
    swapped = (3, 5, 1, 2)
    v = sigma_neq(ctx53, b, 5)
    w = sigma_neq(ctx53, swapped, 5)
    assert abs(v - w.conjugate()) < 1e-8


# ----------------------------------------------------------------- scanning

def test_scan_flags_all_diagonal_and_only_diagonal_at_inf():
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(11)))
    res = scan_bad_tuples(ctx, thresholds={"r_linear": math.inf, "corr": math.inf},
                          spec=ScanSpec(lambdas=(0, 1)))
    assert res.exhaustive
    for row in res.rows:
        assert row.flagged == (row.classification == "diagonal")


def test_scan_sampled_deterministic():
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(37)))
    spec = ScanSpec(n_samples=64, seed=5)
    r1 = scan_bad_tuples(ctx, spec=spec)
    r2 = scan_bad_tuples(ctx, spec=spec)
    assert not r1.exhaustive
    assert [row.b for row in r1.rows] == [row.b for row in r2.rows]
    assert r1.thresholds == r2.thresholds


def test_scan_flagged_fraction_small_q():
    # exhaustive scans flag the diagonal plus threshold outliers: a small
    # fraction that shrinks as q grows
    fracs = []
    for q in (11, 19):
        ctx = SumProductContext(kloosterman_table(2, make_prime_field(q)))
        res = scan_bad_tuples(ctx, spec=ScanSpec(lambdas=(0, 1)))
        assert res.exhaustive
        assert res.flagged_fraction <= 0.10
        fracs.append(res.flagged_fraction)
    assert fracs[1] < fracs[0]


def test_ratio_scan_reports(ctx53):
    reps = ratio_scan(ctx53, n_samples=40, seed=3, replicates=2)
    assert set(reps) == set("KRCD")
    for rep in reps.values():
        assert rep.max_ratio >= rep.mean_ratio >= 0
    again = ratio_scan(ctx53, n_samples=40, seed=3, replicates=2)
    assert again["K"].max_ratio == reps["K"].max_ratio
