import itertools
import math
import tracemalloc
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klab.sum_product as sp
from klab.errors import (NoGenericTuple, NotDistinct, OutOfRange, RangeTooLarge,
                         WrongParity)
from klab.fields import build_extension, make_prime_field, roots_of_unity
from klab.kloosterman import kloosterman_table
from klab.sum_product import (ScanSpec, SumProductContext, diagonal_mask,
                              full_average_moment, noncorrelation_moment,
                              product_grid, ratio_scan, sample_generic_tuples,
                              scan_bad_tuples, second_moment_r_lambda,
                              second_moment_r_lambda_naive, sigma_incomplete,
                              sigma_neq)

from grid_oracle import (big_k, correlation_matrix, full_average_moment_naive,
                         literal_grid)


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
    """psi(lam * s) for every s, the column that turns a grid into R(r, lam, b)."""
    f = ctx.field
    return f.psi_vec[f.mul_vec(lam, np.arange(f.size))]


# ------------------------------------------------------- K(r, s, lam, b), R(r, lam, b)

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
        assert abs(product_grid(ctx13, (0, 0, 0, 0))[r] @ psi_column(ctx13, 0) - t) < 1e-10
    assert abs(product_grid(ctx13, (0, 0, 0, 0))[0] @ psi_column(ctx13, 0)) < 1e-12


def test_big_r_vanishes_when_factor_pinned_at_zero(ctx13):
    b = (1, 2, 3, 5)
    assert abs(product_grid(ctx13, b)[13 - 1] @ psi_column(ctx13, 4)) < 1e-12  # r = -b_1


def test_big_r_matches_nested_loop_oracle():
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(53)))
    b = (1, 2, 3, 5)
    got = product_grid(ctx, b)[7] @ psi_column(ctx, 1)
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


def test_r_profile_matches_big_r(ctx13):
    b = (1, 2, 3, 5)
    prof = product_grid(ctx13, b) @ psi_column(ctx13, 2)
    for r in (0, 1, 5, 12):
        assert abs(prof[r] - brute_big_r(ctx13, r, 2, b)) < 1e-10


def test_c_twist_covariance():
    f = make_prime_field(13)
    t = kloosterman_table(2, f)
    c = 5
    ctx_c = SumProductContext(t, c=c)
    ctx_1 = SumProductContext(t, c=1)
    cinv = pow(c, 11, 13)
    b = (1, 2, 3, 5)
    for lam in (0, 1, 7):
        lhs = product_grid(ctx_c, b)[4] @ psi_column(ctx_c, lam)
        rhs = product_grid(ctx_1, b)[4] @ psi_column(ctx_1, lam * cinv % 13)
        assert abs(lhs - rhs) < 1e-10


# ------------------------------------------------------------ classification

def classify_tuple(b, k: int) -> str:
    """Oracle of ``diagonal_mask``, one tuple at a time: 'diagonal' or
    'generic' per the even-multiplicity / equal-pair rule."""
    b = tuple(b)
    if k % 2 == 0:
        counts = Counter(b)
        return "diagonal" if all(v % 2 == 0 for v in counts.values()) else "generic"
    return "diagonal" if Counter(b[:2]) == Counter(b[2:]) else "generic"


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
    assert diagonal_mask(np.array([b]), k).tolist() == [expect == "diagonal"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=4, max_size=4))
def test_classify_sp_is_permutation_invariant(b):
    import itertools
    base = classify_tuple(tuple(b), 2)
    for perm in itertools.permutations(b):
        assert classify_tuple(perm, 2) == base


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5),
       st.lists(st.tuples(*[st.integers(0, 3)] * 4), min_size=1, max_size=16))
def test_diagonal_mask_matches_oracle(k, tuples):
    # coordinates from {0..3}, so that repeats, pairs and triples are common
    assert diagonal_mask(np.array(tuples), k).tolist() == [
        classify_tuple(b, k) == "diagonal" for b in tuples]


# ---------------------------------------------------------------- genericity

@lru_cache(maxsize=None)
def scalar_zero_sum_patterns(field, k: int) -> tuple:
    """(z2, z3, z4) over the k-th roots with 1 + z2 = z3 + z4, by the scalar
    triple loop."""
    zs = roots_of_unity(field, k)
    return tuple((z2, z3, z4) for z2 in zs for z3 in zs for z4 in zs
                 if field.add(1, z2) == field.add(z3, z4))


def is_generic_tuple(b, k: int, field) -> bool:
    """Pairwise distinct and off every zero-sum-pattern hyperplane: the
    scalar oracle of ``sample_generic_tuples``, sharing nothing with its
    cached patterns and forms."""
    b = tuple(b)
    if len(set(b)) < 4:
        return False
    for z2, z3, z4 in scalar_zero_sum_patterns(field, k):
        v = field.add(b[0], field.mul(z2, b[1]))
        v = field.sub(v, field.mul(z3, b[2]))
        v = field.sub(v, field.mul(z4, b[3]))
        if v == 0:
            return False
    return True


def test_zero_sum_patterns_k2():
    f = make_prime_field(11)
    pats = set(sp._genericity(f, 2)[0])
    assert pats == {(1, 1, 1), (10, 1, 10), (10, 10, 1)}


@pytest.mark.parametrize("k,q,d", [(12, 5, 2), (8, 7, 2), (2, 3, 3), (3, 13, 1)])
def test_zero_sum_patterns_match_the_scalar_triple_loop(k, q, d):
    f = make_prime_field(q) if d == 1 else build_extension(make_prime_field(q), d)
    got = sp._genericity(f, k)[0]
    assert got == scalar_zero_sum_patterns(f, k)
    assert all(type(z) is int for t in got for z in t)


def test_is_generic_excludes_pairing_hyperplanes():
    f = make_prime_field(11)
    assert not is_generic_tuple((1, 2, 3, 0), 2, f)  # 1+2 = 3+0
    assert not is_generic_tuple((5, 2, 3, 4), 2, f)  # 5-2 = 3+... 5+2-3-4=0
    assert not is_generic_tuple((1, 2, 1, 5), 2, f)  # repeated coordinate
    assert is_generic_tuple((1, 2, 3, 5), 2, f)
    # k=3, q=13: mu_3 = {1,3,9}; zero-sum patterns are (z,1,z) and (z,z,1)
    f13 = make_prime_field(13)
    pats = set(sp._genericity(f13, 3)[0])
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


def scalar_rejection_sampler(field, k, n, rng):
    """The sampler's draws, row by row: batches of 2 (n - got) + 16 tuples,
    each row kept when ``is_generic_tuple`` holds, until n are kept."""
    got = []
    while len(got) < n:
        batch = rng.integers(0, field.size, size=(2 * (n - len(got)) + 16, 4))
        for b in batch.tolist():
            if len(got) < n and is_generic_tuple(b, k, field):
                got.append(b)
    return np.array(got, dtype=np.int64).reshape(-1, 4)


@pytest.mark.parametrize("q, d", [(7, 1), (11, 1), (13, 1), (3, 2)])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sampler_draws_what_a_scalar_rejection_sampler_draws(q, d, k):
    # the same generator, the same batch sizes, the same rows kept: a change
    # in the broadcast test that kept or dropped other tuples fails here.
    # F_9 has no generic tuple for k = 4; there both draw nothing.
    f = make_prime_field(q)
    if d > 1:
        f = build_extension(f, d)
    exists = any(is_generic_tuple(b, k, f)
                 for b in itertools.product(range(f.size), repeat=4))
    for n, seed in ((50, 1), (7, 2), (0, 3)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if exists or n == 0:
            got = sample_generic_tuples(f, k, n, rng)
            assert np.array_equal(got, scalar_rejection_sampler(f, k, n, ref_rng))
        else:
            with pytest.raises(NoGenericTuple):
                sample_generic_tuples(f, k, n, rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_cached_arrays_are_read_only_and_patterns_a_tuple():
    f = make_prime_field(53)
    ctx = SumProductContext(kloosterman_table(3, f))
    ratio_scan(ctx, n_samples=4, seed=1)
    pats, _, forms = sp._genericity(f, 3)
    for name, a in {**vars(ctx.kernel_plan), "forms": forms}.items():
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1
    # the cached patterns cannot be mutated, and the sampler's draws pass
    # the scalar oracle
    assert type(pats) is tuple and all(type(p) is tuple for p in pats)
    ts = sample_generic_tuples(f, 3, 200, np.random.default_rng(0))
    assert all(is_generic_tuple(tuple(int(x) for x in t), 3, f) for t in ts)


def test_sampler_refuses_a_negative_count_before_drawing():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(OutOfRange, match="n = -1"):
        sample_generic_tuples(make_prime_field(53), 2, -1, rng)
    assert rng.bit_generator.state == state


def test_ratio_scan_refuses_no_samples(ctx53):
    with pytest.raises(OutOfRange, match="n_samples = 0"):
        ratio_scan(ctx53, n_samples=0, seed=1)


def test_ratio_scan_refuses_no_replicates(ctx53):
    with pytest.raises(OutOfRange, match="replicates = 0"):
        ratio_scan(ctx53, n_samples=8, seed=1, replicates=0)


def test_sampled_scan_refuses_no_samples(ctx53):
    with pytest.raises(OutOfRange, match="n_samples = 0"):
        scan_bad_tuples(ctx53, spec=ScanSpec(n_samples=0, seed=1))


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
    # the full grid against its columns taken in swapped order
    G = product_grid(ctx13, (1, 2, 3, 5))
    H = G[:, [5, 2]]
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
    direct = sum(brute_big_r(ctx13, r, lam, b) for r in range(13))
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
    b = (1, 2, 3, 5)
    for q, d in ((11, 1), (5, 2), (3, 3)):
        ctx = SumProductContext(_property_table(q, d, 3))
        f = ctx.field
        Q = f.size
        # R[r, lam] from one literal grid; the column -lam beside each lam
        G = literal_grid(ctx, b)
        R = np.stack([G @ psi_column(ctx, lam) for lam in range(Q)], axis=1)
        total = (R * R[:, [f.neg(lam) for lam in range(Q)]].conj()).sum()
        assert abs(total / Q**2 - noncorrelation_moment(ctx, b)) < 1e-8, (q, d)


def test_full_average_reduction_vs_naive():
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(11)))
    a = full_average_moment(ctx)
    b = full_average_moment_naive(ctx)
    assert abs(a - b) / abs(b) < 1e-6


@pytest.mark.parametrize("qd", [(53, 1), (199, 1), (11, 2), (13, 2)])
@pytest.mark.parametrize("k", [2, 3])
def test_full_average_matches_correlation_matrix(qd, k):
    # the FFT autocorrelation against the literal matrix: sum over unit
    # pairs of |C(s,s')|^2 |C(s',s)|^2
    ctx = SumProductContext(_property_table(*qd, k), c=2)
    C = np.abs(correlation_matrix(ctx)[1:, 1:]) ** 2
    want = (C * C.T).sum()
    assert abs(full_average_moment(ctx) - want) <= 1e-12 * want


def test_full_average_holds_no_grid():
    ctx = SumProductContext(kloosterman_table(3, make_prime_field(997)))
    tracemalloc.start()
    try:
        full_average_moment(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_correlation_diag_constant(ctx13):
    C = correlation_matrix(ctx13)
    diag = np.diagonal(C)[1:]
    assert np.abs(diag - diag[0]).max() < 1e-10


# ------------------------------------------------------------ incomplete sums

def test_sigma_incomplete_empty(ctx13):
    assert sigma_incomplete(ctx13, (1, 2, 3, 5), 1, 0) == 0


def test_sigma_incomplete_loop_reorder():
    b = (1, 2, 3, 5)
    # at q = 13, 2AM > q: the s-range wraps, so residue classes repeat
    for q, A, M in ((101, 2, 5), (13, 3, 5)):
        ctx = SumProductContext(kloosterman_table(2, make_prime_field(q)))
        got = sigma_incomplete(ctx, b, A, M)
        tv = ctx.twisted
        acc = 0j
        for s in range(1, 2 * A * M + 1):
            for r in range(q):
                acc += (complex(tv[s * (r + b[0]) % q]) * complex(tv[s * (r + b[1]) % q])
                        * (complex(tv[s * (r + b[2]) % q]) * complex(tv[s * (r + b[3]) % q])).conjugate())
        assert abs(got - acc) < 1e-8, q


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
    b = (1, 2, 3, 5)
    # at q = 13, AM > 2q: classes occur two and three times, and the pairs
    # s1 = s2 mod q with s1 != s2 are excluded
    for q, AM in ((53, 6), (13, 30)):
        ctx = SumProductContext(kloosterman_table(2, make_prime_field(q)))
        got = sigma_neq(ctx, b, AM)
        tv = ctx.twisted
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
        assert abs(got - acc) < 1e-8, q


def test_sigma_neq_swap_conjugation(ctx53):
    b = (1, 2, 3, 5)
    swapped = (3, 5, 1, 2)
    v = sigma_neq(ctx53, b, 5)
    w = sigma_neq(ctx53, swapped, 5)
    assert abs(v - w.conjugate()) < 1e-8


# ----------------------------------------------------------------- scanning

def test_scan_flags_all_diagonal_and_only_diagonal_at_inf():
    ctx = SumProductContext(kloosterman_table(2, make_prime_field(11)))
    res = scan_bad_tuples(ctx, thresholds={"r_linear": math.inf, "corr": math.inf})
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


def test_scan_rows_view():
    # the columns are the result; the ScanRow list is built on first read,
    # with the Python types that readers of ``rows`` rely on
    ctx = SumProductContext(kloosterman_table(3, make_prime_field(11)))
    res = scan_bad_tuples(ctx)
    assert "rows" not in vars(res)
    rows = res.rows
    assert rows is res.rows and len(rows) == len(res.tuples) == 11**4
    for i, row in enumerate(rows):
        assert type(row.b) is tuple and all(type(x) is int for x in row.b)
        assert row.b == tuple(res.tuples[i].tolist())
        assert row.classification == ("diagonal" if res.diagonal[i] else "generic")
        assert type(row.ratio_r_linear) is float and type(row.ratio_corr) is float
        assert row.ratio_r_linear == res.ratio_r_linear[i]
        assert row.ratio_corr == res.ratio_corr[i]
        assert type(row.flagged) is bool and type(row.reason) is str
        assert row.reason == res.reason[i] and row.flagged == (row.reason != "")
    assert {r.reason for r in rows} == {"diagonal", "r_linear", "corr", ""}
    assert res.flagged_fraction == sum(r.flagged for r in rows) / len(rows)


def test_scan_flagged_fraction_small_q():
    # exhaustive scans flag the diagonal plus threshold outliers: a small
    # fraction that shrinks as q grows
    fracs = []
    for q in (11, 19):
        ctx = SumProductContext(kloosterman_table(2, make_prime_field(q)))
        res = scan_bad_tuples(ctx)
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
