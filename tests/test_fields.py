import cmath
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klab.errors import CompositeModulus, TooSmall
from klab.fields import (PAIR_TABLE_CAP, build_extension, finite_field, is_prime,
                         make_prime_field, roots_of_unity)


def test_make_prime_field_accepts_prime():
    f = make_prime_field(101)
    assert f.q == 101 and f.degree == 1


def test_make_prime_field_rejects_composite():
    with pytest.raises(CompositeModulus):
        make_prime_field(91)  # 7 * 13


def test_make_prime_field_rejects_too_small():
    with pytest.raises(TooSmall):
        make_prime_field(2)


@pytest.mark.parametrize("n,expect", [(1, False), (2, True), (97, True),
                                      (91, False), (7919, True), (7917, False)])
def test_is_prime(n, expect):
    assert is_prime(n) is expect


def test_extension_degree_one_modulus_is_x():
    f = build_extension(make_prime_field(5), 1)
    assert f.modulus == (0, 1)


def test_extension_q3_d2_modulus():
    # exhaustive oracle: scan all 9 monic quadratics over F_3 for the first
    # irreducible in tail-encoding order
    q = 3
    found = None
    for tail in range(9):
        c0, c1 = tail % 3, tail // 3
        has_root = any((x * x + c1 * x + c0) % q == 0 for x in range(q))
        if not has_root:
            found = (c0, c1, 1)
            break
    assert found == (1, 0, 1)  # x^2 + 1
    f = build_extension(make_prime_field(3), 2)
    assert f.modulus == found


def test_extension_q7_d3_is_irreducible_by_rabin_oracle():
    f = build_extension(make_prime_field(7), 3)
    # oracle: x^{343} = x mod modulus, computed independently by repeated
    # squaring on encodings
    x = f.encode([0, 1])
    assert f.pow(x, 343) == x
    # and x^{7} != x (no subfield of degree 1 contains x)
    assert f.pow(x, 7) != x


def test_trace_degree_one_is_identity():
    f = make_prime_field(5)
    assert f.trace_vec[4] == 4
    assert f.trace_vec[0] == 0


def test_trace_q3_d2_matches_frobenius_sum():
    f = build_extension(make_prime_field(3), 2)
    for e in range(f.size):
        frob = f.add(e, f.pow(e, 3))  # x + x^3
        assert f.decode(frob)[1] == 0  # lands in the base field
        assert f.trace_vec[e] == f.decode(frob)[0]


def test_trace_fibers_uniform_small_fields():
    # Tr is onto F_q with fibers of size q^{d-1}, exhaustive up to q^d ~ 1e4
    for q, d in [(3, 2), (5, 2), (3, 4), (7, 2), (11, 2), (13, 2), (97, 2)]:
        f = build_extension(make_prime_field(q), d)
        counts = np.bincount(f.trace_vec, minlength=q)
        assert (counts == q ** (d - 1)).all()


def _psi(f, lam, x):
    """psi_lam(x) = e(Tr(lam x) / q), read off the character table."""
    return complex(f.psi_vec[f.mul(lam, x)])


def test_psi_trivial_character():
    f = make_prime_field(7)
    for x in range(7):
        assert _psi(f, 0, x) == 1


def test_psi_definition_q5():
    f = make_prime_field(5)
    assert cmath.isclose(_psi(f, 1, 1), cmath.exp(2j * math.pi / 5))


def test_psi_complete_sum_vanishes():
    f = make_prime_field(5)
    assert abs(sum(_psi(f, 1, x) for x in range(5))) < 1e-12


@pytest.mark.parametrize("q, d", [(999983, 1), (3, 12)])
def test_psi_complete_sum_vanishes_at_scale(q, d):
    # the sum over F is exactly 0; with psi read off the reduced angle it
    # stays within Q * eps, where powers of one root drift linearly
    f = make_prime_field(q)
    if d > 1:
        f = build_extension(f, d)
    assert abs(f.psi_vec.sum()) <= f.size * np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_psi_additivity_ext(lam, x, y):
    f = _F9()
    lam, x, y = lam % 9, x % 9, y % 9
    lhs = _psi(f, lam, f.add(x, y))
    rhs = _psi(f, lam, x) * _psi(f, lam, y)
    assert abs(lhs - rhs) < 1e-12


def _F9():
    if not hasattr(_F9, "cache"):
        _F9.cache = build_extension(make_prime_field(3), 2)
    return _F9.cache


@pytest.mark.parametrize("q,g", [(7, 3), (5, 2), (3, 2)])
def test_mult_generator_small_primes(q, g):
    # oracle: first integer of full multiplicative order by direct order check
    def order(a):
        o, x = 1, a
        while x != 1:
            x = x * a % q
            o += 1
        return o

    first = next(a for a in range(2, q) if order(a) == q - 1)
    assert first == g
    assert make_prime_field(q).generator == g


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (7, 2), (3, 4), (13, 2)])
def test_generator_powers_enumerate_units(q, d):
    f = build_extension(make_prime_field(q), d)
    seen = set(int(v) for v in f.exp_table)
    assert len(seen) == f.size - 1 and 0 not in seen


# F_3 to F_{101^2}: the fields on which the shared table builder is held to
# the scalar power loop
TABLE_FIELDS = [(3, 1), (5, 1), (7, 1), (13, 1), (101, 1), (997, 1), (3, 2),
                (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3), (101, 2)]


@pytest.mark.parametrize("q,d", TABLE_FIELDS)
def test_tables_match_scalar_power_loop(q, d):
    f = make_prime_field(q)
    if d > 1:
        f = build_extension(f, d)
    L = f.size - 1
    # oracle: the generator is the least encoding of full order, its powers
    # come one scalar product at a time, and every other table is read off
    # them (the trace as the sum of the Frobenius conjugates)
    primes = [p for p in range(2, L + 1) if L % p == 0 and is_prime(p)]

    def full_order(g):
        return all(f.pow(g, L // p) != 1 for p in primes)

    assert full_order(f.generator)
    assert not any(full_order(g) for g in range(1, f.generator))
    exp, e = [], 1
    for _ in range(L):
        exp.append(e)
        e = f.mul(e, f.generator)
    assert f.exp_table.tolist() == exp
    assert f.log_table[0] == -1
    assert all(f.log_table[x] == j for j, x in enumerate(exp))
    for x in range(f.size):
        tr, conj = x, x
        for _ in range(d - 1):
            conj = f.pow(conj, q)
            tr = f.add(tr, conj)
        assert tr < q and f.trace_vec[x] == tr
        assert cmath.isclose(f.psi_vec[x], cmath.exp(2j * math.pi * tr / q),
                             abs_tol=1e-12)


def test_exp_table_spot_check_large_extension():
    f = build_extension(make_prime_field(101), 3)
    for j in (0, 1, 2, 100, 10**4, 514_565, 1_030_299):
        assert f.exp_table[j] == f.pow(f.generator, j)


def test_field_arithmetic_closure_and_inverse():
    f = build_extension(make_prime_field(5), 2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = int(rng.integers(1, f.size))
        assert f.mul(a, f.inv(a)) == 1
    a, b, c = 7, 13, 21
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_add_mul_tables_match_scalar_ops():
    f = build_extension(make_prime_field(3), 2)
    add_t, mul_t = f.add_table(), f.mul_table()
    for a in range(9):
        for b in range(9):
            assert add_t[a, b] == f.add(a, b)
            assert mul_t[a, b] == f.mul(a, b)


def test_roots_of_unity():
    f = make_prime_field(13)
    assert roots_of_unity(f, 2) == [1, 12]
    zs = roots_of_unity(f, 3)
    assert len(zs) == 3 and all(pow(z, 3, 13) == 1 for z in zs)
    assert roots_of_unity(f, 5) == [1]  # gcd(5, 12) = 1


# ---------------------------------------------------------------- digit route

# F_{q^d} with q in {3, 5, 7, 11, 13} and q^d <= 3000, and F_q as an
# extension of degree one, which takes the digit route instead of mod q
DIGIT_FIELDS = [(q, d) for q in (3, 5, 7, 11, 13) for d in range(1, 8) if q**d <= 3000]
DIGIT_FIELDS += [(q, "ext1") for q in (3, 5, 7, 11, 13)]


@functools.cache
def _digit_field(q, d):
    return build_extension(make_prime_field(q), 1) if d == "ext1" else finite_field(q, d)


def _digit_oracle(f, a, b, sign):
    """a + sign * b through the coefficient tuples of ``decode``."""
    return f.encode([x + sign * y for x, y in zip(f.decode(a), f.decode(b))])


@st.composite
def _field_and_arrays(draw, fields=DIGIT_FIELDS):
    f = _digit_field(*draw(st.sampled_from(fields)))
    elem = st.integers(0, f.size - 1)
    pairs = draw(st.lists(st.tuples(elem, elem), min_size=1, max_size=16))
    a, b = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    return f, a, b


@settings(max_examples=80, deadline=None)
@given(_field_and_arrays())
def test_array_digit_ops_match_scalars_and_leave_inputs(fab):
    f, a, b = fab
    a0, b0 = a.copy(), b.copy()
    sums, diffs, negs = f.add(a, b), f.sub(a, b), f.neg(a)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)
    for x, y, s, t, n in zip(a.tolist(), b.tolist(), sums, diffs, negs):
        assert type(f.add(x, y)) is int
        assert s == f.add(x, y) == _digit_oracle(f, x, y, 1)
        assert t == f.sub(x, y) == _digit_oracle(f, x, y, -1)
        assert n == f.neg(x) == _digit_oracle(f, 0, x, -1)
    if f.degree == 1:  # the digit route of degree one is arithmetic mod q
        q = f.q
        assert np.array_equal(sums, (a + b) % q)
        assert np.array_equal(diffs, (a - b) % q)
        assert np.array_equal(negs, (-a) % q)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 53]),
       st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
                min_size=1, max_size=16))
def test_prime_field_digit_ops_reduce_ints_outside_the_field(q, pairs):
    # F_q's add, sub and neg are the digit route of degree one, which takes
    # any int, negative ones included, to its residue in [0, q)
    f = make_prime_field(q)
    a, b = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    assert np.array_equal(f.add(a, b), (a + b) % q)
    assert np.array_equal(f.sub(a, b), (a - b) % q)
    assert np.array_equal(f.neg(a), (-a) % q)
    for x, y in pairs:
        assert f.add(x, y) == (x + y) % q and f.sub(x, y) == (x - y) % q
        assert f.neg(x) == (-x) % q


@settings(max_examples=80, deadline=None)
@given(_field_and_arrays())
def test_array_digit_ops_invert_each_other(fab):
    f, a, b = fab
    assert np.array_equal(f.sub(f.add(a, b), b), a)
    assert not f.add(a, f.neg(a)).any()


@settings(max_examples=40, deadline=None)
@given(_field_and_arrays([(q, d) for q, d in DIGIT_FIELDS
                          if d == "ext1" or 1 < d and q**d <= PAIR_TABLE_CAP]))
def test_array_add_matches_add_table(fab):
    f, a, b = fab
    assert np.array_equal(f.add(a, b), f.add_table()[a, b])


@pytest.mark.parametrize("q,d", DIGIT_FIELDS)
def test_negation_is_an_involutive_permutation(q, d):
    f = _digit_field(q, d)
    ids = np.arange(f.size)
    perm = f.neg(ids)
    assert np.array_equal(np.sort(perm), ids)
    assert np.array_equal(perm[perm], ids)
    assert perm[0] == 0 and np.count_nonzero(perm == ids) == 1  # q is odd


def test_finite_field_picks_the_class_and_modulus():
    assert finite_field(7, 1) == make_prime_field(7)
    assert finite_field(7, 2) == build_extension(make_prime_field(7), 2)
    assert finite_field(7, 2).modulus == (1, 0, 1)
    assert finite_field(7, 2) != finite_field(7, 1)
    assert len({finite_field(5, 2), build_extension(make_prime_field(5), 2)}) == 1


# dense tables: every field with the Q x Q tables, F_q as degree one included
DENSE_FIELDS = [(q, d) for q, d in DIGIT_FIELDS
                if d == "ext1" or 1 < d and q**d <= PAIR_TABLE_CAP]


@pytest.mark.parametrize("q,d", DENSE_FIELDS)
def test_add_table_is_the_array_add(q, d):
    f = _digit_field(q, d)
    ids = np.arange(f.size, dtype=np.int64)
    tab = f.add_table()
    assert tab.dtype == np.int16 and tab.nbytes == 2 * f.size**2
    assert np.array_equal(tab, f.add(ids[:, None], ids[None, :]))


@pytest.mark.parametrize("q,d", DENSE_FIELDS)
def test_mul_table_is_the_log_sum(q, d):
    f = _digit_field(q, d)
    L = f.size - 1
    logs = f.log_table[1:]
    want = np.zeros((f.size, f.size), dtype=np.int64)
    want[1:, 1:] = f.exp_table[(logs[:, None] + logs[None, :]) % L]
    tab = f.mul_table()
    assert tab.dtype == np.int16 and tab.nbytes == 2 * f.size**2
    assert np.array_equal(tab, want)
    rng = np.random.default_rng(q * 100 + f.degree)
    for a, b in rng.integers(0, f.size, size=(64, 2)).tolist():
        assert tab[a, b] == f.mul(a, b)


def test_int16_holds_every_dense_table_encoding():
    # raising PAIR_TABLE_CAP past int16 must widen the dense tables first
    assert np.iinfo(np.int16).max >= PAIR_TABLE_CAP - 1


def test_dense_tables_match_scalar_ops_near_the_cap():
    # Q = 1849 puts encodings near 2^11, the top of the int16 tables' range
    f = finite_field(43, 2)
    add_t, mul_t = f.add_table(), f.mul_table()
    rng = np.random.default_rng(43)
    for a, b in rng.integers(0, f.size, size=(256, 2)).tolist():
        assert add_t[a, b] == f.add(a, b)
        assert mul_t[a, b] == f.mul(a, b)
    a, b = rng.integers(0, f.size, size=(2, 256))
    assert f.add_vec(a, b).dtype == f.mul_vec(a, b).dtype == np.int16


def test_mul_table_builds_no_square_temporary():
    # the Q x Q index array and gathered copy of a gather route would peak
    # at several times the int16 table's own bytes
    f = finite_field(3, 6)
    tracemalloc.start()
    try:
        tab = f.mul_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * tab.nbytes
