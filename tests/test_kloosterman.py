import cmath
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klab.kloosterman as kl
from klab.errors import IoError, ResourceLimit, ZeroScale
from klab.fields import build_extension, make_prime_field
from klab.kloosterman import (INTRO, SHEAF, KloostermanTable, cache_path,
                              conjugation_symmetry_check, cross_check,
                              kloosterman_naive, kloosterman_table,
                              load_table, naive_table, pullback_scale,
                              save_table, sign_factor)


@pytest.fixture(scope="module")
def f5():
    return make_prime_field(5)


@pytest.fixture(scope="module")
def f7():
    return make_prime_field(7)


def test_naive_k2_q5_value(f5):
    # hand oracle: sum over x in F_5^x of e((x + 1/x)/5)
    # x=1 -> psi(2); x=2 -> psi(0); x=3 -> psi(0); x=4 -> psi(3)
    e = lambda t: cmath.exp(2j * math.pi * t / 5)
    expect = e(2) + 1 + 1 + e(3)
    assert abs(expect.real - 0.381966) < 1e-6
    got = kloosterman_naive(2, 1, f5)
    assert abs(got - expect / math.sqrt(5)) < 1e-12


def test_naive_zero_argument(f7):
    assert kloosterman_naive(2, 0, f7) == 0
    assert kloosterman_naive(3, 0, f7) == 0


def test_naive_matches_table_k2_q7(f7):
    t = kloosterman_table(2, f7)
    for a in range(1, 7):
        assert abs(kloosterman_naive(2, a, f7) - t.values[a]) < 1e-12


def test_naive_resource_cap(f7):
    with pytest.raises(ResourceLimit):
        kloosterman_naive(4, 1, f7, cap=10)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("q", [5, 7, 11])
def test_cross_algorithm_small(k, q):
    assert cross_check(k, make_prime_field(q)) < 1e-10


def test_cross_algorithm_extension_field():
    f = build_extension(make_prime_field(3), 2)
    assert cross_check(2, f) < 1e-10
    assert cross_check(3, f) < 1e-9


def test_table_complete_sum_collapse():
    for k in (2, 3):
        t = kloosterman_table(k, make_prime_field(11))
        assert t.complete_sum_residual() < 11 ** ((k - 1) / 2) * 1e-12


def test_table_zero_entry_and_deligne():
    t = kloosterman_table(2, make_prime_field(101))
    assert t.values[0] == 0
    assert t.deligne_margin() <= 1e-9


def test_sign_conventions():
    f = make_prime_field(11)
    for k in (2, 3, 4, 5):
        ti = kloosterman_table(k, f, INTRO)
        ts = kloosterman_table(k, f, SHEAF)
        assert np.allclose(ts.values, (-1) ** (k - 1) * ti.values)
        assert sign_factor(k, SHEAF) == (-1) ** (k - 1)
        assert np.allclose(ti.with_convention(SHEAF).values, ts.values)
        # the sheaf-convention complete sum still collapses to (-1)^k
        assert ts.complete_sum_residual() < 1e-9


def test_convolution_paths_agree_on_overlap():
    f = make_prime_field(101)
    t1 = kloosterman_table(3, f, method="schoolbook")
    t2 = kloosterman_table(3, f, method="fft")
    assert np.abs(t1.values - t2.values).max() < 1e-10


def test_pullback_identity_and_group_action(f7):
    t = kloosterman_table(2, f7)
    assert np.array_equal(pullback_scale(t, 1).values, t.values)
    t3 = pullback_scale(t, 3)
    inv3 = pow(3, 5, 7)
    assert np.array_equal(pullback_scale(t3, inv3).values, t.values)
    assert t3.values[1] == t.values[3]


def test_pullback_zero_rejected(f7):
    t = kloosterman_table(2, f7)
    with pytest.raises(ZeroScale):
        pullback_scale(t, 0)


def test_conjugation_symmetry():
    assert conjugation_symmetry_check(kloosterman_table(3, make_prime_field(7))) < 1e-9
    t2 = kloosterman_table(2, make_prime_field(101))
    assert conjugation_symmetry_check(t2) < 1e-9
    assert np.abs(t2.values.imag).max() < 1e-9  # k even: real table


def test_conjugation_symmetry_extension():
    f = build_extension(make_prime_field(5), 2)
    assert conjugation_symmetry_check(kloosterman_table(3, f)) < 1e-9


def test_binary_cache_roundtrip(tmp_path):
    f = build_extension(make_prime_field(3), 2)
    t = kloosterman_table(3, f, SHEAF)
    p = str(tmp_path / cache_path("", 3, f, SHEAF).lstrip("/"))
    save_table(t, p)
    back = load_table(p)
    assert back.k == t.k and back.convention == SHEAF
    assert back.field.q == 3 and back.field.degree == 2
    assert np.array_equal(back.values, t.values)
    back2 = load_table(p, field=f)
    assert np.array_equal(back2.values, t.values)


@pytest.mark.parametrize("cut", [32, 7])
def test_binary_cache_rejects_truncation(tmp_path, cut):
    f = make_prime_field(13)
    p = str(tmp_path / "t.kltb")
    save_table(kloosterman_table(2, f), p)
    with open(p, "r+b") as fh:
        fh.truncate(fh.seek(0, 2) - cut)
    with pytest.raises(IoError):
        load_table(p)
    with pytest.raises(IoError):
        load_table(p, field=f)


def test_binary_cache_rejects_mismatched_request(tmp_path, f7):
    p = str(tmp_path / "t.kltb")
    save_table(kloosterman_table(3, f7, SHEAF), p)
    assert load_table(p, field=f7, k=3, convention=SHEAF).k == 3
    with pytest.raises(IoError):
        load_table(p, field=f7, k=2)
    with pytest.raises(IoError):
        load_table(p, field=f7, convention=INTRO)
    with pytest.raises(IoError):
        load_table(p, field=make_prime_field(11))
    with open(p, "r+b") as fh:
        fh.truncate(20)  # inside the header
    with pytest.raises(IoError):
        load_table(p)


def test_naive_table_matches_pointwise_naive(f5):
    nt = naive_table(3, f5)
    for a in range(5):
        assert abs(nt.values[a] - kloosterman_naive(3, a, f5)) < 1e-12


@lru_cache(maxsize=None)
def _small_field(q, d):
    base = make_prime_field(q)
    return base if d == 1 else build_extension(base, d)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(q, 1) for q in (5, 7, 11, 13, 17, 19, 23, 29, 31)]
                       + [(3, 2), (5, 2), (3, 3)]),
       st.integers(2, 4))
def test_naive_table_matches_convolution(qd, k):
    f = _small_field(*qd)
    dev = np.abs(naive_table(k, f).values - kloosterman_table(k, f).values).max()
    assert dev < 1e-12


@pytest.mark.parametrize("qd", [(31, 1), (3, 2)])
def test_naive_table_blocked_gather(monkeypatch, qd):
    # a gather block smaller than one row still covers every a once
    f = _small_field(*qd)
    monkeypatch.setattr(kl, "NAIVE_GATHER_CELLS", 7)
    dev = np.abs(naive_table(3, f).values - kloosterman_table(3, f).values).max()
    assert dev < 1e-12


def test_naive_route_ignores_dlog_tables():
    # over F_q the oracle reads no discrete-log, generator-power or inverse
    # table: scrambling all three after the reference is built changes nothing
    f = make_prime_field(31)
    ref = {k: kloosterman_table(k, f).values.copy() for k in (2, 3, 4)}
    rng = np.random.default_rng(5)
    for name in ("log_table", "exp_table", "inv_table"):
        setattr(f, name, rng.permutation(getattr(f, name)))
    assert np.abs(kloosterman_table(3, f).values - ref[3]).max() > 1e-3
    for k in (2, 3, 4):
        assert np.abs(naive_table(k, f).values - ref[k]).max() < 1e-12
        for a in (1, 2, 30):
            assert abs(kloosterman_naive(k, a, f) - ref[k][a]) < 1e-12
