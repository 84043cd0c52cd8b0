import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klab.divisor as dv
from klab.cli import main
from klab.divisor import (TAU_N_MAX, ExponentConfig, delta_star_search,
                          delta_to_eta, discrepancy_all,
                          exponent_case_analysis, hecke_violations,
                          hyperbola_residual, ktilde_all,
                          lambda_star_one_table, tau_table)
from klab.errors import CompositeModulus, OutOfRange, ResourceLimit
from klab.fields import is_prime, make_prime_field
from klab.kloosterman import kloosterman_table
from klab.sum_product import SumProductContext

from divisor_oracle import d2_table, sigma11_mod

# the modular oracle's own primes, as in benchmark/oracles.py: tau_table
# reduces nothing modulo a prime, so the oracle shares no modulus with it
TAU_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)


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
    # a part bound of 2^80 lets one limb carry all of F^4, so the parts of F^8
    # (tau itself, up to 2^65 at 3000) go far beyond float64's 53 bits
    monkeypatch.setattr(dv, "_PART_BOUND", 2**80)
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
    coeffs = tau_table(TAU_N_MAX)
    tau = coeffs.tau
    assert TAU_N_MAX == 10**6 and len(tau) == TAU_N_MAX + 1
    _assert_lam_is_float_tau(coeffs)

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


def _python_sums(parts: list) -> list:
    """sum_d P_d[i] 2^{11 d} for each column i, in Python ints."""
    return [sum(int(p[i]) << (11 * d) for d, p in enumerate(parts))
            for i in range(len(parts[0]))]


def test_carry_join_at_word_edges():
    # columns that sum to +-(2^55 - 1), +-2^55 and +-2^110, the edges of the
    # 55-bit words, through limbs of -1 and carries that cross a word edge
    columns = [
        [2047] * 5,              # 2^55 - 1: every limb -1, every carry +1
        [-2047] * 5,
        [-1, 0, 0, 0, 0, 1],     # 2^55 - 1 from a negative low word
        [1, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 2048],      # 2^55, carried into the second word
        [0, 0, 0, 0, -2048],
        [-2**43, 2**32, 0, 0, 2048],
        [0] * 9 + [2048],        # 2^110, carried into the third word
        [0] * 9 + [-2048],
        [2047] * 10,             # 2^110 - 1, a chain of ten carries
        [-2**43 + 1] * 11,
        [2**43 - 1, -2**43 + 1] * 5 + [1],
    ]
    depth = max(map(len, columns))
    parts = [np.array([c[d] if d < len(c) else 0 for c in columns], dtype=np.int64)
             for d in range(depth)]
    want = _python_sums(parts)
    edges = [2**55 - 1, -(2**55 - 1), 2**55, -2**55, 2**110, -2**110]
    assert set(edges) <= set(want)
    got = dv._join_words(dv._carry_words(parts, 11, len(columns), 3))
    assert got == want and all(type(x) is int for x in got)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_carry_join_equals_python_ints(data):
    n = data.draw(st.integers(1, 6))
    part = st.lists(st.integers(-2**43 + 1, 2**43 - 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(part, min_size=1, max_size=11))
    parts = [np.array(row, dtype=np.int64) for row in rows]
    want = _python_sums(parts)
    limbs = list(dv._balanced_limbs(parts, n, 11))
    assert all(((-1024 <= limb) & (limb < 1024)).all() for limb in limbs)
    assert (_python_sums(limbs) if limbs else [0] * n) == want
    assert dv._join_words(dv._carry_words(parts, 11, n, 3)) == want


def _as_words(v: int, shift: int) -> np.ndarray:
    """v as a column of three int64 words of weight 2^{55 j}, with shift * 2^55
    moved from the middle word into the low one, as a carry leaves words."""
    low, mid = v & (2**55 - 1), (v >> 55) & (2**55 - 1)
    return np.array([[low + (shift << 55)], [mid - shift], [v >> 110]], dtype=np.int64)


# +-(2^55 - 1) 2^k, the edges of the words; (2^53 + 1) 2^s, halfway between
# two floats; and the same with a tail only the sticky bit sees
_FLOAT_EDGES = sorted({sign * v for sign in (1, -1) for v in itertools.chain(
    [0, 1, 2**53 - 1, 2**53, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**120],
    ((2**55 - 1) << k for k in range(66)),
    ((2**53 + 1) << s for s in range(67)),
    (((2**53 + 1) << s) + tail for s in range(11, 67) for tail in (1, -1, 1 << (s - 11))))})


def test_words_float_at_rounding_edges():
    words = np.hstack([_as_words(v, 0) for v in _FLOAT_EDGES])
    want = np.array([float(v) for v in _FLOAT_EDGES])
    assert dv._words_float(words).tobytes() == want.tobytes()
    assert dv._join_words(words) == _FLOAT_EDGES


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-2**120, 2**120), st.sampled_from(_FLOAT_EDGES)),
                min_size=1, max_size=8),
       st.integers(-2**7, 2**7))
def test_words_float_equals_python_float(values, shift):
    words = np.hstack([_as_words(v, shift) for v in values])
    assert dv._join_words(words) == values
    want = np.array([float(v) for v in values])
    assert dv._words_float(words).tobytes() == want.tobytes()


def _assert_lam_is_float_tau(coeffs):
    ns = np.arange(1, coeffs.n_max + 1, dtype=np.float64)
    want = np.array(coeffs.tau[1:], dtype=np.float64) / ns ** 5.5
    assert coeffs.lam[0] == 0.0 and coeffs.lam[1:].tobytes() == want.tobytes()


def test_lam_is_float_tau_bit_for_bit(coeffs_5e4):
    _assert_lam_is_float_tau(coeffs_5e4)


def test_tau_table_transform_floor(monkeypatch):
    # 2 then 3 limbs at 5*10^4: 3 + 5 inverse transforms, each far inside the check
    rint_exact, devs = dv._rint_exact, []

    def rint(x):
        devs.append(float(np.abs(x - np.rint(x)).max(initial=0.0)))
        return rint_exact(x)

    monkeypatch.setattr(dv, "_rint_exact", rint)
    tau_table(50000)
    assert len(devs) == 8 and max(devs) < 0.25 / 100


def test_progression_builds_no_python_ints(monkeypatch, tmp_path):
    argv = ["progression", "--x", "2000", "--q", "53", "--format", "csv", "--out"]
    assert main(argv + [str(tmp_path / "plain.csv")]) == 0

    def refuse(words):
        raise AssertionError("progression joined tau into Python ints")

    monkeypatch.setattr(dv, "_join_words", refuse)
    assert main(argv + [str(tmp_path / "patched.csv")]) == 0
    assert (tmp_path / "patched.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_inputs_below_one_are_out_of_range(coeffs):
    with pytest.raises(OutOfRange):
        tau_table(-1)
    for x in (0, -5):
        with pytest.raises(OutOfRange):
            discrepancy_all(coeffs, x, 53)
        with pytest.raises(OutOfRange):
            hyperbola_residual(coeffs, x, 53, np.zeros(52))


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


@pytest.mark.parametrize("x", [3, 4, 8, 9, 10, 99, 100, 101, 9999, 10000, 10001])
def test_lambda_star_one_table_is_the_sieve_at_the_loop_split(coeffs_5e4, x):
    # x = D^2 - 1, D^2, D^2 + 1 around each square: the split at D = isqrt(x)
    assert (lambda_star_one_table(coeffs_5e4, x).tobytes()
            == _sieve_oracle(coeffs_5e4, x).tobytes())


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lambda_star_one_table_holds_one_array(coeffs_5e4):
    x = 50000
    assert _traced_peak(lambda: lambda_star_one_table(coeffs_5e4, x)) <= 1.5 * 8 * x


def test_discrepancy_all_holds_four_arrays(coeffs_5e4):
    x = 50000
    assert _traced_peak(lambda: discrepancy_all(coeffs_5e4, x, 53)) <= 4 * 8 * x


@pytest.mark.parametrize("q", [53, 199, 1009])
def test_hyperbola_residual_memory_does_not_grow_with_q(coeffs_5e4, q):
    x = 50000
    raw = discrepancy_all(coeffs_5e4, x, q)["raw"]
    peak = _traced_peak(lambda: hyperbola_residual(coeffs_5e4, x, q, raw))
    assert peak <= 10 * 8 * x


def test_class_sums_hold_no_object_per_class(coeffs_5e4):
    # the class sums of discrepancy_all, checked by hyperbola_residual, are
    # arrays, a few of length q, and no Python object per class
    x, q = 20000, 999983
    assert _traced_peak(lambda: hyperbola_residual(
        coeffs_5e4, x, q, discrepancy_all(coeffs_5e4, x, q)["raw"])) <= 6 * 8 * (x + q)


def test_tau_star_one_exact(coeffs):
    assert _tau_star_one(coeffs, 6) == 1 - 24 + 252 - 6048
    with pytest.raises(OutOfRange):
        lambda_star_one_table(coeffs, coeffs.n_max + 1)


def test_discrepancy_centering_float(coeffs):
    x, q = 2000, 53
    E = discrepancy_all(coeffs, x, q)["E"]
    assert len(E) == q - 1
    assert abs(sum(E)) < 1e-7


def test_discrepancy_centering_exact(coeffs):
    # the class sums against the hyperbola count, within the stated budget
    for x, q in ((500, 11), (1000, 53), (3000, 101), (20, 53)):
        residual, budget = hyperbola_residual(coeffs, x, q,
                                              discrepancy_all(coeffs, x, q)["raw"])
        assert residual <= budget
        assert math.isclose(budget, 1e-13 * sum(abs(coeffs.lam[d]) * (x // d + 1)
                                                for d in range(1, x + 1)),
                            rel_tol=1e-9)


def _hyperbola_one_bincount(coeffs, x, q):
    """The class totals H_a and the budget with every (d, m) cell in one
    ``np.bincount``, all x log q cells held at once."""
    d = np.arange(1, x + 1, dtype=np.int64)
    top, lam = x // d, coeffs.lam[1:x + 1]
    budget = 1e-13 * float(np.abs(lam) @ (top + 1))
    unit = d % q != 0
    d, lam = d[unit], lam[unit]
    B, r = np.divmod(top[unit], q)
    m = np.arange(1, r.sum() + 1) - np.repeat(np.cumsum(r) - r, r)
    H = float(lam @ B) + np.bincount(np.repeat(d, r) * m % q,
                                     weights=np.repeat(lam, r), minlength=q)
    return H, budget


@pytest.mark.parametrize("q", [3, 11, 53, 199, 1009])
@pytest.mark.parametrize("x", [1, 20, 500, 3000, 50000])
def test_hyperbola_runs_equal_one_bincount(coeffs_5e4, x, q):
    # residual 0.0 against the one-bincount H_a as the class sums: every
    # class total is the same float; q > x and runs ending inside one d included
    H, budget = _hyperbola_one_bincount(coeffs_5e4, x, q)
    assert hyperbola_residual(coeffs_5e4, x, q, H[1:]) == (0.0, budget)
    raw = discrepancy_all(coeffs_5e4, x, q)["raw"]
    assert hyperbola_residual(coeffs_5e4, x, q, raw) == (
        max(abs(raw[a - 1] - H[a]) for a in range(1, q)), budget)


@pytest.mark.parametrize("run", [1, 5, 64])
def test_hyperbola_short_runs_equal_one_bincount(coeffs, monkeypatch, run):
    monkeypatch.setattr(dv, "_HYPERBOLA_RUN", run)
    for x, q in ((20, 3), (500, 11), (3000, 53)):
        H, budget = _hyperbola_one_bincount(coeffs, x, q)
        assert hyperbola_residual(coeffs, x, q, H[1:]) == (0.0, budget)


def test_hyperbola_residual_flags_one_corrupted_class(coeffs):
    x, q = 3000, 53
    raw = discrepancy_all(coeffs, x, q)["raw"]
    _, budget = hyperbola_residual(coeffs, x, q, raw)
    bad = raw.copy()
    bad[17] = bad[17] + 2 * budget
    residual, _ = hyperbola_residual(coeffs, x, q, bad)
    assert budget < residual < 3 * budget


def test_discrepancy_empty_progression(coeffs):
    # x < q and a > x: the raw count is 0 and E = -average
    x, q = 20, 53
    sums = discrepancy_all(coeffs, x, q)
    assert sums["raw"][37 - 1] == 0
    assert abs(sums["E"][37 - 1] + sums["main"]) < 1e-12


def test_discrepancy_rejects_composite_modulus(coeffs):
    # phi(15) = 8 and the classes 3, 5, 6, 9, 10, 12 are not units
    with pytest.raises(CompositeModulus):
        discrepancy_all(coeffs, 500, 15)
    with pytest.raises(CompositeModulus):
        hyperbola_residual(coeffs, 500, 15, np.zeros(14))


# ------------------------------------------------------------------- ktilde

@pytest.fixture(scope="module")
def ctx3_53():
    return SumProductContext(kloosterman_table(3, make_prime_field(53)))


def test_ktilde_zero_function(ctx3_53):
    K = np.zeros(53)
    assert ktilde_all(K, ctx3_53)[5] == 0


def test_ktilde_delta_identity(ctx3_53):
    q = 53
    for a in (1, 2, 17):
        K = np.zeros(q)
        K[a] = 1.0
        for m in (0, 1, 5, 30):
            got = ktilde_all(K, ctx3_53)[m]
            want = ctx3_53.twisted[a * m % q] / math.sqrt(q)
            assert abs(got - want) < 1e-12
        allm = ktilde_all(K, ctx3_53)
        want_all = ctx3_53.twisted[(a * np.arange(q)) % q] / math.sqrt(q)
        assert np.abs(allm - want_all).max() < 1e-12


def test_ktilde_linearity(ctx3_53):
    rng = np.random.default_rng(0)
    K1, K2 = rng.normal(size=53), rng.normal(size=53)
    lhs = ktilde_all(K1 + 2.0 * K2, ctx3_53)[7]
    rhs = ktilde_all(K1, ctx3_53)[7] + 2.0 * ktilde_all(K2, ctx3_53)[7]
    assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("n", [52, 54])
def test_ktilde_refuses_a_function_of_another_length(ctx3_53, n):
    with pytest.raises(ValueError, match="length-q"):
        ktilde_all(np.ones(n), ctx3_53)


# ------------------------------------------------------------- exponent LP

def bound_exponents(mu_p, nu_p) -> tuple:
    """The five tau-exponent bounds at (mu', nu'), exact for Fraction
    arguments; inapplicable -> inf."""
    f = [mu_p + nu_p + max(a * mu_p + b * nu_p + c for a, b, c in pieces)
         for pieces in dv.BOUND_PIECES]
    return (*f[:4], f[4] if 0 <= mu_p <= 2 * nu_p else math.inf)


def test_bound_exponents_spec_point():
    vals = bound_exponents(0.75, 0.75)
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
    f1, f2, *_ = bound_exponents(mu_p, nu_p)
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
    with pytest.raises(OutOfRange):
        ExponentConfig(delta=0.05, eta=0.001)


def test_exponent_refusals_are_out_of_range():
    with pytest.raises(OutOfRange, match="inconsistent with eta"):
        ExponentConfig(delta=0.05, eta=0.001)
    with pytest.raises(OutOfRange, match="need delta or eta"):
        ExponentConfig().resolved_delta()


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


# ----------------------------------------------- integer route vs Fraction route
#
# A test-local copy of the case analysis on Fractions: every break line, band
# edge and crossing is a Fraction, and the bound at a vertex is
# min(bound_exponents(mu', nu')).  It shares only BOUND_PIECES with
# klab.divisor, whose route runs in integers.

_REF_PIECES = [p for pieces in dv.BOUND_PIECES for p in pieces]
_REF_BREAKS = [(1, -2, 0)] + [(a1 - a2, b1 - b2, c1 - c2) for (a1, b1, c1), (a2, b2, c2)
                              in itertools.combinations(_REF_PIECES, 2) if (a1, b1) != (a2, b2)]


def _ref_vertices(slack, top=None, lines=()):
    if slack > Fraction(2, 3):
        raise OutOfRange(f"slack = {float(slack)} above 2/3")
    band = [(1, 0, 0), (0, 1, 0), (0, -1, 1 + slack), (1, 1, -1)]
    band += [] if top is None else [(-1, -1, top)]
    out = set()
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(band + _REF_BREAKS + list(lines), 2):
        d = Fraction(a1 * b2 - a2 * b1)
        if d:
            mu, nu = (b1 * c2 - b2 * c1) / d, (a2 * c1 - a1 * c2) / d
            if all(a * mu + b * nu + c >= 0 for a, b, c in band):
                out.add((mu, nu))
    return out


def _ref_case_analysis(config):
    delta, slack = config.resolved_delta(), Fraction(config.slack)
    ranked = sorted(((min(bound_exponents(*p)), p)
                     for p in _ref_vertices(slack, 1 + delta + slack)), reverse=True)
    if not ranked:
        raise OutOfRange(f"empty band at delta = {float(delta)}, slack = {float(slack)}")
    worst, worst_at = ranked[0]
    level = 1 - Fraction(config.kappa)
    witnesses = tuple((round(float(mu), 6), round(float(nu), 6), round(float(g), 6))
                      for g, (mu, nu) in ranked[:8] if g > level)
    return dv.ExponentVerdict(passed=worst <= level, delta=delta, worst=worst,
                              worst_at=worst_at, witnesses=witnesses)


def _ref_search(kappa, slack):
    level = 1 - Fraction(kappa)
    levels = [(1 + a, 1 + b, c - level) for a, b, c in _REF_PIECES]
    ds = min(mu + nu for mu, nu in _ref_vertices(Fraction(slack), lines=levels)
             if min(bound_exponents(mu, nu)) >= level) - 1 - Fraction(slack)
    es = delta_to_eta(ds)
    return {"delta_star": float(ds), "eta_star": float(es),
            "delta_star_exact": str(ds), "eta_star_exact": str(es),
            "kappa": kappa, "slack": slack}


def _outcome(f, *args):
    try:
        return f(*args)
    except OutOfRange as e:
        return ("OutOfRange", str(e))


def _assert_routes_agree(delta, slack, kappa):
    cfg = ExponentConfig(delta=delta, slack=slack, kappa=kappa)
    got = _outcome(exponent_case_analysis, cfg)
    assert got == _outcome(_ref_case_analysis, cfg)
    if isinstance(got, dv.ExponentVerdict):
        assert type(got.worst) is Fraction and all(type(v) is Fraction for v in got.worst_at)
    assert _outcome(delta_star_search, kappa, slack) == _outcome(_ref_search, kappa, slack)


@pytest.mark.parametrize("delta, slack, kappa", [
    (0.03, 0.0, 1e-3), (0.05, 0.0, 1e-3), (0.04, 0.02, 0.002), (0.05, 0.01, 0.001),
    (Fraction(1, 26), 0, 0), (Fraction(1, 20), Fraction(1, 100), Fraction(1, 1000)),
    (0.2, 0.5, 0.0), (-0.01, 0.01, 1e-3), (-0.5, 0.0, 1e-3), (0.03, 1.0, 1e-3)])
def test_integer_route_matches_fraction_route_at_fixed_points(delta, slack, kappa):
    _assert_routes_agree(delta, slack, kappa)


def _exact_or_float(lo, hi):
    return st.one_of(st.fractions(lo, hi, max_denominator=1000),
                     st.floats(float(lo), float(hi)))


@settings(max_examples=20, deadline=None)
@given(_exact_or_float(Fraction(-1, 20), Fraction(3, 10)),
       _exact_or_float(Fraction(-1, 5), Fraction(7, 10)),
       _exact_or_float(Fraction(-1, 20), Fraction(1, 5)))
def test_integer_route_matches_fraction_route(delta, slack, kappa):
    _assert_routes_agree(delta, slack, kappa)


# On the band the special bound is never the least one where it switches on
# (mu' = 0 or mu' = 2 nu'), so its switch-on test shows only off the band:
# at (0, 10) and (4, 2) it is the least of the five.
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80), st.integers(1, 12),
       st.sampled_from(["anywhere", "mu' = 0", "mu' = 2 nu'"]))
def test_scaled_bound_is_the_least_fraction_bound(x, y, d, where):
    x = {"anywhere": x, "mu' = 0": 0, "mu' = 2 nu'": 2 * y}[where]
    want = min(bound_exponents(Fraction(x, d), Fraction(y, d)))
    assert Fraction(dv._scaled_bound(x, y, d), dv._D * d) == want


@pytest.mark.parametrize("x, y, d", [(0, 10, 1), (4, 2, 1), (0, 5, 1), (6, 3, 1)])
def test_special_bound_counts_on_its_switch_on_lines(x, y, d):
    vals = bound_exponents(Fraction(x, d), Fraction(y, d))
    assert vals[4] < min(vals[:4])
    assert Fraction(dv._scaled_bound(x, y, d), dv._D * d) == vals[4]


@pytest.mark.parametrize("kwargs", [dict(eta=-0.5), dict(eta=Fraction(-1, 2)),
                                    dict(delta=0.1, eta=-0.5)])
def test_eta_at_the_pole_is_out_of_range(kwargs):
    with pytest.raises(OutOfRange, match="pole"):
        ExponentConfig(**kwargs).resolved_delta()


@pytest.mark.parametrize("name", ["delta", "eta", "kappa", "slack"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_exponent_config_is_out_of_range(name, value):
    with pytest.raises(OutOfRange, match="not finite"):
        ExponentConfig(**{name: value})


@pytest.mark.parametrize("name", ["kappa", "slack"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_search_is_out_of_range(name, value):
    with pytest.raises(OutOfRange, match="not finite"):
        delta_star_search(**{name: value})


@pytest.mark.parametrize("slack", [-2, -1.5, Fraction(-11, 10)])
def test_search_refuses_an_empty_band(slack):
    with pytest.raises(OutOfRange, match="empty band"):
        delta_star_search(slack=slack)
