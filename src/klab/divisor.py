"""Weight-12 level-1 Hecke eigenvalues, divisor sums in progressions, and the
exponent-of-distribution case analysis.

The coefficient table tau(1..n_max) is exact: the generating series is the
8th power of F = sum_{n>=0} (-1)^n (2n+1) x^{n(n+1)/2}, shifted by one.  F
has about sqrt(2 n_max) terms, and F^2 = eta^6 adds their pairwise products
in int64.  F^4 and F^8 are two squarings by float FFT, each on the fewest m
balanced w-bit limbs A_i of its int64 input, |A_i| <= 2^(w-1), with
m n 2^(2(w-1)) <= 2^46: each part sum_{i+j=d} A_i A_j stays below 2^46 and
leaves 2^7 of the 2^53 float mantissa to the FFT's rounding error (at n =
5*10^4, 2 then 3 limbs, 8 inverse FFTs and deviations up to 7.6e-5; at 10^6,
3 then 5 limbs, 14 and 9.5e-6).  Every inverse FFT is checked, not trusted:
an entry 0.25 or more from its nearest integer, or beyond 2^50, raises
``ResourceLimit``.  The parts are carried exactly in int64: those of F^4 =
eta(2z)^12 into one array, which Deligne's bound for that weight-6 form keeps
below 2^61 up to ``TAU_N_MAX`` (2^55 at 10^6), and those of F^8 into three
55-bit words.  No prime is involved, so Hecke relations and the mod-691
congruence hold exactly; ``CuspFormCoeffs.tau`` joins the words into Python
ints on first read.  lambda(n) = tau(n) / n^{11/2}, bounded by d_2(n), divides
float(tau(n)) rounded as Python rounds an int: the top 61 to 63 bits of
|tau(n)| and a sticky bit for those below, converted once and scaled by ldexp.

Progression discrepancies E(x; q, a) compare the class sum of the divisor
convolution (lambda * 1)(n) with the average over invertible classes; the
hyperbola count sum_d lambda(d) #{m <= x/d : d m = a mod q}, in closed form
per d, checks every class sum against a stated float budget.  Both routes
run in O(x) memory at every q: (lambda * 1)(n) by strided adds into its one
output array, and the hyperbola count's cells in fixed-size runs, so a
progression's peak is that of the tau table.

The bound calculators implement the completion/bilinear estimates; an exact
analysis over the vertices of their (mu', nu') line arrangement finds the
largest distribution-exponent offset delta* = 1/26 they sustain; delta
converts to the progression-range exponent via eta = delta / (4 - 2*delta),
so eta* = 1/102.  The analysis runs in Python integers: the bound pieces over
one common denominator, each vertex a reduced integer triple, and Fractions
only in what it returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, combinations, product

import numpy as np

from .bilinear import BRACKET_PIECES, typeI_hypotheses
from .errors import CompositeModulus, OutOfRange, ResourceLimit
from .fields import is_prime

TAU_N_MAX = 10**6
# cells per run of the hyperbola count's class sums
_HYPERBOLA_RUN = 1 << 14
INF = math.inf


# ----------------------------------------------------------------------
# exact tau table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CuspFormCoeffs:
    """Exact tau(1..n_max) as int64 words, plus the normalized real eigenvalues."""

    n_max: int
    words: np.ndarray  # tau(n) = sum_j words[j, n - 1] 2^{55 j}
    lam: np.ndarray  # lam[n] = tau[n] / n^{11/2}

    @cached_property
    def tau(self) -> list:
        """tau[n] at index n (index 0 unused) as Python ints, joined on first read."""
        return [0] + _join_words(self.words)


# the squarings' bound on their parts and the bits of a word of tau; see the module docstring
_PART_BOUND, _WORD_BITS = 2**46, 55


def _fft_len(m: int) -> int:
    """The least 2^a 3^b 5^c >= m, a size pocketfft transforms fast."""
    best = p2 = 1 << max(m - 1, 0).bit_length()
    while p2 >= 1:
        p3 = p2
        while p3 < best:
            p5 = p3
            while p5 < m:
                p5 *= 5
            best = min(best, p5)
            p3 *= 3
        p2 //= 2
    return best


def _rint_exact(x: np.ndarray) -> np.ndarray:
    """x rounded to int64, or ResourceLimit when the rounding is in doubt:
    an entry 0.25 or more from its integer, or one beyond 2^50, where the
    float spacing no longer shows a deviation of 0.25.  The check runs in
    place: x is overwritten with its distances to the integers."""
    r = np.rint(x)
    x -= r
    np.abs(x, out=x)
    err = float(x.max(initial=0.0))
    top = max(float(r.max(initial=0.0)), -float(r.min(initial=0.0)))
    if not (err < 0.25 and top < 2.0**50):
        raise ResourceLimit(f"FFT rounding in doubt: deviation {err:.3g} from an "
                            f"integer, magnitude 2^{math.log2(max(top, 1.0)):.1f}")
    return r.astype(np.int64)


def _balanced_limbs(parts, n: int, w: int):
    """Yield the balanced w-bit limbs D_j, -2^(w-1) <= D_j < 2^(w-1), of sum_d P_d 2^{w d}
    for the int64 parts P_d of length n, carried in int64 until the carry is zero."""
    half, carry = 1 << (w - 1), np.zeros(n, dtype=np.int64)
    for part in itertools.chain(parts, itertools.repeat(None)):
        if part is None and not carry.any():
            return
        if part is not None:
            carry += part
        low = ((carry + half) & ((1 << w) - 1)) - half
        carry -= low
        carry >>= w
        yield low


def _limb_square_parts(offset: np.ndarray, w: int, m: int):
    """Yield the exact P_d = sum_{i+j=d} A_i A_j, d < 2m - 1, truncated to n = len(offset),
    for A_i + 2^(w-1) the w-bit digits of offset, each transformed when first needed."""
    n, half, spectra = len(offset), 1 << (w - 1), []
    size = _fft_len(2 * n - 1)
    for d in range(2 * m - 1):
        if d < m:
            spectra.append(np.fft.rfft(((offset >> (w * d)) & ((1 << w) - 1)) - half, size))
        lo = max(0, d - m + 1)
        acc = spectra[lo] * spectra[d - lo]
        if lo + m - 1 == d:
            spectra[lo] = None  # no later part uses it
        if 2 * lo < d:  # twice the pairs i < d - i, then the square i = d / 2
            for i in range(lo + 1, (d + 1) // 2):
                acc += spectra[i] * spectra[d - i]
            acc *= 2
            if d % 2 == 0:
                acc += spectra[d // 2] ** 2
        acc = np.fft.irfft(acc, size)  # the spectrum goes before the rounding check,
        acc = _rint_exact(acc[:n])  # and the float array before the yield
        yield acc


def _square_parts(a: np.ndarray) -> tuple:
    """(w, the parts of a^2 truncated to len(a)) over the fewest m balanced w-bit limbs
    that hold max |a| with m n 2^(2(w-1)) <= _PART_BOUND, w the least width for m."""
    n, top = len(a), int(np.abs(a).max(initial=0))
    for m in itertools.count(1):
        w = next(w for w in itertools.count(2) if ((1 << (w - 1)) - 1) << (w * (m - 1)) >= top)
        if m * n << 2 * (w - 1) <= _PART_BOUND:
            # a + sum_{i<m} 2^(w-1) 2^(w i) is in [0, 2^(w m)), its digits are A_i + 2^(w-1)
            offset = a + (((1 << (w * m)) - 1) // ((1 << w) - 1) << (w - 1))
            return w, _limb_square_parts(offset, w, m)


def _carry_words(parts, w: int, n: int, count: int) -> np.ndarray:
    """The `count` int64 words of weight 2^{55 j} of sum_d P_d 2^{w d}: each balanced
    w-bit limb goes, as it arrives, into the word or two that hold its bits."""
    B, last, out = _WORD_BITS, count - 1, np.zeros((count, n), dtype=np.int64)
    for d, limb in enumerate(_balanced_limbs(parts, n, w)):
        j, off = min(divmod(w * d, B), (last, w * d - B * last))  # the last takes all above
        if j == last or off + w <= B:
            out[j] += limb << off
        else:  # the limb straddles words j and j + 1
            out[j] += (limb & ((1 << (B - off)) - 1)) << off
            out[j + 1] += limb >> (B - off)
    return out


def _join_words(words: np.ndarray) -> list:
    """The exact ints sum_j words[j] 2^{55 j}, one per column."""
    return sum(word.astype(object) << _WORD_BITS * j for j, word in enumerate(words)).tolist()


def _words_float(words: np.ndarray) -> np.ndarray:
    """float(V), rounded as Python's float(int) rounds, for each V = sum_j words[j] 2^{55 j}."""
    B, out = _WORD_BITS, np.empty(words.shape[1])
    for lo in range(0, len(out), 1 << 14):
        D, sign = words[:, lo:lo + (1 << 14)].copy(), 1
        for _ in range(2):  # digits in [0, 2^55) under a signed top: V's, then |V|'s
            D *= sign
            for j in range(len(D) - 1):
                D[j + 1] += D[j] >> B
                D[j] &= (1 << B) - 1
            sign = sign * np.where(D[-1] < 0, -1, 1)
        # an estimate within a factor 2 of |V| gives 2^(k+60) <= |V| < 2^(k+63), or k = 0
        k = np.maximum(np.frexp(2.0 ** (B * np.arange(len(D))) @ D)[1] - 62, 0)
        top, sticky = 0, False  # |V| >> k, and whether a bit of |V| below k is set
        for j, digit in enumerate(D):
            up, down = np.clip(B * j - k, 0, 63), np.clip(k - B * j, 0, 63)
            top = top + ((digit << up) >> down)
            sticky = sticky | ((digit >> down) << down != digit)
        out[lo:lo + (1 << 14)] = sign * np.ldexp((top | sticky).astype(np.float64), k)
    return out


def tau_table(n_max: int) -> CuspFormCoeffs:
    if n_max < 0:
        raise OutOfRange(f"n_max = {n_max} is negative")
    if n_max > TAU_N_MAX:
        raise ResourceLimit(f"tau table capped at {TAU_N_MAX}")
    L = n_max
    t = np.arange(math.isqrt(8 * L) + 2)
    e = t * (t + 1) // 2
    c = (2 * t + 1) * (1 - 2 * (t & 1))
    c, e = c[e < L], e[e < L]
    # F^2 in one int64 word: one add per term of F over the terms it pairs with below L
    words = np.zeros((1, L), dtype=np.int64)
    for ci, ei, j in zip(c, e, np.searchsorted(e, L - e)):
        words[0, ei + e[:j]] += ci * c[:j]
    for count in (1, 3):  # F^4 = (F^2)^2 in one word, F^8 = (F^4)^2 in three (< 2^118)
        w, parts = _square_parts(words[0])
        del words
        words = _carry_words(parts, w, L, count)
    words.setflags(write=False)
    lam = np.zeros(n_max + 1)
    lam[1:] = _words_float(words) / np.arange(1, n_max + 1, dtype=np.float64) ** 5.5
    lam.setflags(write=False)
    return CuspFormCoeffs(n_max=n_max, words=words, lam=lam)


def hecke_violations(coeffs: CuspFormCoeffs) -> int:
    """Count failures of tau(p^{j+1}) = tau(p) tau(p^j) - p^11 tau(p^{j-1})
    and of multiplicativity across coprime factorizations; 0 when exact."""
    n_max = coeffs.n_max
    tau = coeffs.tau
    bad = 0
    spf = np.zeros(n_max + 1, dtype=np.int64)  # smallest prime factor
    for p in range(2, n_max + 1):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
    for n in range(2, n_max + 1):
        p = int(spf[n])
        pe, m = p, n // p
        while m % p == 0:
            pe *= p
            m //= p
        if m > 1:
            if tau[n] != tau[pe] * tau[m]:
                bad += 1
        elif pe > p:
            if tau[pe] != tau[p] * tau[pe // p] - p**11 * tau[pe // p // p]:
                bad += 1
    return bad


# ----------------------------------------------------------------------
# divisor convolution and progressions
# ----------------------------------------------------------------------

def lambda_star_one_table(coeffs: CuspFormCoeffs, x: int) -> np.ndarray:
    """(lambda * 1)(n) = sum_{d | n} lambda(d), for n = 1..x, by strided adds
    into the one output array.

    With D = isqrt(x), each d <= D adds lambda(d) to its multiples,
    ``out[d::d] += lambda(d)``, in increasing d.  Every d > D then has its
    cofactor m = n / d below x / (D + 1), and one add per m, taken in
    decreasing m, gives every n = m d its lambda(d) for D < d <= x / m.  For
    a fixed n, decreasing m is increasing d, so each n receives its divisors'
    lambda(d) in increasing d from 0.0: the order of the plain sieve over
    d = 1..x, which the table matches bit for bit.
    """
    if x > coeffs.n_max:
        raise OutOfRange(f"x = {x} beyond table range {coeffs.n_max}")
    lam = coeffs.lam
    D = math.isqrt(x)
    out = np.zeros(x + 1)
    for d in range(1, D + 1):
        out[d::d] += lam[d]
    for m in range(x // (D + 1), 0, -1):
        out[m * (D + 1):m * (x // m) + 1:m] += lam[D + 1:x // m + 1]
    return out


def _require_progression(x: int, q: int) -> None:
    # the class sums below take every a = 1..q-1 as invertible and phi = q - 1
    if not is_prime(q):
        raise CompositeModulus(f"q = {q} is not prime")
    if x < 1:
        raise OutOfRange(f"x = {x} is below 1")


def discrepancy_all(coeffs: CuspFormCoeffs, x: int, q: int) -> dict:
    """The class sums over every invertible class a mod a prime q, as float64
    arrays whose entry a - 1 is class a = 1..q-1: ``raw`` (the sum of
    (lambda * 1)(n) over n <= x, n = a mod q), ``E`` = raw - main and
    ``normalized`` = E q / x; ``main`` is the one float average of raw."""
    _require_progression(x, q)
    vals = lambda_star_one_table(coeffs, x)[1:]
    res = np.arange(1, x + 1) % q
    raw = np.bincount(res, weights=vals, minlength=q)[1:]
    main = float(raw.sum() / (q - 1))
    E = raw - main
    return {"raw": raw, "main": main, "E": E, "normalized": E * q / x}


def hyperbola_residual(coeffs: CuspFormCoeffs, x: int, q: int, raw: np.ndarray) -> tuple:
    """(max_a |raw_a - H_a|, float budget) for the class sums ``raw`` of
    ``discrepancy_all`` (entry a - 1 is class a) against the hyperbola count

        H_a = sum_{d <= x, q does not divide d} lambda(d) #{m <= x/d : d m = a mod q},

    a second route that never forms (lambda * 1)(n).  With x // d = B q + r,
    each of the B full periods of m meets every class once and the r left
    over meet the classes d, 2d, ..., rd, so #{...} = B + [a in d * {1..r}].
    The cells (d, m <= r), about x log q of them, are added into the q class
    totals in runs of ``_HYPERBOLA_RUN`` cells, in index order (d, then m), so
    the memory stays O(x) at every q.  Each route adds about x log x terms of
    size at most |lambda(d)|, so the budget is 1e-13 * sum_d |lambda(d)| (x/d + 1).
    """
    _require_progression(x, q)
    d = np.arange(1, x + 1, dtype=np.int64)
    top, lam = x // d, coeffs.lam[1:x + 1]
    budget = 1e-13 * float(np.abs(lam) @ (top + 1))
    unit = d % q != 0
    d, lam = d[unit], lam[unit]
    B, r = np.divmod(top[unit], q)
    del top, unit
    ends = np.cumsum(r)  # one past the last cell of each d
    total = int(ends[-1])  # d = 1 is a unit, so ends is not empty
    H = np.zeros(q)
    for lo in range(0, total, _HYPERBOLA_RUN):
        hi = min(lo + _HYPERBOLA_RUN, total)
        first, last = np.searchsorted(ends, (lo, hi - 1), side="right")
        skip = lo - int(ends[first] - r[first])  # cells of d[first] in earlier runs
        i = np.repeat(np.arange(first, last + 1), r[first:last + 1])[skip:skip + hi - lo]
        np.add.at(H, d[i] * (np.arange(lo, hi) - ends[i] + r[i] + 1) % q, lam[i])
    H += float(lam @ B)
    return float(np.abs(raw - H[1:]).max()), budget


# the former name of this check, which benchmark/spans.py still traces
centering_residual_exact = hyperbola_residual


# ----------------------------------------------------------------------
# the q-periodic transform through rank-3 Kloosterman sums
# ----------------------------------------------------------------------

def ktilde_all(K: np.ndarray, ctx3) -> np.ndarray:
    """K~(m) = q^{-1/2} sum over units u of K(u) Kl_3(m u; q) for every m mod
    q, as one matvec; ValueError unless K has length q."""
    q = ctx3.field.q
    if len(K) != q:
        raise ValueError("K must be a length-q array")
    u = np.arange(1, q, dtype=np.int64)
    m = np.arange(q, dtype=np.int64)[:, None]
    return (ctx3.twisted[m * u[None, :] % q] @ np.asarray(K)[u]) / math.sqrt(q)


# ----------------------------------------------------------------------
# bound calculators
# ----------------------------------------------------------------------

def combined_bounds(M: float, N: float, q: int) -> dict:
    """The four bracket values used in the progression estimate.

    Returns {"pv", "linear", "general_pv", "special", "special_failed"},
    constants 1, q^eps dropped.  The general bracket takes unit-modulus
    coefficients, whose norms are sqrt(M) and sqrt(N).  The special bracket
    validates the theorem's range hypotheses (``typeI_hypotheses``, shared
    with ``bilinear``): violations are reported in "special_failed", with
    the bracket set to nan.
    """
    if M <= 0 or N <= 0:
        raise OutOfRange("ranges must be positive")
    out = {
        "pv": M * N * (1 / q + math.sqrt(q) / N),
        "linear": M * (q ** -0.125 + q ** 0.375 / math.sqrt(M)),
        "general_pv": math.sqrt(M) * math.sqrt(N) * math.sqrt(M * N)
        * (M ** -0.5 + q ** 0.25 / math.sqrt(N)),
    }
    failed = typeI_hypotheses(M, N, q)
    out["special"] = (math.nan if failed else
                      M * N * q ** 0.25 / (M ** (1 / 6) * N ** (5 / 12)))
    out["special_failed"] = failed
    return out


# Each bound is s + max(pieces), s = mu' + nu', a piece (a, b, c) being
# a*mu' + b*nu' + c.  Order: completion, linear-in-m, general (both
# orientations), special; the special bound needs 0 <= mu' <= 2 nu'.
BOUND_PIECES = (
    ((0, 0, -1), (0, -1, Fraction(1, 2))),
    ((0, 0, Fraction(-1, 8)), (Fraction(-1, 2), 0, Fraction(3, 8))),
    ((Fraction(-1, 2), 0, 0), (0, Fraction(-1, 2), Fraction(1, 4))),
    ((0, Fraction(-1, 2), 0), (Fraction(-1, 2), 0, Fraction(1, 4))),
    BRACKET_PIECES["special"],
)
# The case analysis runs in integers: pieces over their common denominator _D
# (24), a point (x / d, y / d) as the reduced (x, y, d), d > 0, and a line as
# (a, b, c).  g = min of the bounds is affine between the lines where two
# pieces are equal and mu' = 2 nu', where the special bound switches on.
_D = math.lcm(*(Fraction(v).denominator for ps in BOUND_PIECES for p in ps for v in p))
_BOUNDS = [[tuple(int(v * _D) for v in p) for p in pieces] for pieces in BOUND_PIECES]
_PIECES = [p for pieces in _BOUNDS for p in pieces]
_BREAKS = [(1, -2, 0)] + [tuple(v // math.gcd(*line) for v in line) for line in (
    (a1 - a2, b1 - b2, c1 - c2) for (a1, b1, c1), (a2, b2, c2)
    in combinations(_PIECES, 2) if (a1, b1) != (a2, b2))]
_EDGES = [(1, 0, 0), (0, 1, 0), (1, 1, -1)]  # the band edges no call moves


def _crossings(new, old, edges) -> set:
    """The points inside `edges` where a line of `new` meets a later one or one of `old`."""
    out = set()
    for (a1, b1, c1), (a2, b2, c2) in chain(combinations(new, 2), product(new, old)):
        d, x, y = a1 * b2 - a2 * b1, b1 * c2 - b2 * c1, a2 * c1 - a1 * c2
        if d and all((a * x + b * y + c * d) * d >= 0 for a, b, c in edges):
            g = math.gcd(x, y, d) * (1 if d > 0 else -1)
            out.add((x // g, y // g, d // g))
    return out


_FIXED_VERTICES = _crossings(_EDGES + _BREAKS, (), _EDGES)


def bound_exponents(mu_p, nu_p) -> tuple:
    """The five tau-exponent bounds at (mu', nu'), exact for Fraction
    arguments; inapplicable -> inf."""
    f = [mu_p + nu_p + max(a * mu_p + b * nu_p + c for a, b, c in pieces)
         for pieces in BOUND_PIECES]
    return (*f[:4], f[4] if 0 <= mu_p <= 2 * nu_p else INF)


def _require_finite(**values) -> None:
    for name, v in values.items():
        if v is not None and not abs(v) < INF:
            raise OutOfRange(f"{name} = {v} is not finite")


@dataclass(frozen=True)
class ExponentConfig:
    delta: float | None = None
    eta: float | None = None
    kappa: float = 1e-3
    slack: float = 0.0

    def __post_init__(self):
        _require_finite(delta=self.delta, eta=self.eta, kappa=self.kappa,
                        slack=self.slack)
        if self.eta is not None and 1 + 2 * self.eta == 0:
            raise OutOfRange(f"eta = {self.eta} is the pole of delta = "
                             "4 eta / (1 + 2 eta)")
        if self.delta is not None and self.eta is not None:
            implied = 4 * self.eta / (1 + 2 * self.eta)
            if abs(self.delta - implied) > 1e-9:
                raise OutOfRange(f"delta = {self.delta} inconsistent with "
                                 f"eta = {self.eta} (implied {implied})")

    def resolved_delta(self) -> Fraction:
        if self.delta is not None:
            return Fraction(self.delta)
        if self.eta is not None:
            return 4 * Fraction(self.eta) / (1 + 2 * Fraction(self.eta))
        raise OutOfRange("need delta or eta")


def delta_to_eta(delta):
    """q <= x^{1/2+eta} with x = q^{2-delta} gives eta = delta/(4-2*delta)."""
    return delta / (4 - 2 * delta)


def _vertices(slack: Fraction, top=None, lines=()) -> set:
    """The points (x, y, d) where two of the breaks, the integer `lines` and the edges of
    {mu', nu' >= 0, nu' <= 1 + slack, 1 <= mu' + nu' <= top or inf} cross in it."""
    if slack > Fraction(2, 3):
        # f5 >= min(f1..f4) on mu' = 2 nu' only while nu' <= 5/3; beyond,
        # g jumps there and its extrema need not sit at vertices
        raise OutOfRange(f"slack = {float(slack)} above 2/3")
    moving = [(0, -slack.denominator, slack.denominator + slack.numerator)] + (
        [] if top is None else [(-top.denominator, -top.denominator, top.numerator)])
    return _crossings(moving + list(lines), _EDGES + _BREAKS, _EDGES + moving) | {
        (x, y, d) for x, y, d in _FIXED_VERTICES
        if all(a * x + b * y + c * d >= 0 for a, b, c in moving)}


def _scaled_bound(x: int, y: int, d: int) -> int:
    """_D * d * min(bound_exponents(x / d, y / d)), exactly, for d > 0."""
    bounds = _BOUNDS if 0 <= x <= 2 * y else _BOUNDS[:-1]
    return _D * (x + y) + min(max(a * x + b * y + c * d for a, b, c in pieces)
                              for pieces in bounds)


@dataclass(frozen=True)
class ExponentVerdict:
    passed: bool
    delta: Fraction
    worst: Fraction  # max over the band of the best available exponent
    worst_at: tuple  # an exact (mu', nu') attaining it
    witnesses: tuple  # band vertices where every bound exceeds 1 - kappa


def exponent_case_analysis(config: ExponentConfig) -> ExponentVerdict:
    """Check that min over the five bounds is <= 1 - kappa on the whole band;
    it is affine between break lines, so its maximum sits at a vertex."""
    delta, slack = config.resolved_delta(), Fraction(config.slack)
    points = _vertices(slack, 1 + delta + slack)
    if not points:
        # e.g. delta + slack < 0; a bounded nonempty band has a vertex
        raise OutOfRange(f"empty band at delta = {float(delta)}, "
                         f"slack = {float(slack)}")
    L = math.lcm(*(d for _, _, d in points))  # keys (_D g, mu', nu') times L, in ints
    top = sorted(((_scaled_bound(x, y, d) * (L // d), x * (L // d), y * (L // d))
                  for x, y, d in points), reverse=True)[:8]
    ranked = [(Fraction(g, _D * L), (Fraction(x, L), Fraction(y, L))) for g, x, y in top]
    worst, worst_at = ranked[0]
    level = 1 - Fraction(config.kappa)
    witnesses = tuple((round(float(mu), 6), round(float(nu), 6), round(float(g), 6))
                      for g, (mu, nu) in ranked[:8] if g > level)
    return ExponentVerdict(passed=worst <= level, delta=delta, worst=worst,
                           worst_at=worst_at, witnesses=witnesses)


def delta_star_search(kappa: float = 0.0, slack: float = 0.0) -> dict:
    """The largest passing delta, exactly: 1 + slack + delta* is the least
    mu' + nu' where min of the bounds reaches 1 - kappa, a vertex once the
    level lines are added.  kappa = 0 locates the boundary itself; a positive
    kappa shifts delta* down by about (18/13) kappa."""
    _require_finite(kappa=kappa, slack=slack)
    n, m = (1 - Fraction(kappa)).as_integer_ratio()  # the level n / m
    levels = [((_D + a) * m, (_D + b) * m, c * m - _D * n) for a, b, c in _PIECES]
    sums = [Fraction(x + y, d) for x, y, d in _vertices(Fraction(slack), lines=levels)
            if _scaled_bound(x, y, d) * m >= _D * d * n]
    if not sums:
        raise OutOfRange(f"empty band at slack = {float(slack)}")
    ds = min(sums) - 1 - Fraction(slack)
    es = delta_to_eta(ds)
    return {"delta_star": float(ds), "eta_star": float(es),
            "delta_star_exact": str(ds), "eta_star_exact": str(es),
            "kappa": kappa, "slack": slack}
