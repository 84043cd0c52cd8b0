"""Weight-12 level-1 Hecke eigenvalues, divisor sums in progressions, and the
exponent-of-distribution case analysis.

The coefficient table tau(1..n_max) is exact: the generating series is the
8th power of F = sum_{n>=0} (-1)^n (2n+1) x^{n(n+1)/2}, shifted by one.  F
has about sqrt(2 n_max) terms, so F^2 (which is eta^6, with coefficients
below 2^26 up to ``TAU_N_MAX``) is one ``np.bincount`` over the pairs of
terms.  F^4 and F^8 are two squarings by float FFT on balanced 11-bit limbs:
a limb is at most 2^10 in size, so each limb-degree part sum_{i+j=d} A_i A_j
(at most three products of n terms) is below 3 n 2^20 < 2^42, which leaves
2^11 of the 2^53 float mantissa for the FFT's rounding error.  Every inverse
FFT is checked, not trusted: an entry 0.25 or more from its nearest integer,
or beyond 2^50, raises ``ResourceLimit``.  The exact parts are reduced modulo
four word-size primes (``TAU_PRIMES``) and joined with 2^{11 d}; F^4 is
only ever held modulo each prime.  The product of the primes exceeds twice
the Deligne bound d(n) n^{11/2} up to ``TAU_N_MAX``, so Chinese remaindering
to the symmetric residue recovers tau(n) as an exact int, and Hecke
relations and the mod-691 congruence can be asserted exactly.  The
normalized eigenvalues are lambda(n) = tau(n) / n^{11/2}, bounded by the
divisor function d_2(n).

Progression discrepancies E(x; q, a) compare the class sum of the divisor
convolution (lambda * 1)(n) with the average over invertible classes; the
hyperbola count sum_d lambda(d) #{m <= x/d : d m = a mod q}, in closed form
per d, checks every class sum against a stated float budget.

The bound calculators implement the completion/bilinear estimates; an exact
rational analysis over the vertices of their (mu', nu') line arrangement
finds the largest distribution-exponent offset delta* = 1/26 they sustain;
delta converts to the progression-range exponent via eta = delta / (4 -
2*delta), so eta* = 1/102.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import (CompositeModulus, HypothesisViolated, OutOfRange,
                     ResourceLimit)
from .fields import is_prime

TAU_N_MAX = 10**6
INF = math.inf


# ----------------------------------------------------------------------
# exact tau table
# ----------------------------------------------------------------------

# four primes below 2^31 whose product (about 2^124) exceeds 2 * 240 *
# TAU_N_MAX^{11/2} >= 2 max |tau(n)| (Deligne, with d(n) <= 240 for n <= 10^6),
# so the symmetric residue modulo the product is tau(n) itself
TAU_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)


def _crt_symmetric(residues: np.ndarray, primes: tuple) -> list:
    """The exact ints congruent to residues[i] mod primes[i] for each i, taken
    in (-M/2, M/2] for M = prod(primes); Garner's digits in int64."""
    digits = []
    for i, p in enumerate(primes):
        t = residues[i]
        for j in range(i):
            t = (t - digits[j]) % p * pow(primes[j], -1, p) % p
        digits.append(t)
    v = digits[-1].astype(object)
    for j in range(len(primes) - 2, -1, -1):
        v = v * primes[j] + digits[j]
    M = math.prod(primes)
    return np.where(v > M // 2, v - M, v).tolist()


@dataclass(frozen=True)
class CuspFormCoeffs:
    """Exact tau(1..n_max) plus the normalized real eigenvalues."""

    n_max: int
    tau: list  # tau[n] at index n; index 0 unused
    lam: np.ndarray  # lam[n] = tau[n] / n^{11/2}


# limb width of the FFT squarings; see the module docstring for its headroom
_LIMB_BITS = 11


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
    float spacing no longer shows a deviation of 0.25."""
    r = np.rint(x)
    err = float(np.abs(x - r).max(initial=0.0))
    top = float(np.abs(r).max(initial=0.0))
    if not (err < 0.25 and top < 2.0**50):
        raise ResourceLimit(f"FFT rounding in doubt: deviation {err:.3g} from an "
                            f"integer, magnitude 2^{math.log2(max(top, 1.0)):.1f}")
    return r.astype(np.int64)


def _limb_square_parts(a: np.ndarray):
    """Yield (d, P_d) with P_d = sum_{i+j=d} A_i A_j truncated to len(a), as
    exact int64, for a = sum_i A_i 2^{w i} in balanced w-bit limbs A_i."""
    n, w = len(a), _LIMB_BITS
    half = 1 << (w - 1)
    limbs = []
    while a.any():
        low = ((a + half) & ((1 << w) - 1)) - half
        limbs.append(low)
        a = (a - low) >> w
    size = _fft_len(2 * n - 1)
    spectra = [np.fft.rfft(limb, size) for limb in limbs]
    del limbs
    m = len(spectra)
    for d in range(2 * m - 1):
        acc = np.zeros_like(spectra[0])
        for i in range(max(0, d - m + 1), min(d, m - 1) + 1):
            acc += spectra[i] * spectra[d - i]
        yield d, _rint_exact(np.fft.irfft(acc, size)[:n])


def _square_mod(a: np.ndarray, primes: tuple) -> np.ndarray:
    """The first len(a) coefficients of a^2 modulo each prime, one row per
    prime: each exact limb-degree part is reduced and weighted by 2^{w d}."""
    out = np.zeros((len(primes), len(a)), dtype=np.int64)
    for d, part in _limb_square_parts(a):
        for row, p in zip(out, primes):
            row += part % p * pow(2, _LIMB_BITS * d, p) % p
            row %= p
    return out


def tau_table(n_max: int) -> CuspFormCoeffs:
    if n_max > TAU_N_MAX:
        raise ResourceLimit(f"tau table capped at {TAU_N_MAX}")
    L = n_max
    t = np.arange(math.isqrt(8 * L) + 2)
    e = t * (t + 1) // 2
    c = (2 * t + 1) * (1 - 2 * (t & 1))
    c, e = c[e < L], e[e < L]
    # F^2 exactly: float sums of at most 1414 products below 2^24 are exact
    s = np.add.outer(e, e)
    keep = s < L
    F2 = np.bincount(s[keep], weights=np.multiply.outer(c, c)[keep],
                     minlength=L).astype(np.int64)
    del s, keep
    F4 = _square_mod(F2, TAU_PRIMES)
    for row, p in zip(F4, TAU_PRIMES):
        row[:] = _square_mod(row, (p,))[0]
    tau = [0] + _crt_symmetric(F4, TAU_PRIMES)
    lam = np.zeros(n_max + 1)
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    lam[1:] = np.array(tau[1:], dtype=np.float64) / ns ** 5.5
    lam.setflags(write=False)
    return CuspFormCoeffs(n_max=n_max, tau=tau, lam=lam)


def d2_table(n_max: int) -> np.ndarray:
    """Divisor counts d_2(1..n_max) by sieve."""
    d = np.zeros(n_max + 1, dtype=np.int64)
    for i in range(1, n_max + 1):
        d[i::i] += 1
    return d


def sigma11_mod(n_max: int, modulus: int = 691) -> np.ndarray:
    """sigma_11(n) mod `modulus` by sieve (congruence oracle for tau)."""
    s = np.zeros(n_max + 1, dtype=np.int64)
    for i in range(1, n_max + 1):
        s[i::i] += pow(i, 11, modulus)
    return s % modulus


def hecke_violations(coeffs: CuspFormCoeffs, n_limit: int | None = None) -> int:
    """Count failures of tau(p^{j+1}) = tau(p) tau(p^j) - p^11 tau(p^{j-1})
    and of multiplicativity across coprime factorizations; 0 when exact."""
    n_max = n_limit or coeffs.n_max
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
    """(lambda * 1)(n) = sum_{d | n} lambda(d), for n = 1..x.

    ``np.bincount`` over the pairs (d, m) with dm <= x, ordered by d, adds
    each n's lambda(d) in increasing d, the order of the sieve
    ``out[d::d] += lambda(d)``, so the two agree bit for bit.  The x log x
    pairs go in runs of d of about x pairs each, so the memory stays O(x);
    each run's bincount takes the totals so far as the first term of every
    bin, which keeps the order.
    """
    if x > coeffs.n_max:
        raise OutOfRange(f"x = {x} beyond table range {coeffs.n_max}")
    ds = np.arange(1, x + 1, dtype=np.int64)
    counts = x // ds
    first = np.concatenate([[0], np.cumsum(counts)])  # pair index of (d, 1)
    cuts = np.unique(np.searchsorted(first, np.arange(0, first[-1], max(x, 1)),
                                     side="right") - 1)
    out = np.zeros(x + 1)
    for lo, hi in zip(cuts, [*cuts[1:], x]):
        d = np.repeat(ds[lo:hi], counts[lo:hi])
        m = np.arange(1, len(d) + 1) - np.repeat(first[lo:hi] - first[lo], counts[lo:hi])
        out = np.bincount(np.concatenate([np.arange(x + 1), d * m]),
                          weights=np.concatenate([out, coeffs.lam[d]]), minlength=x + 1)
    return out


@dataclass(frozen=True)
class ProgressionReport:
    x: int
    q: int
    a: int
    raw: float           # sum over n <= x, n = a mod q
    main: float          # phi(q)-average over invertible classes
    E: float
    normalized: float    # E * q / x


def _require_prime_modulus(q: int) -> None:
    # the class sums below take every a = 1..q-1 as invertible and phi = q - 1
    if not is_prime(q):
        raise CompositeModulus(f"q = {q} is not prime")


def discrepancy_all(coeffs: CuspFormCoeffs, x: int, q: int) -> list:
    """ProgressionReports for every invertible class a mod a prime q."""
    _require_prime_modulus(q)
    vals = lambda_star_one_table(coeffs, x)[1:]
    res = np.arange(1, x + 1) % q
    raw = np.bincount(res, weights=vals, minlength=q)
    main = raw[1:].sum() / (q - 1)
    return [ProgressionReport(x=x, q=q, a=a, raw=float(raw[a]), main=float(main),
                              E=float(raw[a] - main), normalized=float((raw[a] - main) * q / x))
            for a in range(1, q)]


def hyperbola_residual(coeffs: CuspFormCoeffs, x: int, q: int,
                       reports: list | None = None) -> tuple:
    """(max_a |raw_a - H_a|, float budget) for the class sums of
    ``discrepancy_all`` (or the given ``reports``) against the hyperbola count

        H_a = sum_{d <= x, q does not divide d} lambda(d) #{m <= x/d : d m = a mod q},

    a second route that never forms (lambda * 1)(n).  With x // d = B q + r,
    each of the B full periods of m meets every class once and the r left
    over meet the classes d, 2d, ..., rd, so #{...} = B + [a in d * {1..r}].  Each
    route adds about x log x terms of size at most |lambda(d)|, so the
    budget is 1e-13 * sum_d |lambda(d)| (x/d + 1).
    """
    if reports is None:
        reports = discrepancy_all(coeffs, x, q)
    _require_prime_modulus(q)
    d = np.arange(1, x + 1, dtype=np.int64)
    top, lam = x // d, coeffs.lam[1:x + 1]
    budget = 1e-13 * float(np.abs(lam) @ (top + 1))
    unit = d % q != 0
    d, lam = d[unit], lam[unit]
    B, r = np.divmod(top[unit], q)
    m = np.arange(1, r.sum() + 1) - np.repeat(np.cumsum(r) - r, r)
    H = float(lam @ B) + np.bincount(np.repeat(d, r) * m % q,
                                     weights=np.repeat(lam, r), minlength=q)
    return max((abs(rep.raw - H[rep.a]) for rep in reports), default=0.0), budget


# the former name of this check, which benchmark/spans.py still traces
centering_residual_exact = hyperbola_residual


# ----------------------------------------------------------------------
# the q-periodic transform through rank-3 Kloosterman sums
# ----------------------------------------------------------------------

def ktilde(K: np.ndarray, m: int, ctx3) -> complex:
    """q^{-1/2} sum over units u of K(u) Kl_3(m u; q)."""
    q = ctx3.field.q
    if len(K) != q:
        raise ValueError("K must be a length-q array")
    u = np.arange(1, q, dtype=np.int64)
    return complex((np.asarray(K)[u] * ctx3.twisted[m * u % q]).sum() / math.sqrt(q))


def ktilde_all(K: np.ndarray, ctx3) -> np.ndarray:
    """ktilde(m) for every m mod q (one matvec)."""
    q = ctx3.field.q
    u = np.arange(1, q, dtype=np.int64)
    m = np.arange(q, dtype=np.int64)[:, None]
    return (ctx3.twisted[m * u[None, :] % q] @ np.asarray(K)[u]) / math.sqrt(q)


# ----------------------------------------------------------------------
# bound calculators
# ----------------------------------------------------------------------

def combined_bounds(M: float, N: float, q: int, Q: float = 1.0, C1: float = 1.0,
                    alpha_l2: float | None = None, beta_l2: float | None = None,
                    strict: bool = False) -> dict:
    """The four bracket values used in the progression estimate.

    Returns {"pv", "linear", "general_pv", "special", "special_failed"};
    Q^{C1} multiplies the smooth-weight bounds, constants 1, q^eps dropped.
    The general bracket takes the coefficient norms (default: unit-modulus
    coefficients, so sqrt(M) and sqrt(N)).  The special bracket validates its
    range hypotheses: violations are reported in "special_failed" (with the
    bracket set to nan), or raised when ``strict``.
    """
    if M <= 0 or N <= 0:
        raise ValueError("ranges must be positive")
    qc = Q ** C1
    a2 = math.sqrt(M) if alpha_l2 is None else alpha_l2
    b2 = math.sqrt(N) if beta_l2 is None else beta_l2
    out = {
        "pv": qc * M * N * (1 / q + math.sqrt(q) / N),
        "linear": qc * M * (q ** -0.125 + q ** 0.375 / math.sqrt(M)),
        "general_pv": a2 * b2 * math.sqrt(M * N)
        * (M ** -0.5 + q ** 0.25 / math.sqrt(N)),
    }
    failed = []
    if not M <= N * N:
        failed.append("M <= N^2")
    if not N < q:
        failed.append("N < q")
    if not M * N <= q ** 1.5:
        failed.append("MN <= q^{3/2}")
    if failed and strict:
        raise HypothesisViolated("smooth special bound out of range: "
                                 + "; ".join(failed), failed)
    out["special"] = (math.nan if failed else
                      qc * M * N * q ** 0.25 / (M ** (1 / 6) * N ** (5 / 12)))
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
    ((Fraction(-1, 6), Fraction(-5, 12), Fraction(1, 4)),),
)
_PIECES = [p for pieces in BOUND_PIECES for p in pieces]
# g = min of the bounds is affine between the lines where two pieces are
# equal and the line mu' = 2 nu' where the special bound switches on
_BREAKS = [(1, -2, 0)] + [(a1 - a2, b1 - b2, c1 - c2) for (a1, b1, c1), (a2, b2, c2)
                          in combinations(_PIECES, 2) if (a1, b1) != (a2, b2)]


def bound_exponents(mu_p, nu_p, delta=0.0) -> tuple:
    """The five tau-exponent bounds at (mu', nu'), exact for Fraction
    arguments; inapplicable -> inf."""
    f = [mu_p + nu_p + max(a * mu_p + b * nu_p + c for a, b, c in pieces)
         for pieces in BOUND_PIECES]
    return (*f[:4], f[4] if 0 <= mu_p <= 2 * nu_p else INF)


@dataclass(frozen=True)
class ExponentConfig:
    delta: float | None = None
    eta: float | None = None
    kappa: float = 1e-3
    slack: float = 0.0

    def __post_init__(self):
        if self.delta is not None and self.eta is not None:
            implied = 4 * self.eta / (1 + 2 * self.eta)
            if abs(self.delta - implied) > 1e-9:
                raise ValueError(f"delta = {self.delta} inconsistent with "
                                 f"eta = {self.eta} (implied {implied})")

    def resolved_delta(self) -> Fraction:
        if self.delta is not None:
            return Fraction(self.delta)
        if self.eta is not None:
            return 4 * Fraction(self.eta) / (1 + 2 * Fraction(self.eta))
        raise ValueError("need delta or eta")


def delta_to_eta(delta):
    """q <= x^{1/2+eta} with x = q^{2-delta} gives eta = delta/(4-2*delta)."""
    return delta / (4 - 2 * delta)


def _integral(line) -> tuple:
    """The line (a, b, c) scaled by a positive integer to integer coefficients."""
    m = math.lcm(*(Fraction(x).denominator for x in line))
    return tuple(int(x * m) for x in line)


def _vertices(slack: Fraction, top=None, lines=()) -> set:
    """Exact (mu', nu') where two of the break lines, `lines` and the edges of
    {mu', nu' >= 0, nu' <= 1 + slack, 1 <= mu' + nu' <= top or inf} cross in it."""
    if slack > Fraction(2, 3):
        # f5 >= min(f1..f4) on mu' = 2 nu' only while nu' <= 5/3; beyond,
        # g jumps there and its extrema need not sit at vertices
        raise OutOfRange(f"slack = {float(slack)} above 2/3")
    band = [(1, 0, 0), (0, 1, 0), (0, -1, 1 + slack), (1, 1, -1)]
    band = [_integral(h) for h in band + ([] if top is None else [(-1, -1, top)])]
    out = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(
            band + [_integral(l) for l in _BREAKS + list(lines)], 2):
        # the crossing is (x / d, y / d), tested against the band in integers
        d, x, y = a1 * b2 - a2 * b1, b1 * c2 - b2 * c1, a2 * c1 - a1 * c2
        if d and all((a * x + b * y + c * d) * d >= 0 for a, b, c in band):
            out.add((Fraction(x, d), Fraction(y, d)))
    return out


@dataclass(frozen=True)
class ExponentVerdict:
    passed: bool
    delta: Fraction
    kappa: float
    slack: float
    worst: Fraction  # max over the band of the best available exponent
    worst_at: tuple  # an exact (mu', nu') attaining it
    witnesses: tuple  # band vertices where every bound exceeds 1 - kappa


def exponent_case_analysis(config: ExponentConfig) -> ExponentVerdict:
    """Check that min over the five bounds is <= 1 - kappa on the whole band;
    it is affine between break lines, so its maximum sits at a vertex."""
    delta, slack = config.resolved_delta(), Fraction(config.slack)
    ranked = sorted(((min(bound_exponents(*p)), p)
                     for p in _vertices(slack, 1 + delta + slack)), reverse=True)
    if not ranked:
        # e.g. delta + slack < 0; a bounded nonempty band has a vertex
        raise OutOfRange(f"empty band at delta = {float(delta)}, "
                         f"slack = {float(slack)}")
    worst, worst_at = ranked[0]
    level = 1 - Fraction(config.kappa)
    witnesses = tuple((round(float(mu), 6), round(float(nu), 6), round(float(g), 6))
                      for g, (mu, nu) in ranked[:8] if g > level)
    return ExponentVerdict(passed=worst <= level, delta=delta, kappa=config.kappa,
                           slack=config.slack, worst=worst, worst_at=worst_at,
                           witnesses=witnesses)


def delta_star_search(kappa: float = 0.0, slack: float = 0.0) -> dict:
    """The largest passing delta, exactly: 1 + slack + delta* is the least
    mu' + nu' where min of the bounds reaches 1 - kappa, a vertex once the
    level lines are added.  kappa = 0 locates the boundary itself; a positive
    kappa shifts delta* down by about (18/13) kappa."""
    level = 1 - Fraction(kappa)
    levels = [(1 + a, 1 + b, c - level) for a, b, c in _PIECES]
    ds = min(mu + nu for mu, nu in _vertices(Fraction(slack), lines=levels)
             if min(bound_exponents(mu, nu)) >= level) - 1 - Fraction(slack)
    es = delta_to_eta(ds)
    return {"delta_star": float(ds), "eta_star": float(es),
            "delta_star_exact": str(ds), "eta_star_exact": str(es),
            "kappa": kappa, "slack": slack}
