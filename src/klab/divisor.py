"""Weight-12 level-1 Hecke eigenvalues, divisor sums in progressions, and the
exponent-of-distribution case analysis.

The coefficient table tau(1..n_max) is exact: the generating series is the
8th power of sum_{n>=0} (-1)^n (2n+1) x^{n(n+1)/2}, shifted by one, and the
three squarings run over arbitrary-precision integers packed into a single
big integer (Kronecker substitution), so Hecke relations and the mod-691
congruence can be asserted exactly.  The normalized eigenvalues are
lambda(n) = tau(n) / n^{11/2}, bounded by the divisor function d_2(n).

Progression discrepancies E(x; q, a) compare the class sum of the divisor
convolution (lambda * 1)(n) with the average over invertible classes; an
integer-exact variant (tau-weighted, scaled by phi(q)) certifies the
centering identity sum_a E = 0 with no float error.

The bound calculators and the (mu', nu') exponent grid implement the four
completion/bilinear estimates and search the largest distribution-exponent
offset delta* they sustain; delta converts to the progression-range exponent
via eta = delta / (4 - 2*delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (BadResidue, CompositeModulus, HypothesisViolated,
                     OutOfRange, ResourceLimit)
from .fields import is_prime

TAU_N_MAX = 10**6
INF = math.inf


# ----------------------------------------------------------------------
# exact tau table
# ----------------------------------------------------------------------

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


@dataclass(frozen=True)
class CuspFormCoeffs:
    """Exact tau(1..n_max) plus the normalized real eigenvalues."""

    n_max: int
    tau: list  # tau[n] at index n; index 0 unused
    lam: np.ndarray  # lam[n] = tau[n] / n^{11/2}


def tau_table(n_max: int) -> CuspFormCoeffs:
    if n_max > TAU_N_MAX:
        raise ResourceLimit(f"tau table capped at {TAU_N_MAX}")
    L = n_max
    F = [0] * L
    n = 0
    while n * (n + 1) // 2 < L:
        F[n * (n + 1) // 2] = (2 * n + 1) * (-1 if n & 1 else 1)
        n += 1
    F2 = _kronecker_square(F, 64)[:L]
    F4 = _kronecker_square(F2, 96)[:L]
    F8 = _kronecker_square(F4, 192)[:L]
    tau = [0] + F8[:n_max]
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
    """(lambda * 1)(n) = sum_{d | n} lambda(d), for n = 1..x, by sieve."""
    if x > coeffs.n_max:
        raise OutOfRange(f"x = {x} beyond table range {coeffs.n_max}")
    out = np.zeros(x + 1)
    for d in range(1, x + 1):
        out[d::d] += coeffs.lam[d]
    return out


def lambda_star_one(coeffs: CuspFormCoeffs, n: int) -> float:
    if n > coeffs.n_max:
        raise OutOfRange(f"n = {n} beyond table range {coeffs.n_max}")
    return float(sum(coeffs.lam[d] for d in range(1, n + 1) if n % d == 0))


def tau_star_one(coeffs: CuspFormCoeffs, n: int) -> int:
    """Exact integer variant sum_{d | n} tau(d)."""
    if n > coeffs.n_max:
        raise OutOfRange(f"n = {n} beyond table range {coeffs.n_max}")
    return sum(coeffs.tau[d] for d in range(1, n + 1) if n % d == 0)


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


def discrepancy(coeffs: CuspFormCoeffs, x: int, q: int, a: int) -> ProgressionReport:
    if math.gcd(a, q) != 1:
        raise BadResidue(f"a = {a} not invertible mod {q}")
    return discrepancy_all(coeffs, x, q)[a % q - 1]


def centering_residual_exact(coeffs: CuspFormCoeffs, x: int, q: int) -> int:
    """sum_a of the phi(q)-scaled integer discrepancies; identically 0.

    Uses the exact tau-weighted divisor sums, so the centering identity is
    certified without float arithmetic.
    """
    _require_prime_modulus(q)
    T = [0] * (x + 1)
    for d in range(1, x + 1):
        td = coeffs.tau[d]
        for m in range(d, x + 1, d):
            T[m] += td
    phi = q - 1
    class_sums = [0] * q
    for n in range(1, x + 1):
        class_sums[n % q] += T[n]
    coprime_total = sum(class_sums[1:])
    return sum(phi * class_sums[a] - coprime_total for a in range(1, q))


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


def bound_exponents(mu_p: float, nu_p: float, delta: float = 0.0) -> tuple:
    """The five tau-exponent bounds at (mu', nu'); inapplicable -> inf.

    Order: completion, linear-in-m, general (both orientations), special.
    The special bound needs 0 <= mu' <= 2 nu'.
    """
    s = mu_p + nu_p
    f1 = s + max(-1.0, 0.5 - nu_p)
    f2 = s + max(-0.125, 0.375 - mu_p / 2)
    f3 = s + max(-mu_p / 2, 0.25 - nu_p / 2)
    f4 = s + max(-nu_p / 2, 0.25 - mu_p / 2)
    f5 = s + 0.25 - mu_p / 6 - 5 * nu_p / 12 if 0 <= mu_p <= 2 * nu_p else INF
    return (f1, f2, f3, f4, f5)


@dataclass(frozen=True)
class ExponentConfig:
    delta: float | None = None
    eta: float | None = None
    kappa: float = 1e-3
    grid_step: float = 1e-3
    slack: float = 0.0

    def __post_init__(self):
        if self.delta is not None and self.eta is not None:
            implied = 4 * self.eta / (1 + 2 * self.eta)
            if abs(self.delta - implied) > 1e-9:
                raise ValueError(f"delta = {self.delta} inconsistent with "
                                 f"eta = {self.eta} (implied {implied})")
        if self.grid_step > 1e-3 + 1e-15:
            raise ValueError("grid step must be <= 1e-3")

    def resolved_delta(self) -> float:
        if self.delta is not None:
            return self.delta
        if self.eta is not None:
            return 4 * self.eta / (1 + 2 * self.eta)
        raise ValueError("need delta or eta")


def delta_to_eta(delta: float) -> float:
    """q <= x^{1/2+eta} with x = q^{2-delta} gives eta = delta/(4-2*delta)."""
    return delta / (4 - 2 * delta)


def _feasible_points(delta: float, slack: float, step: float):
    """Grid of (mu', nu') pairs within the admissible band.

    The outer parameter mu sweeps the smooth-partition split mu + nu = 2 -
    delta; per split, mu' <= 2 - mu + slack and nu' <= 1 - nu + slack with
    1 <= mu' + nu' <= 1 + delta + slack.  The per-split corner (the unique
    point on the top boundary) is always included; its sweep covers the
    binding segment exactly.
    """
    pts = []
    n_outer = max(2, int(round(1.0 / step)) + 1)
    for mu in np.linspace(1 - delta, 2 - delta, n_outer):
        mu_hi = (2 - mu) + slack
        nu_hi = (mu - 1 + delta) + slack
        if nu_hi < 0:
            continue
        pts.append((mu_hi, nu_hi))
        for t in np.arange(0.0, mu_hi, step):
            pts.append((t, nu_hi))
        for t in np.arange(0.0, nu_hi, step):
            pts.append((mu_hi, t))
    lo, hi = 1.0 - 1e-12, 1 + delta + slack + 1e-12
    return [(mp, np_) for mp, np_ in pts
            if mp >= 0 and np_ >= 0 and lo <= mp + np_ <= hi]


@dataclass(frozen=True)
class ExponentVerdict:
    passed: bool
    delta: float
    kappa: float
    slack: float
    worst: float  # sup over the grid of the best available exponent
    witnesses: tuple  # grid points where every bound exceeds 1 - kappa


def exponent_case_analysis(config: ExponentConfig) -> ExponentVerdict:
    """Check that min over the five bounds is <= 1 - kappa on the whole grid."""
    delta = config.resolved_delta()
    worst = -INF
    witnesses = []
    for mp, np_ in _feasible_points(delta, config.slack, config.grid_step):
        m = float(min(bound_exponents(mp, np_, delta)))
        if m > worst:
            worst = m
        if m > 1 - config.kappa and len(witnesses) < 8:
            witnesses.append((round(float(mp), 6), round(float(np_), 6),
                              round(m, 6)))
    return ExponentVerdict(passed=bool(worst <= 1 - config.kappa), delta=float(delta),
                           kappa=config.kappa, slack=config.slack,
                           worst=worst, witnesses=tuple(witnesses))


def delta_star_search(kappa: float = 0.0, slack: float = 0.0,
                      grid_step: float = 1e-3, tol: float = 2e-4) -> dict:
    """Binary-search the supremal delta passing the case analysis.

    kappa = 0 locates the boundary sup = 1 itself; a positive kappa shifts
    the returned delta* down by about (18/13) kappa.
    """
    lo, hi = 0.0, 0.2
    while hi - lo > tol:
        mid = (lo + hi) / 2
        v = exponent_case_analysis(ExponentConfig(delta=mid, kappa=kappa,
                                                  slack=slack, grid_step=grid_step))
        if v.passed:
            lo = mid
        else:
            hi = mid
    ds = (lo + hi) / 2
    return {"delta_star": ds, "eta_star": delta_to_eta(ds),
            "kappa": kappa, "slack": slack, "grid_step": grid_step}
