"""Bilinear forms sum_{m,n} alpha_m beta_n Kl_k(c m n) and their bound brackets.

The measured quantities are exact double sums against a Kloosterman table.
The bound calculators evaluate the trivial, completion-method, general and
special brackets with all implied constants set to 1 and q^eps dropped; they
also validate each bound's range hypotheses and report which fail.

Saving exponents and non-triviality thresholds are computed at the exponent
level (the q-exponent of the dominant bracket term): at desk-scale q the
subdominant terms of a numeric bracket are nowhere near negligible, so the
numeric bracket crossings would sit far from the asymptotic thresholds the
brackets are designed around.  Numeric bracket values are still what goes
into reports.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ConstraintViolated, HypothesisViolated, RangeTooLarge

MATRIX_CAP = 1 << 23


def kloosterman_matrix(ctx, M: int, N: int, offset: int = 1) -> np.ndarray:
    """The M x N matrix [Kl_k(c m n)] with m in [1, M] and n in the interval
    [offset, offset + N - 1], which must lie in [1, q - 1]."""
    q = ctx.field.q
    if not (1 <= offset and offset + N - 1 <= q - 1):
        raise ValueError(f"interval [{offset}, {offset + N - 1}] "
                         f"does not fit in [1, {q - 1}]")
    if ctx.field.degree != 1:
        raise ValueError("bilinear forms are over the prime field")
    if M * N > MATRIX_CAP:
        raise RangeTooLarge(f"MN = {M * N} exceeds matrix cap")
    m = np.arange(1, M + 1, dtype=np.int64)[:, None]
    n = np.arange(offset, offset + N, dtype=np.int64)[None, :]
    return ctx.twisted[m * n % q]


def bilinear_form(ctx, alpha: np.ndarray, beta: np.ndarray, offset: int = 1) -> complex:
    """sum_{m, n} alpha_m beta_n Kl_k(c m n) over m in [1, len(alpha)] and n in
    [offset, offset + len(beta) - 1]."""
    return complex(alpha @ kloosterman_matrix(ctx, len(alpha), len(beta), offset) @ beta)


# ----------------------------------------------------------------------
# bound brackets (constants 1, q^eps dropped)
# ----------------------------------------------------------------------

def _l2(v: np.ndarray) -> float:
    return float(np.sqrt((np.abs(v) ** 2).sum()))


def trivial_bound(alpha: np.ndarray, beta: np.ndarray) -> float:
    return _l2(alpha) * _l2(beta) * math.sqrt(len(alpha) * len(beta))


def pv_bound(alpha: np.ndarray, beta: np.ndarray, q: int) -> float:
    """Completion-method bracket: l2 norms times
    (q^{-1/4} + M^{-1/2} + N^{-1/2} q^{1/4} log q)."""
    M, N = len(alpha), len(beta)
    bracket = q ** -0.25 + M ** -0.5 + N ** -0.5 * q ** 0.25 * math.log(q)
    return _l2(alpha) * _l2(beta) * math.sqrt(M * N) * bracket


def typeII_hypotheses(M: float, N: float, q: int) -> list:
    failed = []
    if not 1 <= M <= N * q ** 0.25:
        failed.append("1 <= M <= N q^{1/4}")
    if not q ** 0.25 < M * N < q ** 1.25:
        failed.append("q^{1/4} < MN < q^{5/4}")
    return failed


def thm_typeII_bound(M: int, N: int, q: int, l2_alpha: float, l2_beta: float) -> float:
    """General-coefficients bracket
    l2 l2 (MN)^{1/2} (M^{-1/2} + (MN)^{-3/16} q^{11/64})."""
    failed = typeII_hypotheses(M, N, q)
    if failed:
        raise HypothesisViolated("general bound out of range: " + "; ".join(failed),
                                 failed)
    bracket = M ** -0.5 + (M * N) ** (-3 / 16) * q ** (11 / 64)
    return l2_alpha * l2_beta * math.sqrt(M * N) * bracket


def typeI_hypotheses(M: float, N: float, q: int) -> list:
    failed = []
    if not 1 <= M <= N * N:
        failed.append("1 <= M <= N^2")
    if not N < q:
        failed.append("N < q")
    if not M * N < q ** 1.5:
        failed.append("MN < q^{3/2}")
    return failed


def thm_typeI_bound(M: int, N: int, q: int, l1_alpha: float, l2_alpha: float) -> float:
    """Smooth-interval bracket
    l1^{1/2} l2^{1/2} M^{1/4} N (M^2 N^5 / q^3)^{-1/12}."""
    failed = typeI_hypotheses(M, N, q)
    if failed:
        raise HypothesisViolated("special bound out of range: " + "; ".join(failed),
                                 failed)
    return (math.sqrt(l1_alpha * l2_alpha) * M ** 0.25 * N
            * (M * M * N ** 5 / q ** 3) ** (-1 / 12))


# exponent-level forms: M = q^{eM}, N = q^{eN} ---------------------------

# Each bracket exponent is the max of its affine pieces (a, b, c), a piece
# being a*eM + b*eN + c: the general bracket M^{-1/2} + (MN)^{-3/16} q^{11/64}
# and the special bracket (M^2 N^5 / q^3)^{-1/12}.
BRACKET_PIECES = {
    "general": ((Fraction(-1, 2), 0, 0),
                (Fraction(-3, 16), Fraction(-3, 16), Fraction(11, 64))),
    "special": ((Fraction(-1, 6), Fraction(-5, 12), Fraction(1, 4)),),
}


def saving_exponent(kind: str, eM: float, eN: float) -> float:
    """The q-exponent the ``kind`` bracket saves over the trivial bound: minus
    its dominant term's exponent."""
    return -float(max(a * eM + b * eN + c for a, b, c in BRACKET_PIECES[kind]))


def nontrivial_threshold(kind: str) -> float:
    """Exponent e where the M = N = q^e saving crosses zero, exactly: each
    piece falls through zero at e = -c / (a + b), and the bracket, their
    max, at the last of those."""
    return float(max(-c / (a + b) for a, b, c in BRACKET_PIECES[kind]))


# ----------------------------------------------------------------------
# exact shift-by-ab re-indexing
# ----------------------------------------------------------------------

def shift_identity_check(ctx, alpha: np.ndarray, offset: int, N: int,
                         A: int, B: int) -> float:
    """|direct - averaged re-indexed| / (|direct| + 1) for beta = 1 on the
    interval; the identity is an exact re-indexing, so this is float noise."""
    q = ctx.field.q
    alpha = np.asarray(alpha)
    M = len(alpha)
    failed = [name for name, ok in (("2B<q", 2 * B < q), ("AB<=N", A * B <= N),
                                    ("AM<q", A * M < q)) if not ok]
    if any(a % q == 0 for a in range(A + 1, 2 * A + 1)):
        failed.append("a invertible mod q")
    if failed:
        raise ConstraintViolated("averaging parameters out of range: "
                                 + "; ".join(failed), failed)
    direct = bilinear_form(ctx, alpha, np.ones(N, dtype=np.complex128), offset)
    tv = ctx.twisted
    acc = 0j
    m = np.arange(1, M + 1, dtype=np.int64)
    for a in range(A + 1, 2 * A + 1):
        abar = pow(a, q - 2, q)
        for b in range(B + 1, 2 * B + 1):
            # n + ab in the interval  <=>  n in [offset - ab, offset + N - 1 - ab]
            n = np.arange(offset - a * b, offset + N - a * b, dtype=np.int64)
            idx = (a * m[:, None] % q) * ((abar * n[None, :] + b) % q) % q
            acc += (alpha @ tv[idx]).sum()
    averaged = acc / (A * B)
    return float(abs(direct - averaged) / (abs(direct) + 1))


# ----------------------------------------------------------------------
# extremal oracle
# ----------------------------------------------------------------------

def operator_norm(ctx, M: int, N: int, offset: int = 1) -> float:
    """Largest singular value of [Kl_k(c m n)]: the square root of the top
    eigenvalue of the smaller Gram matrix, A A^H or A^H A, from one
    Hermitian eigenvalue problem."""
    A = kloosterman_matrix(ctx, M, N, offset)
    G = A @ A.conj().T if M <= N else A.conj().T @ A
    return math.sqrt(max(float(np.linalg.eigvalsh(G)[-1]), 0.0))


def operator_norm_dense(ctx, M: int, N: int, offset: int = 1) -> float:
    """Dense SVD oracle for small matrices."""
    return float(np.linalg.svd(kloosterman_matrix(ctx, M, N, offset),
                               compute_uv=False)[0])


# ----------------------------------------------------------------------
# ensemble sweeps
# ----------------------------------------------------------------------

# saving_sweep draws alpha, then beta, from each ensemble in this order
ENSEMBLES = {
    "steinhaus": lambda n, rng: np.exp(2j * math.pi * rng.random(n)),
    "rademacher": lambda n, rng: rng.choice((-1.0, 1.0), size=n).astype(np.complex128),
    "ones": lambda n, rng: np.ones(n, dtype=np.complex128),
}


def saving_sweep(ctx, sizes, seed: int = 1, offset: int = 1) -> tuple:
    """(columns, failed): for each (M, N) of ``sizes`` and each of the
    ``ENSEMBLES`` in turn, one entry of each column, a list per name; thm11
    and thm12 are nan where their hypotheses fail, and ``failed`` is the
    sorted union of those failures.  gamma = log_q(trivial / measured)."""
    q = ctx.field.q
    cols = {name: [] for name in ("M", "N", "ensemble", "measured", "trivial", "pv",
                                  "thm11", "thm12", "gamma")}
    failed = set()
    rng = np.random.default_rng(seed)
    for M, N in sizes:
        for ens, draw in ENSEMBLES.items():
            alpha = draw(M, rng)
            beta = draw(N, rng)
            measured = abs(bilinear_form(ctx, alpha, beta, offset))
            triv = trivial_bound(alpha, beta)
            try:
                t11 = thm_typeII_bound(M, N, q, _l2(alpha), _l2(beta))
            except HypothesisViolated as e:
                t11 = math.nan
                failed.update(f"thm11: {c}" for c in e.failed)
            try:
                t12 = thm_typeI_bound(M, N, q, float(np.abs(alpha).sum()), _l2(alpha))
            except HypothesisViolated as e:
                t12 = math.nan
                failed.update(f"thm12: {c}" for c in e.failed)
            gamma = math.log(triv / measured, q) if measured > 0 else math.inf
            for name, value in zip(cols, (M, N, ens, measured, triv, pv_bound(alpha, beta, q),
                                          t11, t12, gamma)):
                cols[name].append(value)
    return cols, sorted(failed)
