"""Independent computations the workload checks compare the program against.

Nothing here calls into ``klab``: each route uses only numpy, Python
integers and the defining formula, so a check fails when the program's own
route is wrong rather than agreeing with itself.
"""

from __future__ import annotations

import math

import numpy as np

# tau(1..10), as published (OEIS A000594)
TAU_PUBLISHED = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)

# word-size primes for the modular tau route; their product exceeds 2^120,
# while |tau(n)| <= d(n) n^{11/2} < 2^100 for n <= 10^5
_TAU_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)


def kl2_prime(q: int) -> np.ndarray:
    """Unnormalized Kl_2(a; q) = sum_x e((x + a/x)/q) for a = 0..q-1, with
    inverses from Fermat's little theorem."""
    x = np.arange(1, q, dtype=np.int64)
    inv = np.array([pow(int(v), q - 2, q) for v in x], dtype=np.int64)
    a = np.arange(q, dtype=np.int64)[:, None]
    return np.exp(2j * np.pi * ((x[None, :] + a * inv[None, :]) % q) / q).sum(axis=1)


def tau_exact(n_max: int) -> list:
    """tau(0..n_max) (index 0 is 0) from q * prod (1 - q^n)^24.

    Jacobi's identity prod (1 - q^n)^3 = sum (-1)^j (2j+1) q^{j(j+1)/2} gives a
    sparse series F with Delta = q F^8.  F^8 is built by repeated products
    with the sparse F, modulo four primes, and lifted by the Chinese
    remainder theorem to the symmetric residue.
    """
    L = n_max
    terms = []
    j = 0
    while j * (j + 1) // 2 < L:
        terms.append((j * (j + 1) // 2, (2 * j + 1) * (-1 if j & 1 else 1)))
        j += 1
    P = np.array(_TAU_PRIMES, dtype=np.int64)[:, None]
    cur = np.zeros((len(_TAU_PRIMES), L), dtype=np.int64)
    cur[:, 0] = 1
    for _ in range(8):
        # |c| < 2^10 and entries < 2^31: fewer than 2^12 terms stay below 2^63
        nxt = np.zeros_like(cur)
        for shift, c in terms:
            nxt[:, shift:] += c * cur[:, :L - shift]
        cur = nxt % P
    M = math.prod(_TAU_PRIMES)
    lifts = []
    for p in _TAU_PRIMES:
        Mp = M // p
        lifts.append(Mp * pow(Mp, -1, p))
    rows = [r.tolist() for r in cur]
    tau = [0]
    for n in range(n_max):
        v = sum(row[n] * lift for row, lift in zip(rows, lifts)) % M
        tau.append(v - M if v > M // 2 else v)
    return tau


def lam_from_tau(tau: list) -> np.ndarray:
    """lambda(n) = tau(n) / n^{11/2}, index 0 is 0."""
    lam = np.zeros(len(tau))
    n = np.arange(1, len(tau), dtype=np.float64)
    lam[1:] = np.array([float(t) for t in tau[1:]]) / n ** 5.5
    return lam


def hyperbola_class_sums(lam: np.ndarray, x: int, q: int):
    """S(a) = sum_{d <= x} lambda(d) #{m <= x/d : d m = a (mod q)} for every
    class a, in closed form per d, and a float budget for it.

    For d prime to q the m form one residue class m0 = a / d mod q, so the
    count is floor((x/d - m0)/q) + 1 when m0 <= x/d.  For q | d only a = 0
    is reached, by every m <= x/d.
    """
    d = np.arange(1, x + 1, dtype=np.int64)
    top = x // d
    S = np.zeros(q)
    unit = d % q != 0
    du, tu, lu = d[unit], top[unit], lam[1:x + 1][unit]
    dinv = np.array([pow(int(v), -1, q) for v in du % q], dtype=np.int64)
    for a in range(1, q):
        m0 = (a * dinv - 1) % q + 1
        cnt = np.where(m0 <= tu, (tu - m0) // q + 1, 0)
        S[a] = float(np.dot(lu, cnt))
    S[0] = float(np.dot(lam[1:x + 1][~unit], top[~unit]))
    # each route adds about x log x terms of size <= |lambda(d)| <= d_2(d)
    budget = 1e-13 * float(np.abs(lam[1:x + 1]) @ (top + 1))
    return S, budget


def plancherel_fft(twisted: np.ndarray, q: int, b) -> float:
    """(1/q^2) sum_{r, lam} |sum_s G[r, s] e(lam s / q)|^2 with the s-sum
    done by FFT, for the four-fold product grid G over F_q."""
    G = four_fold_grid(twisted, q, b)
    R = q * np.fft.ifft(G, axis=1)
    return float((np.abs(R) ** 2).sum() / q**2)


def four_fold_grid(twisted: np.ndarray, q: int, b) -> np.ndarray:
    r = np.arange(q, dtype=np.int64)[:, None]
    s = np.arange(q, dtype=np.int64)[None, :]
    t = twisted
    return (t[s * (r + b[0]) % q] * t[s * (r + b[1]) % q]
            * np.conj(t[s * (r + b[2]) % q] * t[s * (r + b[3]) % q]))


def scan_ratios(twisted: np.ndarray, q: int, b):
    """The two ratios scan_bad_tuples reports for lambdas (0, 1):
    max_lam |sum_r R(r, lam)| / q and |sum_r R(r, 0) conj R(r, 1)| / q^{3/2}."""
    G = four_fold_grid(twisted, q, b)
    R = q * np.fft.ifft(G, axis=1)[:, :2]
    lin = float(np.abs(R.sum(axis=0)).max() / q)
    corr = float(abs((R[:, 0] * np.conj(R[:, 1])).sum()) / q**1.5)
    return lin, corr


def literal_second_moment(G: np.ndarray, psi_mat: np.ndarray) -> float:
    """(1/Q^2) sum_{r, lam} |sum_s G[r, s] psi(lam s)|^2, summed literally."""
    Q = G.shape[0]
    R = G @ psi_mat
    return float((np.abs(R) ** 2).sum() / Q**2)


def loglog_slope(qs, values) -> float:
    return float(np.polyfit(np.log(qs), np.log(values), 1)[0])


def ext_mul(a: int, b: int, modulus, q: int) -> int:
    """Product of two encodings of F_q[x]/(modulus), by schoolbook
    multiplication of the base-q digit vectors and reduction."""
    d = len(modulus) - 1
    da = [a // q**i % q for i in range(d)]
    db = [b // q**i % q for i in range(d)]
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for i in range(2 * d - 2, d - 1, -1):  # x^d = -(modulus without x^d)
        c = prod[i]
        for j in range(d):
            prod[i - d + j] -= c * modulus[j]
    return sum((c % q) * q**i for i, c in enumerate(prod[:d]))


def ext_add(a: int, b: int, q: int, d: int) -> int:
    return sum(((a // q**i + b // q**i) % q) * q**i for i in range(d))
