"""Sieve oracles for the tau table: the divisor counts d_2(n) and sigma_11(n)
mod 691, each a per-n loop that shares nothing with ``klab.divisor``."""

import numpy as np


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
