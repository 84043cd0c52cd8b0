"""A literal four-fold product grid and correlation matrix, the scalar
four-fold sum K(r, s, lam, b) and the literal five-fold average: the
references for the pair-table kernel and the FFT correlation moment.

The add and mul tables come from the scalar field operations, so the oracle
shares no arithmetic with the discrete-log routes it checks."""

from functools import lru_cache

import numpy as np

from klab.errors import ResourceLimit


@lru_cache(maxsize=None)
def literal_tables(f):
    """(ADD, MUL), the Q x Q tables of f.add and f.mul."""
    ids = range(f.size)
    return tuple(np.array([[op(x, y) for y in ids] for x in ids], dtype=np.int64)
                 for op in (f.add, f.mul))


def literal_grid(ctx, b):
    """G[r, s] = (K_c(s(r+b1)) K_c(s(r+b2))) conj(K_c(s(r+b3)) K_c(s(r+b4)))."""
    add, mul = literal_tables(ctx.field)
    k1, k2, k3, k4 = (ctx.twisted[mul[add[:, int(bj)]]] for bj in b)
    return (k1 * k2) * np.conj(k3 * k4)


def correlation_matrix(ctx):
    """C(s, s') = (1/Q) sum_b K_c(s b) conj(K_c(s' b))."""
    T = ctx.twisted[literal_tables(ctx.field)[1]]
    return T @ np.conj(T.T) / ctx.field.size


def big_k(ctx, r: int, s: int, lam: int, b) -> complex:
    """K(r, s, lam, b) = psi(lam s) G[r, s], from scalar field operations."""
    f = ctx.field
    tv = ctx.twisted
    t = complex(f.psi_vec[f.mul(lam, s)])
    t *= complex(tv[f.mul(s, f.add(r, b[0]))]) * complex(tv[f.mul(s, f.add(r, b[1]))])
    t *= np.conj(complex(tv[f.mul(s, f.add(r, b[2]))]) * complex(tv[f.mul(s, f.add(r, b[3]))]))
    return t


def full_average_moment_naive(ctx) -> float:
    """(1/Q^5) sum_{r, b} |R(r, 0, b)|^2 over every tuple b, from literal
    grids; only for q^d <= 13."""
    Q = ctx.field.size
    if Q > 13:
        raise ResourceLimit("naive five-fold average is O(Q^6)")
    total = 0.0
    psi0 = np.ones(Q, dtype=np.complex128)
    for b in np.ndindex(Q, Q, Q, Q):
        R = literal_grid(ctx, b) @ psi0
        total += float((np.abs(R) ** 2).sum())
    return total / Q**5
