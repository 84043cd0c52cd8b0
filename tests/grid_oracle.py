"""A literal four-fold product grid and correlation matrix: the references
for the pair-table kernel and the FFT correlation moment.

The add and mul tables come from the scalar field operations, so the oracle
shares no arithmetic with the discrete-log routes it checks."""

from functools import lru_cache

import numpy as np


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
