"""Four-fold Kloosterman product kernels and their complete-sum statistics.

The central objects, for a twisted table K_c(x) = Kl_k(c*x) and a shift tuple
b = (b1, b2, b3, b4):

* ``big_k(r, s, lam, b)``   -- psi(lam*s) * K_c(s(r+b1)) K_c(s(r+b2))
                               * conj(K_c(s(r+b3)) K_c(s(r+b4)))
* ``big_r(r, lam, b)``      -- sum of big_k over all s (the discrete Fourier
                               transform in lam of the s-slice); the s = 0
                               term vanishes because the table is 0 at 0.

On top of these sit the incomplete (r, s)-range sums appearing in the
shift-by-ab reduction, second moments computed through the exact Plancherel
shortcut, and scanning utilities that measure normalized cancellation ratios
over sampled shift tuples.  Complete sums over r are read off the grid:
``product_grid(ctx, b)[:, s].sum()`` for one s, and
``product_grid(ctx, b).sum(0) @ psi`` for sum_r big_r(r, lam, b).

A tuple is *diagonal* when its coordinates pair up (the even-multiplicity
rule for k even, equal two-element multisets for k odd); on diagonal tuples
square-root cancellation provably degrades, so scans treat them separately.
We call a tuple *generic* when its coordinates are pairwise distinct and it
avoids every hyperplane b1 + z2*b2 - z3*b3 - z4*b4 = 0 with (z2, z3, z4)
k-th roots of unity in F_q summing to zero against 1; those hyperplanes are
the degenerate directions visible in the data (they contain the diagonal
pairings and produce measurably inflated correlation sums).

Grids of four-fold products come from two stepped generators.  Both stream
the grids about KERNEL_STEP_CELLS cells at a time and multiply the factors
always in the order ((K1 K2) conj(K3 K4)), so every statistic is
reproducible bit for bit, and the scans reduce each step while it is still
in cache (one matmul per step for the lam-transform, a column, the row sums
of |G|^2): no batch of grids is ever held, so memory grows with Q^2, not
with the number of tuples.

The full complex route caches, on first use, the twisted multiplication
table T[u, s] = K_c(u*s) (Q^2 complex entries, read off the dense mul table
when d > 1).  For a batch of tuples the factor K_c(s(r+b_j)) over all
(r, s) is the row gather T[r + b_j], built into three scratch buffers
allocated once per call.  ``product_grid``, ``big_r``, the moments over the
correlation matrix and the sums over a short or repeated s-range (which
gather rows of the slice T[:, s]) take this route, and it is the oracle the
pair route is tested against.

The pair route serves the statistics that only need G over every s: the
scans, the lam-transform R(r, lam) and the second moment.  Kl_k lives on
the cyclic group F^x, so in discrete logs (s = g^j, u = g^l) the table is a
Hankel matrix, T[u, s] = kappa[l + j] with kappa[i] = K_c(g^i), indices
mod Q - 1.  The product of two factors is then one window of a pair table,

    K_c(s u1) K_c(s u2) = kappa[l1 + j] kappa[l2 + j] = PT[l2 - l1, l1 + j],
    PT[d, i] = kappa[i] kappa[i + d],

which depends only on the offset d and the start l1 + j; a zero last row of
PT serves every pair with a factor at u = 0.  A grid row over the s in log
order is then two window gathers and one multiply, with no field
arithmetic per cell.  The dual of Kl_k is [-1]*Kl_k, so conj K_c(a) =
K_c((-1)^k a), which is what makes the window short and the conjugation
free:

* even k: kappa is real, and PT is float64 with 2(Q-1) columns, so every
  window of width Q-1 is contiguous; every grid is real, and R comes from
  one real matmul against [Re psi | Im psi];
* odd k: -1 = g^((Q-1)/2), so conj kappa[i] = kappa[i + (Q-1)/2], and the
  conjugated pair is the window that starts (Q-1)/2 further on: no conj
  pass.  G[r, -s] = conj G[r, s], so the grid covers one s of each pair
  {s, -s} (log s < (Q-1)/2), PT is complex with 3(Q-1)/2 columns, and
  R = 2 Re(sum over those s of psi(lam s) G[r, s]).

The pair route is only as good as that self-duality, so PT is built only
after ``conjugation_symmetry_check`` on the table has come within
k * q^d * 1e-15 (NotSelfDual otherwise); the licence covers the odd-k
window shift as much as the even-k real table.  The scans never build the
full Q x Q row table.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (NoGenericTuple, NotDistinct, NotSelfDual, RangeTooLarge,
                     ResourceLimit, WrongParity)
from .fields import PAIR_TABLE_CAP, roots_of_unity
from .kloosterman import (KloostermanTable, _mul_perm, _neg_perm,
                          conjugation_budget, conjugation_symmetry_check)

FULL_SCAN_MAX_Q = 31
DEFAULT_SAMPLES = 2000
GRID_CAP = 1 << 24
# The kernel streams its grids a few tuples at a time, so that each step's
# scratch buffers (512 KiB of complex128 each) stay in a core's L2 cache;
# whole 64-tuple batches at q = 199 ran about 2x slower.
KERNEL_STEP_CELLS = 1 << 15
# tuples per kernel call in the scans
SCAN_BATCH = 64


@dataclass(frozen=True)
class SumProductContext:
    """A Kloosterman table together with the multiplicative twist c."""

    table: KloostermanTable
    c: int = 1
    twisted: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.c % self.table.field.size == 0:
            raise ValueError("twist c must be nonzero")
        tw = self.table.values[_mul_perm(self.table.field, self.c % self.table.field.size)]
        tw.setflags(write=False)
        object.__setattr__(self, "twisted", tw)

    @cached_property
    def row_table(self) -> np.ndarray:
        """T[u, s] = K_c(u*s), a Q x Q table built on first use."""
        f = self.field
        ids = np.arange(f.size, dtype=np.int64)
        T = self.twisted[f.mul_vec(ids[:, None], ids[None, :])]
        T.setflags(write=False)
        return T

    @property
    def pair_window(self) -> int:
        """The s-width of the pair-table grids: every unit for even k, one
        of each pair {s, -s} for odd k."""
        L = self.field.size - 1
        return L if self.k % 2 == 0 else L // 2

    @cached_property
    def pair_table(self) -> np.ndarray:
        """PT[d, i] = kappa[i] kappa[i + d] for d < Q - 1, kappa[i] =
        K_c(g^i) with indices mod Q - 1, and a zero last row; float64 from
        Re kappa for even k, complex for odd k, with Q - 1 + ``pair_window``
        columns so that every window of that width is contiguous.
        NotSelfDual unless the table is conjugation symmetric within
        ``conjugation_budget``.
        """
        budget = conjugation_budget(self.table)
        dev = conjugation_symmetry_check(self.table)
        if not dev <= budget:
            raise NotSelfDual(f"conj Kl_k(a) - Kl_k((-1)^k a) reaches {dev:.3e}, "
                              f"beyond the budget {budget:.3e}")
        L = self.field.size - 1
        kappa = self.twisted[self.field.exp_table]
        if self.k % 2 == 0:
            kappa = kappa.real
        n = L + self.pair_window
        ext = np.tile(kappa, 3)
        PT = np.zeros((L + 1, n), dtype=kappa.dtype)
        np.multiply(ext[:n], sliding_window_view(ext, n)[:L], out=PT[:L])
        PT.setflags(write=False)
        return PT

    @property
    def field(self):
        return self.table.field

    @property
    def k(self):
        return self.table.k


@dataclass(frozen=True)
class RatioReport:
    """A normalized cancellation statistic measured over a sample."""

    statistic: str
    sample: str
    max_ratio: float
    mean_ratio: float
    normalization_exponent: float


def classify_tuple(b, k: int) -> str:
    """'diagonal' or 'generic' per the even-multiplicity / equal-pair rule."""
    b = tuple(b)
    if k % 2 == 0:
        counts = Counter(b)
        return "diagonal" if all(v % 2 == 0 for v in counts.values()) else "generic"
    return "diagonal" if Counter(b[:2]) == Counter(b[2:]) else "generic"


# ----------------------------------------------------------------------
# genericity
# ----------------------------------------------------------------------

def zero_sum_patterns(field, k: int):
    """(z2, z3, z4) in mu_k(F_{q^d})^3 with 1 + z2 - z3 - z4 = 0."""
    zs = roots_of_unity(field, k)
    out = []
    for z2 in zs:
        for z3 in zs:
            for z4 in zs:
                if field.add(field.add(1, z2), field.neg(field.add(z3, z4))) == 0:
                    out.append((z2, z3, z4))
    return out


def is_generic_tuple(b, k: int, field) -> bool:
    """Pairwise distinct and off every zero-sum-pattern hyperplane."""
    b = tuple(b)
    if len(set(b)) < 4:
        return False
    for z2, z3, z4 in zero_sum_patterns(field, k):
        v = field.add(b[0], field.mul(z2, b[1]))
        v = field.sub(v, field.mul(z3, b[2]))
        v = field.sub(v, field.mul(z4, b[3]))
        if v == 0:
            return False
    return True


def _generic_tuple_exists(field, pats: np.ndarray) -> bool:
    """Whether any tuple is generic for the zero-sum patterns ``pats``.

    As 1 + z2 = z3 + z4, the form b1 + z2 b2 - z3 b3 - z4 b4 equals
    c1 + z2 c2 - z3 c3 for c = b - b4, and scaling c by 1/c1 keeps its zeros:
    a generic b exists iff some (1, u, v) is generic, u and v outside {0, 1}
    and distinct.  Each pattern rules out one v per u, namely
    (1 + z2 u) / z3, so with more than len(pats) + 3 field elements every u
    keeps a v; smaller fields are settled by marking the (u, v) grid.
    """
    Q = field.size
    if Q < 4:
        return False
    if Q > len(pats) + 3:
        return True
    u = np.arange(2, Q, dtype=np.int64)
    rows = np.arange(Q - 2)
    bad = np.zeros((Q - 2, Q), dtype=bool)
    bad[:, :2] = True
    bad[rows, u] = True
    for z2, z3, _z4 in pats:
        v = field.mul_vec(field.add_vec(1, field.mul_vec(int(z2), u)),
                          field.inv(int(z3)))
        bad[rows, v] = True
    return not bad.all()


def sample_generic_tuples(field, k: int, n: int, rng) -> np.ndarray:
    """n seeded generic tuples, as an (n, 4) int array of encodings;
    NoGenericTuple, before any draw, when the field has none."""
    q = field.size
    pats = np.array(zero_sum_patterns(field, k), dtype=np.int64).reshape(-1, 3)
    if n > 0 and not _generic_tuple_exists(field, pats):
        raise NoGenericTuple(f"F_{q} has no generic shift tuple for k = {k}")
    out = np.empty((n, 4), dtype=np.int64)
    got = 0
    while got < n:
        batch = rng.integers(0, q, size=(2 * (n - got) + 16, 4))
        b1, b2, b3, b4 = batch.T
        ok = ((b1 != b2) & (b1 != b3) & (b1 != b4) & (b2 != b3) & (b2 != b4)
              & (b3 != b4))
        for z2, z3, z4 in pats:
            ok &= (field.add_vec(b1, field.mul_vec(z2, b2))
                   != field.add_vec(field.mul_vec(z3, b3), field.mul_vec(z4, b4)))
        sel = batch[ok]
        take = min(len(sel), n - got)
        out[got:got + take] = sel[:take]
        got += take
    return out


# ----------------------------------------------------------------------
# the four-fold kernels
# ----------------------------------------------------------------------

def _kernel_steps(ctx, tuples, T, r=None):
    """Yield (lo, g), where g[i] is the four-fold product grid at (r, s_j)
    of the shift tuple tuples[lo + i] for the table T[u, j] = K_c(u s_j);
    r defaults to the whole field.

    The grids come a few tuples at a time (about KERNEL_STEP_CELLS cells per
    step), built into three scratch buffers allocated once per call: g is
    overwritten by the next step, so a caller keeps only what it reduces
    from it.  Each factor is a row gather T[r + b_j].
    """
    f = ctx.field
    r = np.arange(f.size, dtype=np.int64) if r is None else np.asarray(r, dtype=np.int64)
    u = f.add_vec(r[None, None, :], np.asarray(tuples, dtype=np.int64)[:, :, None])
    # mode="clip" lets take write into the buffers directly; the range
    # check it would otherwise make is made here, once
    if u.size and not 0 <= u.min() <= u.max() < len(T):
        raise IndexError("shift tuple outside the field")
    width = len(r) * T.shape[1]
    step = max(1, KERNEL_STEP_CELLS // (width or 1))
    shape = (min(step, len(u)), len(r), T.shape[1])
    # The buffers share one block.  glibc returns freed heap memory to the
    # system once it exceeds twice the largest block freed so far; three
    # separate buffers stayed under that size, so every call gave its pages
    # back and faulted them in again.
    g_buf, a_buf, b_buf = np.empty((3,) + shape, dtype=T.dtype)
    for lo in range(0, len(u), step):
        u1, u2, u3, u4 = u[lo:lo + step].transpose(1, 0, 2)
        m = len(u1)
        g, a, b = g_buf[:m], a_buf[:m], b_buf[:m]
        T.take(u1, axis=0, out=a, mode="clip")
        T.take(u2, axis=0, out=b, mode="clip")
        np.multiply(a, b, out=g)
        T.take(u3, axis=0, out=a, mode="clip")
        T.take(u4, axis=0, out=b, mode="clip")
        a *= b
        np.conj(a, out=a)
        g *= a
        yield lo, g


def _pair_steps(ctx, tuples):
    """Yield (lo, r0, g), where g[i, j] is row r0 + j of the four-fold
    product grid of the shift tuple tuples[lo + i], at the s with
    log s = 0 .. W-1 for W = ``ctx.pair_window``, read off the pair table.

    With u = r + b = g^l, the factor pair K_c(s u1) K_c(s u2) at s = g^j is
    PT[l2 - l1, l1 + j] (the zero row when u1 or u2 is 0), so each grid row
    is the product of two windows of width W: one field addition and one
    log lookup per (tuple, r), no field arithmetic per cell.  For odd k
    conj K_c(g^i) = K_c(g^(i + (Q-1)/2)), so the conjugated pair is the
    window that starts (Q-1)/2 further on.

    A step holds about KERNEL_STEP_CELLS cells: whole grids of a few tuples,
    or a block of rows of one grid when a grid is larger, so that a step
    stays in cache.  Both windows of a step come from one gather into a
    fresh array, freed before the step is yielded, and their product goes
    into one buffer allocated per call: g is overwritten by the next step.
    Steps of whole large grids (2 MiB at q^d = 529) ran four times slower;
    gathers still held when the next step allocated made glibc give the
    freed blocks back to the system and fault them in again.
    """
    f = ctx.field
    L = f.size - 1
    W = ctx.pair_window
    # advanced indexing, not np.take: take would first copy the whole
    # (Q, Q, W) view
    V = sliding_window_view(ctx.pair_table, W, axis=1)
    r = np.arange(f.size, dtype=np.int64)
    logs = f.log_table[f.add_vec(r, np.asarray(tuples, dtype=np.int64)[:, :, None])]
    # a[:, p] and b[:, p] are the logs of the pair p = (u1, u2), (u3, u4),
    # -1 at u = 0; D is its pair-table row and I its window start.  Index
    # arithmetic by compare-and-add: % on int64 cost as much as the gathers.
    a, b = logs[:, 0::2], logs[:, 1::2]
    D = b - a
    D[D < 0] += L
    D[np.minimum(a, b) < 0] = L
    # L - W is 0 for even k and (Q-1)/2 for odd k; a start of -1 (only at
    # u1 or u3 = 0, on the zero row) indexes the last window
    I = a + np.array([[0], [L - W]])
    I[I >= L] -= L
    rows = max(1, KERNEL_STEP_CELLS // W)
    m_step, r_step = max(1, rows // f.size), min(rows, f.size)
    g_buf = np.empty((min(m_step, len(D)), r_step, W), dtype=V.dtype)
    for lo in range(0, len(D), m_step):
        for r0 in range(0, f.size, r_step):
            blk = (slice(lo, lo + m_step), slice(None), slice(r0, r0 + r_step))
            p = V[D[blk], I[blk]]
            g = g_buf[:len(p), :p.shape[2]]
            np.multiply(p[:, 0], p[:, 1], out=g)
            del p
            yield lo, r0, g


def _four_fold(ctx, tuples, r=None, s=None) -> np.ndarray:
    """The full complex four-fold product G[m, i, j] at (r_i, s_j) for each
    shift tuple b = tuples[m]; r and s default to the whole field.  The
    table is the cached ``ctx.row_table`` when s is omitted, else its
    Q x len(s) slice."""
    f = ctx.field
    if s is None:
        T = ctx.row_table
    else:
        ids = np.arange(f.size, dtype=np.int64)
        T = ctx.twisted[f.mul_vec(ids[:, None], np.asarray(s, dtype=np.int64)[None, :])]
    G = np.empty((len(tuples), f.size if r is None else len(r), T.shape[1]),
                 dtype=T.dtype)
    for lo, g in _kernel_steps(ctx, tuples, T, r=r):
        G[lo:lo + len(g)] = g
    return G


def _lambda_transform(ctx, tuples, lam, cols=None):
    """R[m, r, i] = sum over every s in F of psi(lam_i s) G[m, r, s] for the
    grid G of each shift tuple; lam is [n], or [m, n] with one row per
    tuple.  Returns (R, col) with col[m] = sum_r G[m, r, g^cols[m]] for
    ``cols`` (pair-window columns, one per tuple), or col = None without
    them.

    The grids are streamed from ``_pair_steps``, with psi in the same log
    order: each step is reduced by one matmul into the preallocated R, so no
    batch of grids is ever held.  Even k: G is real, so R = G @ Re psi +
    i G @ Im psi, one real matmul against the stacked columns
    [Re psi | Im psi].  Odd k: the column of -s = g^(j + (Q-1)/2) holds
    conj G[r, g^j] and psi(-lam s) = conj psi(lam s), so R is real,
    2 Re(G @ psi) over j < (Q-1)/2: one real matmul of G's interleaved
    (re, im) pairs against the rows (Re psi, -Im psi).
    """
    f = ctx.field
    lam = np.asarray(lam, dtype=np.int64)
    n = lam.shape[-1]
    units = f.exp_table[:ctx.pair_window]
    even = ctx.k % 2 == 0
    P = f.psi_vec[f.mul_vec(lam[..., None, :], units[:, None])]  # [..., W, n]
    if even:
        W = np.concatenate([P.real, P.imag], axis=-1)
    else:
        W = np.stack([P.real, -P.imag], axis=-2).reshape(*P.shape[:-2], 2 * len(units), n)
    X = np.empty((len(tuples), f.size, W.shape[-1]))
    kcol = None if cols is None else np.empty((len(tuples), f.size),
                                              dtype=ctx.pair_table.dtype)
    for lo, r0, g in _pair_steps(ctx, tuples):
        hi, r1 = lo + len(g), r0 + g.shape[1]
        np.matmul(g if even else g.view(np.float64), W if W.ndim == 2 else W[lo:hi],
                  out=X[lo:hi, r0:r1])
        if kcol is not None:
            kcol[lo:hi, r0:r1] = g[np.arange(hi - lo), :, cols[lo:hi]]
    R = X[..., :n] + 1j * X[..., n:] if even else 2.0 * X
    return R, None if kcol is None else kcol.sum(axis=1)


def _psi_column(ctx, lam) -> np.ndarray:
    """psi(lam * s) for all s, as a vector indexed by s (a [m, s] array for a
    vector of lam)."""
    f = ctx.field
    ids = np.arange(f.size, dtype=np.int64)
    return f.psi_vec[f.mul_vec(np.asarray(lam)[..., None], ids)]


def _require_grid(ctx):
    """ResourceLimit unless the Q x Q tables of the kernel may be built: Q^2
    within GRID_CAP, and for d > 1 Q within the dense tables' cap."""
    f = ctx.field
    Q = f.size
    if Q * Q > GRID_CAP:
        raise ResourceLimit(f"(q^d)^2 grid too large: {Q * Q} > {GRID_CAP}")
    if f.degree > 1 and Q > PAIR_TABLE_CAP:
        raise ResourceLimit(f"F_{{q^d}} kernels need the dense tables, "
                            f"q^d <= {PAIR_TABLE_CAP}; got {Q}")


def product_grid(ctx, b) -> np.ndarray:
    """G[r, s] = K_c(s(r+b1)) K_c(s(r+b2)) conj(K_c(s(r+b3)) K_c(s(r+b4)))."""
    _require_grid(ctx)
    return _four_fold(ctx, [b])[0]


def big_k(ctx, r: int, s: int, lam: int, b) -> complex:
    f = ctx.field
    tv = ctx.twisted
    t = complex(f.psi_vec[f.mul(lam, s)])
    t *= complex(tv[f.mul(s, f.add(r, b[0]))]) * complex(tv[f.mul(s, f.add(r, b[1]))])
    t *= np.conj(complex(tv[f.mul(s, f.add(r, b[2]))]) * complex(tv[f.mul(s, f.add(r, b[3]))]))
    return t


def big_r(ctx, r: int, lam: int, b) -> complex:
    """Sum of big_k over every s (the table's zero at 0 kills the s=0 term)."""
    assert ctx.twisted[0] == 0
    return complex(_four_fold(ctx, [b], r=[r])[0, 0] @ _psi_column(ctx, lam))


def _require_distinct(b):
    if len(set(b)) < 4:
        raise NotDistinct(f"tuple {tuple(b)} has repeated coordinates")


def second_moment_r_lambda(ctx, b) -> float:
    """(1/Q^2) sum_{r,lam} |big_r|^2 via the exact Plancherel shortcut.

    Plancherel in lam collapses the double sum to (1/Q) sum_{r,s} |G[r,s]|^2,
    read off the pair-table grid: each odd-k column stands for s and -s.
    """
    _require_distinct(b)
    _require_grid(ctx)
    rows = np.empty(ctx.field.size)
    for _, r0, g in _pair_steps(ctx, [b]):
        rows[r0:r0 + g.shape[1]] = (np.abs(g[0]) ** 2).sum(axis=1)
    return float((1 if ctx.k % 2 == 0 else 2) * rows.sum() / ctx.field.size)


def second_moment_r_lambda_naive(ctx, b) -> float:
    """Literal double sum over (r, lam); cross-check at tiny sizes."""
    _require_distinct(b)
    Q = ctx.field.size
    if Q > 256:
        raise ResourceLimit("naive second moment is O(Q^3); use the shortcut")
    G = product_grid(ctx, b)
    psi_mat = _psi_column(ctx, np.arange(Q, dtype=np.int64))  # [lam, s], symmetric
    R = G @ psi_mat
    return float((np.abs(R) ** 2).sum() / Q**2)


def noncorrelation_moment(ctx, b) -> complex:
    """(1/Q^2) sum_{r,lam} big_r(r,lam,b) conj(big_r(r,-lam,b)), k odd.

    Averaging over lam pairs s with -s', so the double sum collapses exactly
    to (1/Q) sum_{r,s} G[r,s] conj(G[r,-s]).
    """
    if ctx.k % 2 == 0:
        raise WrongParity("defined for odd k only")
    _require_distinct(b)
    G = product_grid(ctx, b)
    return complex((G * np.conj(G[:, _neg_perm(ctx.field)])).sum() / ctx.field.size)


def correlation_matrix_cdiag(ctx) -> np.ndarray:
    """C(s, s') = (1/Q) sum_b K_c(s b) conj(K_c(s' b)) for all (s, s')."""
    _require_grid(ctx)
    M = ctx.row_table  # [s, b]
    return (M @ np.conj(M.T)) / ctx.field.size


def full_average_moment(ctx) -> float:
    """(1/Q^5) sum_{r, b} |big_r(r, 0, b)|^2, via the correlation reduction.

    Shifting r into the tuple and expanding the square turns the five-fold
    average into sum over unit pairs (s, s') of |C(s,s')|^2 |C(s',s)|^2.
    """
    C = correlation_matrix_cdiag(ctx)
    Cu = C[1:, 1:]
    return float((np.abs(Cu) ** 2 * np.abs(Cu.T) ** 2).sum().real)


def full_average_moment_naive(ctx) -> float:
    """Literal five-fold average; only for q^d <= 13."""
    f = ctx.field
    Q = f.size
    if Q > 13:
        raise ResourceLimit("naive five-fold average is O(Q^6)")
    total = 0.0
    psi0 = np.ones(Q, dtype=np.complex128)
    for b1 in range(Q):
        for b2 in range(Q):
            for b3 in range(Q):
                for b4 in range(Q):
                    R = product_grid(ctx, (b1, b2, b3, b4)) @ psi0
                    total += float((np.abs(R) ** 2).sum())
    return total / Q**5


# ----------------------------------------------------------------------
# incomplete sums (d = 1)
# ----------------------------------------------------------------------

def _require_prime_field(ctx):
    if ctx.field.degree != 1:
        raise ValueError("incomplete sums are defined over the prime field")


def sigma_incomplete(ctx, b, A: int, M: int) -> complex:
    """Sum over r mod q and integer 1 <= s <= 2AM of the 4-fold product."""
    _require_prime_field(ctx)
    q = ctx.field.q
    smax = 2 * A * M
    if smax < 0 or q * max(smax, 1) > GRID_CAP:
        raise RangeTooLarge(f"s-range 2AM = {smax} too large")
    if smax == 0:
        return 0j
    return complex(_four_fold(ctx, [b], s=np.arange(1, smax + 1) % q).sum())


def sigma_neq(ctx, b, AM: int) -> complex:
    """Sum over r mod q and 1 <= s1, s2 <= AM with s1 != s2 mod q of the
    8-fold product."""
    _require_prime_field(ctx)
    q = ctx.field.q
    if AM < 0 or (2 * AM) ** 2 * q > GRID_CAP:
        raise RangeTooLarge(f"(2AM)^2 q = {(2 * AM) ** 2 * q} exceeds cap")
    if AM <= 1:
        return 0j
    res = np.arange(1, AM + 1) % q
    G = _four_fold(ctx, [b], s=res)[0]
    rows = G.sum(axis=1)
    total = (np.abs(rows) ** 2).sum()
    # remove the pairs with s1 = s2 mod q, grouped by residue class
    for t in np.unique(res):
        cls = G[:, res == t].sum(axis=1)
        total -= (np.abs(cls) ** 2).sum()
    return complex(total)


# ----------------------------------------------------------------------
# scanning
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScanSpec:
    """Sampling plan for tuple scans (exhaustive below FULL_SCAN_MAX_Q)."""

    n_samples: int = DEFAULT_SAMPLES
    seed: int = 1
    lambdas: tuple = (0, 1)


@dataclass(frozen=True)
class ScanRow:
    b: tuple
    classification: str
    ratio_r_linear: float
    ratio_corr: float
    flagged: bool
    reason: str


@dataclass(frozen=True)
class ScanResult:
    rows: list
    thresholds: dict
    flagged_fraction: float
    expected_fraction: float  # Schwarz-Zippel style deg/q yardstick
    spec: ScanSpec
    exhaustive: bool


def _batched_tuple_stats(ctx, tuples: np.ndarray, lambdas):
    """Per-tuple max |sum_r R|/q^d and off-diagonal |sum_r R conj(R')|/q^{3d/2}."""
    Q = ctx.field.size
    n = len(tuples)
    lin = np.empty(n)
    corr = np.empty(n)
    for lo in range(0, n, SCAN_BATCH):
        tb = tuples[lo:lo + SCAN_BATCH]
        m = len(tb)
        R, _ = _lambda_transform(ctx, tb, lambdas)
        rsum = R.sum(axis=1)
        lin[lo:lo + m] = np.abs(rsum).max(axis=1) / Q
        CM = np.einsum("bri,brj->bij", R, np.conj(R))
        il, jl = np.triu_indices(len(lambdas), k=1)
        off = np.abs(CM[:, il, jl])
        corr[lo:lo + m] = (off.max(axis=1) if len(il) else 0.0) / Q**1.5
    return lin, corr


def scan_bad_tuples(ctx, thresholds: dict | None = None,
                    spec: ScanSpec = ScanSpec()) -> ScanResult:
    """Flag diagonal tuples and tuples whose normalized sums spike.

    Default thresholds are 3x the sample median of each ratio; with infinite
    thresholds only diagonal tuples are flagged.
    """
    _require_grid(ctx)
    f = ctx.field
    Q = f.size
    exhaustive = Q <= FULL_SCAN_MAX_Q
    if exhaustive:
        ids = np.arange(Q, dtype=np.int64)
        tuples = np.stack(np.meshgrid(ids, ids, ids, ids, indexing="ij"),
                          axis=-1).reshape(-1, 4)
    else:
        rng = np.random.default_rng(spec.seed)
        tuples = rng.integers(0, Q, size=(spec.n_samples, 4))
    lin, corr = _batched_tuple_stats(ctx, tuples, spec.lambdas)
    classes = [classify_tuple(tuple(int(x) for x in t), ctx.k) for t in tuples]
    if thresholds is None:
        nondiag = np.array([c == "generic" for c in classes])
        thresholds = {
            "r_linear": 3.0 * float(np.median(lin[nondiag])),
            "corr": 3.0 * float(np.median(corr[nondiag])) if len(spec.lambdas) > 1 else math.inf,
        }
    rows = []
    flagged = 0
    for i, t in enumerate(tuples):
        reason = ""
        if classes[i] == "diagonal":
            reason = "diagonal"
        elif lin[i] > thresholds["r_linear"]:
            reason = "r_linear"
        elif corr[i] > thresholds["corr"]:
            reason = "corr"
        if reason:
            flagged += 1
        rows.append(ScanRow(b=tuple(int(x) for x in t), classification=classes[i],
                            ratio_r_linear=float(lin[i]), ratio_corr=float(corr[i]),
                            flagged=bool(reason), reason=reason))
    return ScanResult(rows=rows, thresholds=thresholds,
                      flagged_fraction=flagged / len(tuples),
                      expected_fraction=1.0 / Q, spec=spec, exhaustive=exhaustive)


def _ratio_stats(ctx, tuples, svals, lam1, lam2):
    """The K, R, C and D ratios of ``ratio_scan`` for each tuple, at its s,
    lambda1 and lambda2, from the pair-table grids.  K reads the column
    log s mod W, of s or -s: the two sums over r are conjugate."""
    Q = ctx.field.size
    cols = ctx.field.log_table[np.asarray(svals, dtype=np.int64)] % ctx.pair_window
    R, col = _lambda_transform(ctx, tuples, np.stack([lam1, lam2], axis=-1), cols)
    K = np.abs(col) / Q**0.5
    R1, R2 = R[..., 0], R[..., 1]
    return (K, np.abs(R1.sum(axis=1)) / Q,
            np.abs((R1 * np.conj(R2)).sum(axis=1)) / Q**1.5,
            np.abs((np.abs(R1) ** 2).sum(axis=1) - Q * Q) / Q**1.5)


def ratio_scan(ctx, n_samples: int = 500, seed: int = 1, replicates: int = 1):
    """The four normalized cancellation statistics over seeded generic samples.

    Per replicate draws ``n_samples`` generic tuples b with companion draws of
    s, lambda1 != lambda2, and measures

    * K:  |sum_r 4-fold product at (s, b)| / q^{d/2}
    * R:  |sum_r big_r(r, lam1, b)| / q^d
    * C:  |sum_r big_r(r, lam1) conj(big_r(r, lam2))| / q^{3d/2}
    * D:  |sum_r |big_r(r, lam1)|^2 - q^{2d}| / q^{3d/2}

    Returns {name: RatioReport}, with max_ratio averaged over replicates
    (the averaging tames the extreme-value noise of a single max).
    """
    _require_grid(ctx)
    f = ctx.field
    Q = f.size
    rng = np.random.default_rng(seed)
    rep_max = {name: [] for name in "KRCD"}
    rep_mean = {name: [] for name in "KRCD"}
    for _ in range(replicates):
        tuples = sample_generic_tuples(f, ctx.k, n_samples, rng)
        svals = rng.integers(1, Q, size=n_samples)
        lam1 = rng.integers(0, Q, size=n_samples)
        lam2 = (lam1 + rng.integers(1, Q, size=n_samples)) % Q
        vals = {name: np.empty(n_samples) for name in "KRCD"}
        for lo in range(0, n_samples, SCAN_BATCH):
            hi = lo + SCAN_BATCH
            stats = _ratio_stats(ctx, tuples[lo:hi], svals[lo:hi], lam1[lo:hi],
                                 lam2[lo:hi])
            for name, v in zip("KRCD", stats):
                vals[name][lo:hi] = v
        for name in "KRCD":
            rep_max[name].append(vals[name].max())
            rep_mean[name].append(vals[name].mean())
    norm = {"K": 0.5, "R": 1.0, "C": 1.5, "D": 1.5}
    desc = (f"q={f.q} d={f.degree} k={ctx.k} c={ctx.c} n={n_samples} "
            f"seed={seed} replicates={replicates}")
    return {name: RatioReport(statistic=name, sample=desc,
                              max_ratio=float(np.mean(rep_max[name])),
                              mean_ratio=float(np.mean(rep_mean[name])),
                              normalization_exponent=norm[name])
            for name in "KRCD"}
