"""Four-fold Kloosterman product kernels and their complete-sum statistics.

The central objects, for a twisted table K_c(x) = Kl_k(c*x) and a shift tuple
b = (b1, b2, b3, b4), are the four-fold sum K(r, s, lam, b), which is
psi(lam s) times the product G[r, s] = K_c(s(r+b1)) K_c(s(r+b2))
conj(K_c(s(r+b3)) K_c(s(r+b4))), and R(r, lam, b), the sum of K over every s:
the discrete Fourier transform in lam of the row G[r], whose s = 0 term
vanishes because the table is 0 at 0.

On top of these sit second moments computed through the exact Plancherel
shortcut, and scanning utilities that measure normalized cancellation ratios
over sampled shift tuples.  Complete sums over r are read off the grid:
``product_grid(ctx, b)[:, s].sum()`` for one s, and
``product_grid(ctx, b).sum(0) @ psi`` for sum_r R(r, lam, b).

A tuple is *diagonal* when its coordinates pair up (the even-multiplicity
rule for k even, equal two-element multisets for k odd); on diagonal tuples
square-root cancellation provably degrades, so scans treat them separately.
We call a tuple *generic* when its coordinates are pairwise distinct and it
avoids every hyperplane b1 + z2*b2 - z3*b3 - z4*b4 = 0 with (z2, z3, z4)
k-th roots of unity in F_q summing to zero against 1; those hyperplanes are
the degenerate directions visible in the data (they contain the diagonal
pairings and produce measurably inflated correlation sums).

Every grid of four-fold products comes from one index pass over all the
tuples of a call, ``_pair_index``, and one stepped generator, ``_pair_steps``.
It streams the grids about KERNEL_STEP_CELLS cells at a time and multiplies
the factors always in the order ((K1 K2) conj(K3 K4)), so every statistic
is reproducible bit for bit, and the scans reduce each step while it is
still in cache (one matmul per step for the lam-transform, the row sums of
|G|^2): no batch of grids is ever held, so memory grows with Q^2, not with
the number of tuples.  The moments square each step in its own buffer, so
they allocate nothing per step.

Kl_k lives on the cyclic group F^x, so in discrete logs (s = g^j, u = g^l)
the table K_c(u s) is a Hankel matrix, kappa[l + j] with kappa[i] =
K_c(g^i), indices mod Q - 1.  The product of two factors is then one window
of a pair table,

    K_c(s u1) K_c(s u2) = kappa[l1 + j] kappa[l2 + j] = PT[l2 - l1, l1 + j],
    PT[d, i] = kappa[i] kappa[i + d],

which depends only on the offset d and the start l1 + j.  The offset L - d,
L = Q - 1, holds the products of the offset d with the two factors
swapped, so PT keeps only the rows d <= L/2, and a zero last row serves
every pair with a factor at u = 0: L/2 + 2 rows.  Each unordered pair has
one canonical window, in the row min(d, L - d): from l1 when d < L/2,
from l2 when d > L/2, and from the smaller log at d = L/2.  So swapping
b1 and b2, or b3 and b4, reads the same windows, and every grid is
invariant under those swaps bit for bit, for odd k too, where numpy's
complex multiply does not commute in the last bits.  The index pass gives
each pair its window's start in the flattened PT, so a grid row over the
s in log order is one gather and one multiply, with no field arithmetic
per cell, and one column (the K column of ``ratio_scan``) two reads of PT
per row.  The dual of Kl_k is [-1]*Kl_k, so conj K_c(a) =
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

``product_grid`` scatters these columns into the Q x Q grid indexed by s
(the conjugates into the columns -s for odd k; the column s = 0 is 0),
and the naive second moment reads it.  The full average over b needs no
grid at all: in logs the correlation C(g^i, g^j) depends only on j - i, so
it is one FFT autocorrelation of kappa.

The pair table is only as good as that self-duality, so PT is built only
after ``conjugation_symmetry_check`` on the table has come within
k * q^d * 1e-15 (NotSelfDual otherwise); the licence covers the odd-k
window shift as much as the even-k real table.

What every call would otherwise rebuild is built once per context, on first
use and only after that licence, as its ``kernel_plan`` (see ``KernelPlan``):
the index pass's log tables and its jump table over l2 - l1 (the odd-k shift
and the zero row folded in), the window view of the pair table, and the
lambda-transform's runs of psi.  Each is read-only and O(Q), or a view of the
pair table, so the pair table stays the only Q x Q table a context holds.
The plan holds no step shape: KERNEL_STEP_CELLS is read on every call.  The
zero-sum patterns, the genericity verdict and the forms the sampler tests
are cached per (field, k).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (NoGenericTuple, NotDistinct, NotSelfDual, OutOfRange,
                     ResourceLimit, WrongParity)
from .fields import PAIR_TABLE_CAP, roots_of_unity
from .kloosterman import (KloostermanTable, _mul_perm, conjugation_budget,
                          conjugation_symmetry_check)

FULL_SCAN_MAX_Q = 31
DEFAULT_SAMPLES = 2000
GRID_CAP = 1 << 24
# The kernel streams its grids a few tuples at a time, so that each step's
# scratch buffers (512 KiB of complex128 each) stay in a core's L2 cache;
# whole 64-tuple batches at q = 199 ran about 2x slower.  The step's shape
# is the row count of the lam-transform's matmul, and BLAS sums products of
# another shape in another order, so the scans' last bits depend on this
# value (k = 3 at q = 199: 2^12 .. 2^14 against 2^15 .. 2^18; k = 2 and 3
# at F_{23^2}): changing it is a change of spec.
KERNEL_STEP_CELLS = 1 << 15
# tuples per kernel call in the scans
SCAN_BATCH = 64
# the lambdas whose R columns ``scan_bad_tuples`` measures
SCAN_LAMBDAS = (0, 1)


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

    @property
    def pair_window(self) -> int:
        """The s-width of the pair-table grids: every unit for even k, one
        of each pair {s, -s} for odd k."""
        L = self.field.size - 1
        return L if self.k % 2 == 0 else L // 2

    @cached_property
    def pair_table(self) -> np.ndarray:
        """PT[d, i] = kappa[i] kappa[i + d] for d <= L/2, L = Q - 1, kappa[i]
        = K_c(g^i) with indices mod L, and a zero last row, L/2 + 2 rows in
        all: the offset L - d is the offset d with the factors swapped, so
        ``_pair_index`` reads every pair from the row min(d, L - d).
        float64 from Re kappa for even k, complex for odd k, with L +
        ``pair_window`` columns so that every window of that width is
        contiguous.  NotSelfDual unless the table is conjugation symmetric
        within ``conjugation_budget``.
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
        n, h = L + self.pair_window, L // 2 + 1
        ext = np.tile(kappa, 3)
        PT = np.zeros((h + 1, n), dtype=kappa.dtype)
        np.multiply(ext[:n], sliding_window_view(ext, n)[:h], out=PT[:h])
        PT.setflags(write=False)
        return PT

    @cached_property
    def kernel_plan(self) -> KernelPlan:
        """The kernel's constants (see ``KernelPlan``), built on first use,
        after the ``pair_table`` licence."""
        return _build_plan(self)

    @property
    def field(self):
        return self.table.field

    @property
    def k(self):
        return self.table.k


@dataclass(frozen=True)
class KernelPlan:
    """The constants of one context's four-fold kernel, each read-only and
    O(Q), or a view of the pair table PT (L = Q - 1, W = ``pair_window``).

    * ``logs``: at ``log_off[j]`` + u, the log of u as the factor j of a
      tuple: + 3L for u2, + 8L for u4, L/2 further on for u3 and u4 when k
      is odd, and u = 0 at -L as a first factor and -2L as a second.  Each
      of the four tables is doubled, so over F_q the logs of r + b_j, r < q,
      are the row ``log_rows[log_off[j] + b_j]``.
    * ``jump``: over e = b - a, a and b the logs of a pair, its window's
      start in PT.flat less a.  The offsets give the two pairs a block each,
      and the zero logs the e that send a pair to the zero row.
    * ``V``: V[i] is the window PT.flat[i:i + W].
    * ``col``: log s mod W, the pair-window column of s or -s.
    * ``start``, ``TV``, ``re_im``: psi(lam g^j), j < W, is the window
      ``TV[start[lam]]`` of Re psi, and ``re_im[1]`` further on of Im psi
      (odd k: -Im psi).
    """

    logs: np.ndarray
    log_off: np.ndarray
    log_rows: np.ndarray
    jump: np.ndarray
    V: np.ndarray
    col: np.ndarray
    start: np.ndarray
    TV: np.ndarray
    re_im: np.ndarray


def _build_plan(ctx) -> KernelPlan:
    PT = ctx.pair_table  # the licence, before anything else
    f, W = ctx.field, ctx.pair_window
    Q, L = f.size, f.size - 1
    n, h, shift = PT.shape[1], L // 2, L - W
    zero_row, log = (PT.shape[0] - 1) * n, f.log_table

    def logs(by, at_zero, off):
        t = (log + by) % L + off
        t[log < 0] = at_zero + off
        return np.tile(t, 2)

    # the window starts at a when (b - a) mod L < L/2, at b when it is
    # > L/2, and at L/2 at the smaller log (after the odd-k shift, which
    # swaps the two logs' order, the larger); a zero factor sends the pair
    # to the zero row: a = -L, or b = -2L with a = -2L - e (or -L)
    e = np.arange(-3 * L, 2 * L)

    def jumps(half):
        j = np.minimum(abs(e), L - abs(e)) * n + np.where((e % L > h) | (e == half), e, 0)
        return np.select([e >= L, e <= -L], [zero_row + L, zero_row + 2 * L + e], j)

    log_at = np.concatenate([logs(0, -L, 0), logs(0, -2 * L, 3 * L),
                             logs(shift, -L, 0), logs(shift, -2 * L, 8 * L)])
    # psi(lam g^j) is at log lam + j of the runs of g^0 .. g^(L+W-2), and
    # psi(0) at L + W - 1 + j
    psi = f.psi_vec[np.concatenate([f.exp_table, f.exp_table[:W - 1],
                                    np.zeros(W, dtype=np.int64)])]
    T = np.concatenate([psi.real, psi.imag if ctx.k % 2 == 0 else -psi.imag])
    plan = KernelPlan(
        logs=log_at, log_off=np.arange(0, 8 * Q, 2 * Q),
        log_rows=sliding_window_view(log_at, Q),
        jump=np.concatenate([jumps(-h), jumps(h if shift else -h)]),
        V=np.ndarray((PT.size - W + 1, W), PT.dtype, PT, 0, PT.strides[1:] * 2),
        col=log % W, start=np.where(log < 0, L + W - 1, log),
        TV=sliding_window_view(T, W), re_im=np.array([[0], [len(psi)]]))
    for a in vars(plan).values():
        a.setflags(write=False)
    return plan


@dataclass(frozen=True)
class RatioReport:
    """A normalized cancellation statistic measured over a sample."""

    sample: str
    max_ratio: float
    mean_ratio: float
    normalization_exponent: float


def diagonal_mask(tuples, k: int) -> np.ndarray:
    """Which rows of the (n, 4) ``tuples`` are diagonal: for even k every
    value has even multiplicity (sorted s0 = s1 and s2 = s3), for odd k the
    pairs agree as multisets (sorted (b1, b2) = sorted (b3, b4))."""
    if k % 2 == 0:
        s = np.sort(tuples, axis=1)
        return (s[:, 0] == s[:, 1]) & (s[:, 2] == s[:, 3])
    return (np.sort(tuples[:, :2], axis=1) == np.sort(tuples[:, 2:], axis=1)).all(axis=1)


# ----------------------------------------------------------------------
# genericity
# ----------------------------------------------------------------------

# (patterns, generic, forms) per field and k, keyed by the field's
# parameters, so that no field and none of its dense tables is kept alive
_GENERICITY = {}


def _genericity(field, k: int):
    """The zero-sum patterns of (field, k), the (z2, z3, z4) in mu_k(F_{q^d})^3
    with 1 + z2 - z3 - z4 = 0, as a tuple in lexicographic order of the
    roots' indices; whether the field has a generic tuple for k; and the
    forms z . b, as the read-only columns of an int array, that a generic b
    keeps nonzero: the six b_i - b_j and each pattern's b1 + z2 b2 - z3 b3 -
    z4 b4.  Built once per (field, k), the patterns from one broadcast."""
    key = (type(field).__name__, field.q, field.degree, field.modulus, k)
    got = _GENERICITY.get(key)
    if got is None:
        zs = np.array(roots_of_unity(field, k), dtype=np.int64)
        hit = field.add(1, zs)[:, None, None] == field.add(zs[:, None], zs[None, :])[None]
        pats = tuple(zip(*(zs[i].tolist() for i in np.nonzero(hit))))
        m1 = field.neg(1)
        forms = np.array([(1, m1, 0, 0), (1, 0, m1, 0), (1, 0, 0, m1), (0, 1, m1, 0),
                          (0, 1, 0, m1), (0, 0, 1, m1),
                          *((1, z2, field.neg(z3), field.neg(z4)) for z2, z3, z4 in pats)]).T
        forms.setflags(write=False)
        generic = _generic_tuple_exists(field, np.array(pats, dtype=np.int64).reshape(-1, 3))
        got = _GENERICITY[key] = (pats, generic, forms)
    return got


def _generic_tuple_exists(field, pats: np.ndarray) -> bool:
    """Whether any tuple is generic for the zero-sum patterns ``pats``.

    As 1 + z2 = z3 + z4, the form b1 + z2 b2 - z3 b3 - z4 b4 equals
    c1 + z2 c2 - z3 c3 for c = b - b4, and scaling c by 1/c1 keeps its zeros:
    a generic b exists iff some (1, u, v) is generic, u and v outside {0, 1}
    and distinct.  Each pattern rules out one v per u, namely
    (1 + z2 u) / z3, so with more than len(pats) + 3 field elements every u
    keeps a v; smaller fields are settled by marking the (u, v) grid, which
    at Q = 3 has the one row u = 2 and no v left in it.
    """
    Q = field.size
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


def _require_at_least(lo: int, **counts) -> None:
    """OutOfRange naming the first count below lo."""
    for name, v in counts.items():
        if v < lo:
            raise OutOfRange(f"{name} = {v}: need at least {lo}")


def sample_generic_tuples(field, k: int, n: int, rng) -> np.ndarray:
    """n seeded generic tuples, as an (n, 4) int array of encodings;
    OutOfRange for n < 0, and NoGenericTuple when the field has none, both
    before any draw."""
    _require_at_least(0, n=n)
    q = field.size
    _, generic, forms = _genericity(field, k)
    if n > 0 and not generic:
        raise NoGenericTuple(f"F_{q} has no generic shift tuple for k = {k}")
    # generic: no form z . b is 0, all in one broadcast (over F_q a matmul)
    out = np.empty((n, 4), dtype=np.int64)
    got = 0
    while got < n:
        batch = rng.integers(0, q, size=(2 * (n - got) + 16, 4))
        if field.degree == 1:
            zb = batch @ forms % q
        else:
            zb = reduce(field.add_vec, map(field.mul_vec, batch.T[:, :, None], forms))
        sel = batch[zb.all(axis=1)]
        take = min(len(sel), n - got)
        out[got:got + take] = sel[:take]
        got += take
    return out


# ----------------------------------------------------------------------
# the four-fold kernels
# ----------------------------------------------------------------------

def _pair_index(ctx, tuples):
    """The index pass: P[m, p, r], the start in the flattened pair table of
    the window (width ``ctx.pair_window``) of the pair p = (u1, u2) or
    (u3, u4), u = r + b, in row r of the grid of tuples[m].  With u1 = g^l1,
    u2 = g^l2 and d = (l2 - l1) mod L, L = Q - 1, the window is PT[d, l1:]
    for d < L/2 and PT[L - d, l2:] for d > L/2, and at d = L/2 it starts at
    the smaller log: one canonical window per unordered pair, so swapping
    u1 and u2 leaves every grid bit for bit the same.  For odd k conj
    K_c(g^i) = K_c(g^(i + L/2)), so the conjugated pair starts L/2 further
    on, mod L.  One gather from the plan's log tables and one from its jump
    table over l2 - l1 give row and start, the zero row for a pair with
    u1 or u2 = 0 included (see ``KernelPlan``).  Over F_{q^d} the log
    tables are read at ``add_vec``'s int16 encodings plus the tables'
    offsets, as intp indices.
    """
    f, plan = ctx.field, ctx.kernel_plan
    t = np.asarray(tuples, dtype=np.int64)
    if f.degree == 1:
        logs = plan.log_rows[t % f.size + plan.log_off]
    else:
        r = np.arange(f.size, dtype=np.int64)
        logs = plan.logs.take(f.add_vec(r, t[:, :, None]) + plan.log_off[:, None])
    a, b = logs[:, 0::2], logs[:, 1::2]
    return plan.jump.take(b - a) + a


def _pair_steps(ctx, P):
    """Yield (lo, r0, g), where g[i, j] is row r0 + j of the four-fold
    product grid of the tuple lo + i of the index pass P, at the s with
    log s = 0 .. W-1 for W = ``ctx.pair_window``: one window gather and one
    multiply, no field arithmetic per cell.

    A step holds about KERNEL_STEP_CELLS cells: whole grids of a few tuples,
    or a block of rows of one grid when a grid is larger, so that a step
    stays in cache.  Both windows of a step come from one gather into a
    fresh array, freed before the step is yielded, and their product goes
    into one buffer allocated per call: g is overwritten by the next step,
    and the consumer may overwrite it too (the moments square it in place).
    Steps of whole large grids (2 MiB at q^d = 529) ran four times slower;
    gathers still held when the next step allocated made glibc give the
    freed blocks back to the system and fault them in again.
    """
    Q = ctx.field.size
    W = ctx.pair_window
    # advanced indexing, not np.take: take would first copy the whole view
    V = ctx.kernel_plan.V
    rows = max(1, KERNEL_STEP_CELLS // W)
    m_step, r_step = max(1, rows // Q), min(rows, Q)
    g_buf = np.empty((min(m_step, len(P)), r_step, W), dtype=V.dtype)
    for lo in range(0, len(P), m_step):
        for r0 in range(0, Q, r_step):
            p = V[P[lo:lo + m_step, :, r0:r0 + r_step]]
            g = g_buf[:len(p), :p.shape[2]]
            np.multiply(p[:, 0], p[:, 1], out=g)
            del p
            yield lo, r0, g


def _lambda_transform(ctx, P, lam):
    """R[m, r, i] = sum over every s in F of psi(lam_i s) G[m, r, s] for the
    grid G of each shift tuple, given by its index pass ``P`` of
    ``_pair_index``; lam is [n], or [m, n] with one row per tuple.

    The grids are streamed from ``_pair_steps``, with psi in the same log
    order: each step is reduced by one matmul into the preallocated R, so no
    batch of grids is ever held.  Even k: G is real, so R = G @ Re psi +
    i G @ Im psi, one real matmul against the stacked columns
    [Re psi | Im psi].  Odd k: the column of -s = g^(j + (Q-1)/2) holds
    conj G[r, g^j] and psi(-lam s) = conj psi(lam s), so R is real,
    2 Re(G @ psi) over j < (Q-1)/2: one real matmul of G's interleaved
    (re, im) pairs against the rows (Re psi, -Im psi).
    """
    plan, W = ctx.kernel_plan, ctx.pair_window
    lam = np.asarray(lam, dtype=np.int64)
    lead, n = lam.shape[:-1], lam.shape[-1]
    even = ctx.k % 2 == 0
    # Y[..., j, 0 | 1, i] = Re psi | Im psi (odd k: -Im psi) of lam_i g^j,
    # read as [Re psi | Im psi], [..., W, 2n], for even k and as the rows
    # (Re psi, -Im psi) interleaved, [..., 2W, n], for odd k; C-contiguous:
    # R's last bits depend on it
    Y = np.empty((*lead, W, 2, n))
    Y.transpose(*range(len(lead)), -2, -1, -3)[...] = plan.TV[plan.start[lam][..., None, :]
                                                              + plan.re_im]
    Y = Y.reshape(*lead, W, 2 * n) if even else Y.reshape(*lead, 2 * W, n)
    X = np.empty((len(P), ctx.field.size, Y.shape[-1]))
    for lo, r0, g in _pair_steps(ctx, P):
        hi, r1 = lo + len(g), r0 + g.shape[1]
        np.matmul(g if even else g.view(np.float64), Y if Y.ndim == 2 else Y[lo:hi],
                  out=X[lo:hi, r0:r1])
    if even:
        R = np.empty((*X.shape[:-1], n), dtype=np.complex128)
        R.real, R.imag = X[..., :n], X[..., n:]
    else:
        R = np.multiply(X, 2.0, out=X)
    return R


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
    """G[r, s] = K_c(s(r+b1)) K_c(s(r+b2)) conj(K_c(s(r+b3)) K_c(s(r+b4))),
    scattered from the pair-table grid: float64 for even k, and for odd k
    the column -s = g^(j + (Q-1)/2) holds conj G[r, g^j]."""
    _require_grid(ctx)
    f = ctx.field
    W = ctx.pair_window
    G = np.zeros((f.size, f.size), dtype=ctx.pair_table.dtype)
    for _, r0, g in _pair_steps(ctx, _pair_index(ctx, [b])):
        rows = slice(r0, r0 + g.shape[1])
        G[rows, f.exp_table[:W]] = g[0]
        if ctx.k % 2:
            G[rows, f.exp_table[W:]] = np.conj(g[0], out=g[0])
    return G


def _require_distinct(b):
    if len(set(b)) < 4:
        raise NotDistinct(f"tuple {tuple(b)} has repeated coordinates")


def second_moment_r_lambda(ctx, b) -> float:
    """(1/Q^2) sum_{r,lam} |R(r, lam, b)|^2 via the exact Plancherel shortcut.

    Plancherel in lam collapses the double sum to (1/Q) sum_{r,s} |G[r,s]|^2,
    read off the pair-table grid: each odd-k column stands for s and -s.
    """
    _require_distinct(b)
    _require_grid(ctx)
    rows, buf = np.empty(ctx.field.size), None
    for _, r0, g in _pair_steps(ctx, _pair_index(ctx, [b])):
        a = g[0]
        if ctx.k % 2:  # |g| into one buffer, at the first (largest) step's shape
            buf = np.empty(a.shape) if buf is None else buf
            a = np.abs(a, out=buf[:len(a)])
        rows[r0:r0 + len(a)] = np.square(a, out=a).sum(axis=1)
    return float((1 if ctx.k % 2 == 0 else 2) * rows.sum() / ctx.field.size)


def second_moment_r_lambda_naive(ctx, b) -> float:
    """Literal double sum over (r, lam); cross-check at tiny sizes."""
    _require_distinct(b)
    f = ctx.field
    Q = f.size
    if Q > 256:
        raise ResourceLimit("naive second moment is O(Q^3); use the shortcut")
    ids = np.arange(Q, dtype=np.int64)
    R = product_grid(ctx, b) @ f.psi_vec[f.mul_vec(ids[:, None], ids)]  # [r, lam]
    return float((np.abs(R) ** 2).sum() / Q**2)


def noncorrelation_moment(ctx, b) -> complex:
    """(1/Q^2) sum_{r,lam} R(r,lam,b) conj(R(r,-lam,b)), k odd.

    Averaging over lam pairs s with -s', so the double sum collapses exactly
    to (1/Q) sum_{r,s} G[r,s] conj(G[r,-s]) = (1/Q) sum_{r,s} G[r,s]^2, as
    G[r,-s] = conj G[r,s]: 2 Re g^2 summed over the pair-table half grid.
    """
    if ctx.k % 2 == 0:
        raise WrongParity("defined for odd k only")
    _require_distinct(b)
    _require_grid(ctx)
    rows = np.empty(ctx.field.size, dtype=np.complex128)
    for _, r0, g in _pair_steps(ctx, _pair_index(ctx, [b])):
        rows[r0:r0 + g.shape[1]] = np.square(g[0], out=g[0]).sum(axis=1)
    return complex(2 * rows.sum().real / ctx.field.size)


def full_average_moment(ctx) -> float:
    """(1/Q^5) sum_{r, b} |R(r, 0, b)|^2, via the correlation reduction.

    Shifting r into the tuple and expanding the square turns the five-fold
    average into sum over unit pairs (s, s') of |C(s,s')|^2 |C(s',s)|^2, with
    C(s, s') = (1/Q) sum_b K_c(s b) conj(K_c(s' b)).  C is Hermitian, and at
    s = g^i, s' = g^j it depends only on j - i: Q C is the cyclic
    autocorrelation c of kappa[i] = K_c(g^i), one FFT pair, and the moment
    is (Q - 1) sum_d |c[d]|^4 / Q^4.
    """
    f = ctx.field
    kappa = ctx.twisted[f.exp_table]
    c = np.fft.ifft(np.abs(np.fft.fft(kappa)) ** 2)
    return float((f.size - 1) * (np.abs(c) ** 4).sum() / f.size**4)


# ----------------------------------------------------------------------
# scanning
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScanSpec:
    """Sampling plan for tuple scans (exhaustive below FULL_SCAN_MAX_Q)."""

    n_samples: int = DEFAULT_SAMPLES
    seed: int = 1


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
    """A scan as columns, one entry per tuple: ``tuples`` (int64 [n, 4]),
    the ``diagonal`` mask, the two ratios and ``reason`` ('diagonal',
    'r_linear', 'corr', or '' when the tuple is not flagged)."""

    tuples: np.ndarray
    diagonal: np.ndarray
    ratio_r_linear: np.ndarray
    ratio_corr: np.ndarray
    reason: np.ndarray
    thresholds: dict
    flagged_fraction: float
    expected_fraction: float  # Schwarz-Zippel style deg/q yardstick
    exhaustive: bool

    @cached_property
    def rows(self) -> list:
        """The same scan as one ScanRow per tuple, built on first read."""
        classes = np.where(self.diagonal, "diagonal", "generic").tolist()
        return [ScanRow(tuple(b), c, lin, corr, bool(r), r) for b, c, lin, corr, r
                in zip(self.tuples.tolist(), classes, self.ratio_r_linear.tolist(),
                       self.ratio_corr.tolist(), self.reason.tolist())]


def _batched_tuple_stats(ctx, tuples: np.ndarray):
    """Per-tuple max |sum_r R|/q^d and |sum_r R conj(R')|/q^{3d/2} over the
    pair of ``SCAN_LAMBDAS``."""
    Q = ctx.field.size
    n = len(tuples)
    lin = np.empty(n)
    corr = np.empty(n)
    for lo in range(0, n, SCAN_BATCH):
        tb = tuples[lo:lo + SCAN_BATCH]
        m = len(tb)
        R = _lambda_transform(ctx, _pair_index(ctx, tb), SCAN_LAMBDAS)
        lin[lo:lo + m] = np.abs(R.sum(axis=1)).max(axis=1) / Q
        # odd k: R is real, and conj would only copy it
        R1 = R[..., 1] if ctx.k % 2 else np.conj(R[..., 1])
        corr[lo:lo + m] = np.abs(np.einsum("br,br->b", R[..., 0], R1)) / Q**1.5
    return lin, corr


def scan_bad_tuples(ctx, thresholds: dict | None = None,
                    spec: ScanSpec = ScanSpec()) -> ScanResult:
    """Flag diagonal tuples and tuples whose normalized sums spike.

    Default thresholds are 3x the sample median of each ratio; with infinite
    thresholds only diagonal tuples are flagged.  A sampled scan refuses
    ``spec.n_samples`` below 1 with OutOfRange, before any draw.
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
        _require_at_least(1, n_samples=spec.n_samples)
        rng = np.random.default_rng(spec.seed)
        tuples = rng.integers(0, Q, size=(spec.n_samples, 4))
    lin, corr = _batched_tuple_stats(ctx, tuples)
    diagonal = diagonal_mask(tuples, ctx.k)
    if thresholds is None:
        thresholds = {
            "r_linear": 3.0 * float(np.median(lin[~diagonal])),
            "corr": 3.0 * float(np.median(corr[~diagonal])),
        }
    reason = np.select([diagonal, lin > thresholds["r_linear"], corr > thresholds["corr"]],
                       ["diagonal", "r_linear", "corr"], default="")
    return ScanResult(tuples=tuples, diagonal=diagonal, ratio_r_linear=lin,
                      ratio_corr=corr, reason=reason, thresholds=thresholds,
                      flagged_fraction=float(np.count_nonzero(reason) / len(tuples)),
                      expected_fraction=1.0 / Q, exhaustive=exhaustive)


def _ratio_stats(ctx, tuples, svals, lam1, lam2):
    """The K, R, C and D ratios of ``ratio_scan`` for each tuple, at its s,
    lambda1 and lambda2, from the pair-table grids.  K reads the column
    log s mod W, of s or -s: the two sums over r are conjugate."""
    Q = ctx.field.size
    P = _pair_index(ctx, tuples)
    R = _lambda_transform(ctx, P, np.stack([lam1, lam2], axis=-1))
    K = ctx.pair_table.take(P + ctx.kernel_plan.col.take(svals)[:, None, None])
    R1, R2 = R[..., 0], R[..., 1]
    A = np.abs(R1)
    # odd k: R is real, and conj would only copy it
    return (np.abs((K[:, 0] * K[:, 1]).sum(axis=1)) / Q**0.5, np.abs(R1.sum(axis=1)) / Q,
            np.abs((R1 * (R2 if ctx.k % 2 else np.conj(R2))).sum(axis=1)) / Q**1.5,
            np.abs(np.square(A, out=A).sum(axis=1) - Q * Q) / Q**1.5)


def ratio_scan(ctx, n_samples: int = 500, seed: int = 1, replicates: int = 1):
    """The four normalized cancellation statistics over seeded generic samples.

    Per replicate draws ``n_samples`` generic tuples b with companion draws of
    s, lambda1 != lambda2, and measures

    * K:  |sum_r 4-fold product at (s, b)| / q^{d/2}
    * R:  |sum_r R(r, lam1, b)| / q^d
    * C:  |sum_r R(r, lam1) conj(R(r, lam2))| / q^{3d/2}
    * D:  |sum_r |R(r, lam1)|^2 - q^{2d}| / q^{3d/2}

    Returns {name: RatioReport}, with max_ratio averaged over replicates
    (the averaging tames the extreme-value noise of a single max);
    OutOfRange, before any draw, unless n_samples and replicates are >= 1.
    """
    _require_at_least(1, n_samples=n_samples, replicates=replicates)
    _require_grid(ctx)
    f = ctx.field
    Q = f.size
    rng = np.random.default_rng(seed)
    # the max and the mean of each statistic (rows K, R, C, D) per replicate;
    # each row is contiguous, so a row's sum over its length is np.mean's,
    # in the same pairwise order, without np.mean's per-call set-up
    rep = np.empty((2, 4, replicates))
    for i in range(replicates):
        tuples = sample_generic_tuples(f, ctx.k, n_samples, rng)
        svals = rng.integers(1, Q, size=n_samples)
        lam1 = rng.integers(0, Q, size=n_samples)
        lam2 = (lam1 + rng.integers(1, Q, size=n_samples)) % Q
        vals = np.empty((4, n_samples))
        for lo in range(0, n_samples, SCAN_BATCH):
            hi = lo + SCAN_BATCH
            vals[:, lo:hi] = _ratio_stats(ctx, tuples[lo:hi], svals[lo:hi],
                                          lam1[lo:hi], lam2[lo:hi])
        rep[0, :, i] = vals.max(axis=1)
        rep[1, :, i] = vals.sum(axis=1) / n_samples
    max_ratio, mean_ratio = (rep.sum(axis=2) / replicates).tolist()
    norm = {"K": 0.5, "R": 1.0, "C": 1.5, "D": 1.5}
    desc = (f"q={f.q} d={f.degree} k={ctx.k} c={ctx.c} n={n_samples} "
            f"seed={seed} replicates={replicates}")
    return {name: RatioReport(sample=desc, max_ratio=mx, mean_ratio=mn,
                              normalization_exponent=norm[name])
            for name, mx, mn in zip("KRCD", max_ratio, mean_ratio)}
