"""The symmetric four-fold kernel (the pair table in discrete-log
coordinates: real grids for even k, half grids for odd k) against a literal
grid built from the scalar field operations, and the licence that guards
it."""

import dataclasses
import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klab.sum_product as sp
from klab.errors import NotSelfDual
from klab.fields import build_extension, make_prime_field
from klab.kloosterman import kloosterman_table
from klab.sum_product import (ScanSpec, SumProductContext, product_grid,
                              ratio_scan, scan_bad_tuples,
                              second_moment_r_lambda)

from grid_oracle import literal_grid, literal_tables

_FIELDS = ((5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
           (29, 1), (31, 1), (3, 2), (5, 2), (3, 3))


@lru_cache(maxsize=None)
def _field(q, d):
    base = make_prime_field(q)
    return base if d == 1 else build_extension(base, d)


@lru_cache(maxsize=None)
def _table(q, d, k):
    return kloosterman_table(k, _field(q, d))


def _psi(ctx, lam):
    """psi(lam s) for every s in F, one row per lam."""
    f = ctx.field
    ids = np.arange(f.size, dtype=np.int64)
    return f.psi_vec[f.mul_vec(np.asarray(lam, dtype=np.int64)[:, None], ids[None, :])]


def _full_grids(ctx, tuples):
    return np.stack([literal_grid(ctx, b) for b in tuples])


def _full_ratio_stats(ctx, tuples, svals, lam1, lam2):
    Q = ctx.field.size
    G = _full_grids(ctx, tuples)
    K = np.abs(G.sum(axis=1)[np.arange(len(G)), svals]) / Q**0.5
    R1 = np.einsum("mrs,ms->mr", G, _psi(ctx, lam1))
    R2 = np.einsum("mrs,ms->mr", G, _psi(ctx, lam2))
    return (K, np.abs(R1.sum(axis=1)) / Q,
            np.abs((R1 * np.conj(R2)).sum(axis=1)) / Q**1.5,
            np.abs((np.abs(R1) ** 2).sum(axis=1) - Q * Q) / Q**1.5)


def _full_tuple_stats(ctx, tuples):
    Q = ctx.field.size
    R = _full_grids(ctx, tuples) @ _psi(ctx, sp.SCAN_LAMBDAS).T
    lin = np.abs(R.sum(axis=1)).max(axis=1) / Q
    corr = np.abs((R[..., 0] * np.conj(R[..., 1])).sum(axis=1)) / Q**1.5
    return lin, corr


def _full_second_moment(ctx, b):
    return float((np.abs(literal_grid(ctx, b)) ** 2).sum() / ctx.field.size)


def _close(got, full):
    got, full = np.asarray(got, dtype=float), np.asarray(full, dtype=float)
    return bool((np.abs(got - full) <= 1e-12 * (1 + np.abs(full))).all())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FIELDS), st.integers(2, 5), st.data())
def test_symmetric_route_matches_full_route(fd, k, data):
    q, d = fd
    Q = q**d
    cell = st.integers(0, Q - 1)
    unit = st.integers(1, Q - 1)
    ctx = SumProductContext(_table(q, d, k), c=data.draw(unit))
    m = data.draw(st.integers(1, 4))
    tuples = np.array(data.draw(st.lists(st.lists(cell, min_size=4, max_size=4),
                                         min_size=m, max_size=m)), dtype=np.int64)
    svals = np.array(data.draw(st.lists(unit, min_size=m, max_size=m)))
    lam1 = np.array(data.draw(st.lists(cell, min_size=m, max_size=m)))
    lam2 = np.array(data.draw(st.lists(cell, min_size=m, max_size=m)))
    got = sp._ratio_stats(ctx, tuples, svals, lam1, lam2)
    full = _full_ratio_stats(ctx, tuples, svals, lam1, lam2)
    for name, g, f in zip("KRCD", got, full):
        assert _close(g, f), name
    for g, f in zip(sp._batched_tuple_stats(ctx, tuples), _full_tuple_stats(ctx, tuples)):
        assert _close(g, f)
    b = tuple(data.draw(st.lists(cell, min_size=4, max_size=4, unique=True)))
    assert _close(second_moment_r_lambda(ctx, b), _full_second_moment(ctx, b))


@pytest.mark.parametrize("qd", [(53, 1), (11, 2)])
@pytest.mark.parametrize("k", [2, 3])
def test_ratio_scan_matches_full_route(monkeypatch, qd, k):
    ctx = SumProductContext(_table(*qd, k), c=2)
    got = ratio_scan(ctx, n_samples=20, seed=7, replicates=2)
    monkeypatch.setattr(sp, "_ratio_stats", _full_ratio_stats)
    full = ratio_scan(ctx, n_samples=20, seed=7, replicates=2)
    for name in "KRCD":
        assert _close([got[name].max_ratio, got[name].mean_ratio],
                      [full[name].max_ratio, full[name].mean_ratio]), name


@pytest.mark.parametrize("k", [2, 3])
def test_scan_bad_tuples_matches_full_route(monkeypatch, k):
    ctx = SumProductContext(_table(37, 1, k))
    spec = ScanSpec(n_samples=40, seed=2)
    got = scan_bad_tuples(ctx, spec=spec)
    monkeypatch.setattr(sp, "_batched_tuple_stats", _full_tuple_stats)
    full = scan_bad_tuples(ctx, spec=spec)
    assert _close([[r.ratio_r_linear, r.ratio_corr] for r in got.rows],
                  [[r.ratio_r_linear, r.ratio_corr] for r in full.rows])
    assert [r.flagged for r in got.rows] == [r.flagged for r in full.rows]


def test_symmetric_table_shapes_and_laziness():
    for k, width, dtype in ((2, 104, np.float64), (3, 78, np.complex128)):
        ctx = SumProductContext(_table(53, 1, k), c=3)
        assert "pair_table" not in vars(ctx)
        PT = ctx.pair_table
        assert PT.shape == (28, width) and PT.dtype == dtype
        # PT[d, i] = K_c(g^i) K_c(g^(i+d)) for d <= 26, read off the literal
        # mul table
        f = ctx.field
        T = ctx.twisted[literal_tables(f)[1]]
        T = T.real if k == 2 else T
        s = f.exp_table[np.arange(width) % 52]
        assert np.array_equal(PT[:27], T[1, s][None, :] * T[f.exp_table[:27, None], s])
        assert not PT[27].any()
    # odd k over F_{5^2}: one representative of each pair {s, -s} of units
    ctx = SumProductContext(_table(5, 2, 3))
    f = ctx.field
    units = set(f.exp_table[:ctx.pair_window].tolist())
    assert len(units) == 12 and 0 not in units
    assert units.isdisjoint(f.neg(s) for s in units)


@pytest.mark.parametrize("qd", [(23, 2), (199, 1)])
def test_half_pair_table_matches_literal_grid(qd):
    # one row per offset d <= L/2 and the zero row: L // 2 + 2 rows, and
    # every grid still the literal one
    f = _field(*qd)
    L = f.size - 1
    rng = np.random.default_rng(11)
    tuples = [(1, 2, 3, 4), (0, 5, 0, 5), tuple(rng.integers(0, f.size, size=4).tolist())]
    for k in range(2, 6):
        ctx = SumProductContext(_table(*qd, k), c=3)
        assert ctx.pair_table.shape[0] == L // 2 + 2
        assert not ctx.pair_table[-1].any()
        for b in tuples:
            assert _close(np.abs(product_grid(ctx, b) - literal_grid(ctx, b)), 0), (k, b)


@pytest.mark.parametrize("qd", [(13, 1), (53, 1), (11, 2), (3, 3), (3, 5)])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_grids_are_bit_identical_under_in_pair_swaps(qd, k):
    # swapping b1 and b2, or b3 and b4, names the same unordered pairs, so
    # the kernel reads the same windows; in odd k the complex products
    # would differ in their last bits if it read the mirrored ones
    f = _field(*qd)
    L = f.size - 1
    ctx = SumProductContext(_table(*qd, k), c=2)
    rng = np.random.default_rng(k)
    tuples = [(1, 2, 3, 4), (0, 5, 5, 0), *rng.integers(0, f.size, size=(6, 4)).tolist()]
    for b1, b2, b3, b4 in tuples:
        if b1 != b2:
            # the row r = -(b1 + b2)/2 has u1 = -u2: the pair's offset is L/2
            r = f.mul(f.neg(f.add(b1, b2)), f.inv(2))
            u1, u2 = f.add(r, b1), f.add(r, b2)
            assert (f.log_table[u1] - f.log_table[u2]) % L == L // 2
        G = product_grid(ctx, (b1, b2, b3, b4)).tobytes()
        assert product_grid(ctx, (b2, b1, b3, b4)).tobytes() == G, (b1, b2, b3, b4)
        assert product_grid(ctx, (b1, b2, b4, b3)).tobytes() == G, (b1, b2, b3, b4)


def _not_self_dual(table):
    return dataclasses.replace(table, values=table.values + 1e-6j)


@pytest.mark.parametrize("k", [2, 3])
def test_licence_refuses_a_table_that_is_not_self_dual(k):
    ctx = SumProductContext(_not_self_dual(_table(53, 1, k)))
    with pytest.raises(NotSelfDual):
        ratio_scan(ctx, n_samples=8, seed=1)
    with pytest.raises(NotSelfDual):
        second_moment_r_lambda(ctx, (1, 2, 3, 5))
    with pytest.raises(NotSelfDual):
        scan_bad_tuples(ctx, spec=ScanSpec(n_samples=8, seed=1))
    with pytest.raises(NotSelfDual):
        product_grid(ctx, (1, 2, 3, 5))
    assert "pair_table" not in vars(ctx)


@pytest.mark.parametrize("q", [3, 5, 7, 101, 499, 997])
def test_licence_passes_genuine_tables(q):
    for k in range(2, 7):
        ctx = SumProductContext(kloosterman_table(k, make_prime_field(q)))
        assert ctx.pair_table.shape[0] == (q - 1) // 2 + 2


@pytest.mark.parametrize("qd", [(3, 2), (5, 2), (3, 3)])
def test_licence_passes_genuine_extension_tables(qd):
    L = qd[0] ** qd[1] - 1
    for k in range(2, 6):
        assert SumProductContext(_table(*qd, k)).pair_table.shape[0] == L // 2 + 2


@pytest.mark.parametrize("qd", [(53, 1), (5, 2), (3, 3)])
@pytest.mark.parametrize("k", [2, 3])
def test_degenerate_pair_rows_match_full_route(monkeypatch, qd, k):
    # repeated coordinates take the offset-0 row of the pair table, and
    # r + b_j = 0 the zero row
    ctx = SumProductContext(_table(*qd, k), c=2)
    tuples = np.array([(0, 0, 0, 0), (1, 1, 2, 2), (0, 5, 0, 5), (3, 0, 0, 3)])
    svals, lam1, lam2 = np.array([1, 2, 3, 4]), np.array([0, 1, 2, 3]), np.array([1, 0, 4, 2])
    got = sp._ratio_stats(ctx, tuples, svals, lam1, lam2)
    full = _full_ratio_stats(ctx, tuples, svals, lam1, lam2)
    for name, g, f in zip("KRCD", got, full):
        assert _close(g, f), name
    for g, f in zip(sp._batched_tuple_stats(ctx, tuples), _full_tuple_stats(ctx, tuples)):
        assert _close(g, f)
    # the moment refuses repeated coordinates; its grid sum is checked here
    monkeypatch.setattr(sp, "_require_distinct", lambda b: None)
    for b in tuples:
        b = tuple(int(x) for x in b)
        assert _close(second_moment_r_lambda(ctx, b), _full_second_moment(ctx, b)), b


def _owner(a):
    """The array whose memory a views (a itself when it owns its memory)."""
    while a.base is not None:
        a = a.base
    return a


def test_scans_never_build_the_row_table():
    runs = (lambda ctx: ratio_scan(ctx, n_samples=8, seed=1),
            lambda ctx: scan_bad_tuples(ctx, spec=ScanSpec(n_samples=8, seed=1)),
            lambda ctx: second_moment_r_lambda(ctx, (1, 2, 3, 5)))
    for k, run in itertools.product((2, 3), runs):
        ctx = SumProductContext(_table(53, 1, k))
        Q = ctx.field.size
        run(ctx)
        # a context caches the pair table and the kernel plan, and no array
        # but the pair table holds more than a few times Q entries: no
        # Q x Q table hides in the plan, not even behind a view
        assert set(vars(ctx)) == {"table", "c", "twisted", "pair_table", "kernel_plan"}
        cached = {"twisted": ctx.twisted, **vars(ctx.kernel_plan)}
        for name, a in cached.items():
            owner = _owner(a)
            assert owner is ctx.pair_table or owner.size <= 16 * Q, name
