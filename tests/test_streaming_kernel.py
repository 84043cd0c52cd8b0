"""The streamed four-fold kernel: bit-identical to building whole batches of
grids, and never holding such a batch."""

import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klab.sum_product as sp
from klab.errors import ResourceLimit
from klab.fields import build_extension, make_prime_field
from klab.kloosterman import kloosterman_table
from klab.sum_product import (ScanSpec, SumProductContext, product_grid,
                              ratio_scan, scan_bad_tuples,
                              second_moment_r_lambda)

_FIELDS = ((5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
           (29, 1), (31, 1), (3, 2), (5, 2), (3, 3))


@lru_cache(maxsize=None)
def _field(q, d):
    base = make_prime_field(q)
    return base if d == 1 else build_extension(base, d)


@lru_cache(maxsize=None)
def _table(q, d, k):
    return kloosterman_table(k, _field(q, d))


# --- the batched route: every grid of the batch first, then the transform --

def _batch_grids(ctx, tuples):
    f = ctx.field
    L, W = f.size - 1, ctx.pair_window
    V = sliding_window_view(ctx.pair_table, W, axis=1)
    ids = np.arange(f.size, dtype=np.int64)
    l1, l2, l3, l4 = f.log_table[f.add_vec(
        ids[None, None, :], np.asarray(tuples, dtype=np.int64)[:, :, None])].transpose(1, 0, 2)

    def pair(la, lb, shift):
        return V[np.where((la < 0) | (lb < 0), L, (lb - la) % L), (la + shift) % L]

    G = pair(l1, l2, 0)
    G *= pair(l3, l4, L - W)
    return G


def _batch_lambda_transform(ctx, G, lam):
    f = ctx.field
    lam = np.asarray(lam, dtype=np.int64)
    n = lam.shape[-1]
    units = f.exp_table[:ctx.pair_window]
    P = f.psi_vec[f.mul_vec(lam[..., None, :], units[:, None])]
    if ctx.k % 2 == 0:
        X = G @ np.concatenate([P.real, P.imag], axis=-1)
        return X[..., :n] + 1j * X[..., n:]
    W = np.stack([P.real, -P.imag], axis=-2).reshape(*P.shape[:-2], 2 * len(units), n)
    return 2.0 * (G.view(np.float64) @ W)


def _batch_ratio_stats(ctx, tuples, svals, lam1, lam2):
    Q = ctx.field.size
    G = _batch_grids(ctx, tuples)
    cols = ctx.field.log_table[np.asarray(svals, dtype=np.int64)] % ctx.pair_window
    K = np.abs(G[np.arange(len(G)), :, cols].sum(axis=1)) / Q**0.5
    R = _batch_lambda_transform(ctx, G, np.stack([lam1, lam2], axis=-1))
    R1, R2 = R[..., 0], R[..., 1]
    return (K, np.abs(R1.sum(axis=1)) / Q,
            np.abs((R1 * np.conj(R2)).sum(axis=1)) / Q**1.5,
            np.abs((np.abs(R1) ** 2).sum(axis=1) - Q * Q) / Q**1.5)


def _batch_tuple_stats(ctx, tuples, lambdas):
    Q = ctx.field.size
    R = _batch_lambda_transform(ctx, _batch_grids(ctx, tuples), lambdas)
    lin = np.abs(R.sum(axis=1)).max(axis=1) / Q
    CM = np.einsum("bri,brj->bij", R, np.conj(R))
    il, jl = np.triu_indices(len(lambdas), k=1)
    corr = np.empty(len(R))
    corr[:] = (np.abs(CM[:, il, jl]).max(axis=1) if len(il) else 0.0) / Q**1.5
    return lin, corr


def _batch_second_moment(ctx, b):
    G = _batch_grids(ctx, [b])[0]
    rows = (np.abs(G) ** 2).sum(axis=1)
    return float((1 if ctx.k % 2 == 0 else 2) * rows.sum() / ctx.field.size)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_FIELDS), st.integers(2, 5), st.data())
def test_streamed_route_is_bit_identical_to_batched_route(fd, k, data):
    q, d = fd
    Q = q**d
    cell = st.integers(0, Q - 1)
    unit = st.integers(1, Q - 1)
    ctx = SumProductContext(_table(q, d, k), c=data.draw(unit))
    width = Q * ctx.pair_window
    # a few tuples per step, so that n crosses step boundaries, or the default
    per_step = data.draw(st.integers(1, 6))
    cells = per_step * width if per_step < 6 else sp.KERNEL_STEP_CELLS
    n = data.draw(st.integers(1, 20))
    tuples = np.array(data.draw(st.lists(st.lists(cell, min_size=4, max_size=4),
                                         min_size=n, max_size=n)), dtype=np.int64)
    svals = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    lam1 = np.array(data.draw(st.lists(cell, min_size=n, max_size=n)))
    lam2 = np.array(data.draw(st.lists(cell, min_size=n, max_size=n)))
    lambdas = tuple(data.draw(st.lists(cell, min_size=1, max_size=3, unique=True)))
    b = tuple(data.draw(st.lists(cell, min_size=4, max_size=4, unique=True)))
    with mock.patch.object(sp, "KERNEL_STEP_CELLS", cells):
        got = sp._ratio_stats(ctx, tuples, svals, lam1, lam2)
        got_tuple = sp._batched_tuple_stats(ctx, tuples, lambdas)
        got_moment = second_moment_r_lambda(ctx, b)
    for name, g, w in zip("KRCD", got, _batch_ratio_stats(ctx, tuples, svals, lam1, lam2)):
        assert np.array_equal(g, w), name
    for g, w in zip(got_tuple, _batch_tuple_stats(ctx, tuples, lambdas)):
        assert np.array_equal(g, w)
    assert got_moment == _batch_second_moment(ctx, b)


@pytest.mark.parametrize("qd", [(53, 1), (5, 2), (3, 3)])
@pytest.mark.parametrize("k", [2, 3])
def test_row_block_steps_match_whole_grid_steps(qd, k):
    # a grid larger than a step comes in blocks of rows; the K column and
    # the second moment sum row by row, so they do not depend on the blocks
    ctx = SumProductContext(_table(*qd, k), c=2)
    tuples = np.array([(1, 2, 3, 4), (0, 5, 0, 5), (4, 3, 1, 0)])
    svals, lam1, lam2 = np.array([1, 2, 3]), np.array([0, 1, 2]), np.array([1, 3, 4])
    whole = sp._ratio_stats(ctx, tuples, svals, lam1, lam2)
    moment = second_moment_r_lambda(ctx, (1, 2, 3, 4))
    with mock.patch.object(sp, "KERNEL_STEP_CELLS", 5 * ctx.pair_window):
        blocks = sp._ratio_stats(ctx, tuples, svals, lam1, lam2)
        assert second_moment_r_lambda(ctx, (1, 2, 3, 4)) == moment
    assert np.array_equal(blocks[0], whole[0])
    for g, w in zip(blocks[1:], whole[1:]):
        assert (np.abs(g - w) <= 1e-12 * (1 + np.abs(w))).all()


def test_full_route_is_unchanged_by_the_step_size():
    ctx = SumProductContext(_table(13, 1, 3), c=2)
    tuples = [(1, 2, 3, 5), (0, 4, 4, 9), (7, 1, 12, 2)]
    ref = np.stack([product_grid(ctx, b) for b in tuples])
    with mock.patch.object(sp, "KERNEL_STEP_CELLS", 1):
        assert np.array_equal(sp._four_fold(ctx, tuples), ref)
        assert np.array_equal(sp._four_fold(ctx, tuples, r=[3, 0], s=[5, 2]),
                              ref[:, [3, 0]][:, :, [5, 2]])


def test_kernel_rejects_rows_outside_the_table():
    ctx = SumProductContext(_table(5, 2, 2))
    with pytest.raises(IndexError):
        next(sp._kernel_steps(ctx, [(1, 2, 3, 4)], ctx.row_table[:-1]))


@pytest.mark.parametrize("k", [2, 3])
def test_scans_never_hold_a_batch_of_grids(k):
    table = kloosterman_table(k, make_prime_field(199))
    Q = table.field.size
    for run in (lambda ctx: ratio_scan(ctx, n_samples=64, seed=1),
                lambda ctx: scan_bad_tuples(ctx, spec=ScanSpec(n_samples=128, seed=1))):
        ctx = SumProductContext(table)
        tracemalloc.start()
        try:
            run(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * Q * Q * 8


@pytest.mark.parametrize("qd", [(53, 1), (7, 2)])
@pytest.mark.parametrize("k", [2, 3])
def test_symmetric_table_is_c_contiguous(qd, k):
    assert SumProductContext(_table(*qd, k)).pair_table.flags.c_contiguous


def test_every_kernel_route_refuses_an_extension_beyond_the_dense_tables():
    # F_{47^2}: Q^2 is within GRID_CAP, Q is not within PAIR_TABLE_CAP
    ctx = SumProductContext(kloosterman_table(2, _field(47, 2)))
    for run in (lambda: ratio_scan(ctx, n_samples=1),
                lambda: scan_bad_tuples(ctx, spec=ScanSpec(n_samples=1)),
                lambda: second_moment_r_lambda(ctx, (1, 2, 3, 4)),
                lambda: product_grid(ctx, (1, 2, 3, 4)),
                lambda: sp.full_average_moment(ctx)):
        with pytest.raises(ResourceLimit, match="dense tables"):
            run()
    assert "row_table" not in vars(ctx) and "pair_table" not in vars(ctx)
