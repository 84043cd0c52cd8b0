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
                              ratio_scan, sample_generic_tuples,
                              scan_bad_tuples, second_moment_r_lambda)

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
        # the offset d or L - d, whichever is at most L/2, from the log it
        # starts at (the smaller one at d = L/2); the zero row last
        d = (lb - la) % L
        start = np.where((2 * d > L) | ((2 * d == L) & (lb < la)), lb, la)
        row = np.where((la < 0) | (lb < 0), L // 2 + 1, np.minimum(d, L - d))
        return V[row, (start + shift) % L]

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


def _reference_ratio_scan(ctx, n_samples, seed, replicates):
    """ratio_scan's reports from the batched route: the same draws in the
    same order, one list per statistic of the replicate maxima and means,
    and np.mean over each list."""
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
        for name, v in zip("KRCD", _batch_ratio_stats(ctx, tuples, svals, lam1, lam2)):
            rep_max[name].append(v.max())
            rep_mean[name].append(v.mean())
    return {name: (float(np.mean(rep_max[name])), float(np.mean(rep_mean[name])))
            for name in "KRCD"}


@pytest.mark.parametrize("qd", [(53, 1), (11, 2)])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("replicates", [1, 3, 9])
def test_ratio_scan_reports_match_batched_reference_bit_for_bit(qd, k, replicates):
    # nine replicates cross numpy's 8-way pairwise unroll, so a mean over
    # the replicates taken in another order than np.mean's fails here
    ctx = SumProductContext(_table(*qd, k), c=2)
    got = ratio_scan(ctx, n_samples=24, seed=5, replicates=replicates)
    want = _reference_ratio_scan(ctx, 24, 5, replicates)
    for name in "KRCD":
        assert (got[name].max_ratio, got[name].mean_ratio) == want[name], name


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


@pytest.mark.parametrize("k", [2, 3])
def test_step_cells_bite_after_the_plan_exists(k):
    # the plan holds no step shape: KERNEL_STEP_CELLS is read on every call,
    # so a patch after a scan has built the plan still cuts the steps, and
    # a second scan on the context reuses the plan
    ctx = SumProductContext(_table(53, 1, k), c=2)
    ratio_scan(ctx, n_samples=4, seed=1)
    plan, W = ctx.kernel_plan, ctx.pair_window
    shapes, steps = [], sp._pair_steps

    def recorded(ctx, P):
        for step in steps(ctx, P):
            shapes.append(step[2].shape)
            yield step

    with mock.patch.object(sp, "_pair_steps", recorded), \
            mock.patch.object(sp, "_build_plan", side_effect=AssertionError("plan rebuilt")):
        ratio_scan(ctx, n_samples=4, seed=2)
        assert shapes == [(4, 53, W)]
        shapes.clear()
        with mock.patch.object(sp, "KERNEL_STEP_CELLS", 5 * W):
            ratio_scan(ctx, n_samples=4, seed=2)
    # 53 rows in blocks of 5, one tuple at a time
    assert shapes == ([(1, 5, W)] * 10 + [(1, 3, W)]) * 4
    assert ctx.kernel_plan is plan


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
                lambda: product_grid(ctx, (1, 2, 3, 4))):
        with pytest.raises(ResourceLimit, match="dense tables"):
            run()
    # the full average reads the Kloosterman table alone, in discrete logs
    assert np.isfinite(sp.full_average_moment(ctx))
    assert "pair_table" not in vars(ctx)


# --- the consumers reduce in the buffers they are given ---------------------

def _steps(ctx, b):
    return sp._pair_steps(ctx, sp._pair_index(ctx, [b]))


def _fresh_second_moment(ctx, b):
    rows = np.empty(ctx.field.size)
    for _, r0, g in _steps(ctx, b):
        rows[r0:r0 + g.shape[1]] = (np.abs(g[0]) ** 2).sum(axis=1)
    return float((1 if ctx.k % 2 == 0 else 2) * rows.sum() / ctx.field.size)


def _fresh_noncorrelation(ctx, b):
    rows = np.empty(ctx.field.size, dtype=np.complex128)
    for _, r0, g in _steps(ctx, b):
        rows[r0:r0 + g.shape[1]] = (g[0] ** 2).sum(axis=1)
    return complex(2 * rows.sum().real / ctx.field.size)


def _fresh_product_grid(ctx, b):
    f, W = ctx.field, ctx.pair_window
    G = np.zeros((f.size, f.size), dtype=ctx.pair_table.dtype)
    for _, r0, g in _steps(ctx, b):
        rows = slice(r0, r0 + g.shape[1])
        G[rows, f.exp_table[:W]] = g[0]
        if ctx.k % 2:
            G[rows, f.exp_table[W:]] = np.conj(g[0])
    return G


def _fresh_tuple_stats(ctx, tuples, lambdas):
    Q = ctx.field.size
    R = sp._lambda_transform(ctx, sp._pair_index(ctx, tuples), lambdas)
    il, jl = np.triu_indices(len(lambdas), k=1)
    CM = np.einsum("bri,brj->bij", R, np.conj(R))
    return (np.abs(R.sum(axis=1)).max(axis=1) / Q,
            np.abs(CM[:, il, jl]).max(axis=1, initial=0.0) / Q**1.5)


@pytest.mark.parametrize("qd", [(7, 1), (53, 1), (199, 1), (11, 2), (23, 2), (3, 3)])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("step", ["default", "rows", "tuples"])
def test_reductions_in_place_match_fresh_temporaries_bit_for_bit(qd, k, step):
    # "rows" cuts every grid into blocks of 5 rows, "tuples" puts 3 whole
    # grids in a step; at the default F_{23^2} splits a grid across 9 steps
    ctx = SumProductContext(_table(*qd, k), c=2)
    Q, W = ctx.field.size, ctx.pair_window
    cells = {"default": sp.KERNEL_STEP_CELLS, "rows": 5 * W, "tuples": 3 * Q * W}[step]
    rng = np.random.default_rng(Q * k)
    tuples = np.vstack([[(0, 1, 2, 4), (1, 2, 1, 2)], rng.integers(0, Q, size=(5, 4))])
    distinct = [(0, 1, 2, 4), tuple(rng.choice(Q, size=4, replace=False).tolist())]
    with mock.patch.object(sp, "KERNEL_STEP_CELLS", cells):
        for b in distinct:
            assert second_moment_r_lambda(ctx, b) == _fresh_second_moment(ctx, b)
            if k % 2:
                assert sp.noncorrelation_moment(ctx, b) == _fresh_noncorrelation(ctx, b)
        for b in (*distinct, (1, 2, 1, 2)):
            assert np.array_equal(product_grid(ctx, b), _fresh_product_grid(ctx, b))
        for lambdas in ((0, 1), (0, 1, 5 % Q)):
            for got, want in zip(sp._batched_tuple_stats(ctx, tuples, lambdas),
                                 _fresh_tuple_stats(ctx, tuples, lambdas)):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [2, 3])
def test_reductions_allocate_nothing_per_step(k):
    # F_{23^2}: a grid of 529 rows comes in 9 steps (5 at k = 3).  Between a
    # step's yield and the next gather the consumer allocates O(Q) (its row
    # sums); at odd k the second moment's |g| buffer comes once, at the first
    ctx = SumProductContext(_table(23, 2, k), c=2)
    Q, W, b = ctx.field.size, ctx.pair_window, (0, 1, 2, 4)
    cell = ctx.pair_table.itemsize
    r_step = min(max(1, sp.KERNEL_STEP_CELLS // W), Q)
    block = r_step * W * cell  # the g buffer; the gather is twice that
    runs = [lambda: second_moment_r_lambda(ctx, b)]
    if k % 2:
        runs += [lambda: sp.noncorrelation_moment(ctx, b), lambda: product_grid(ctx, b)]
    consumer, steps = [], sp._pair_steps

    def traced(ctx, P):
        for step in steps(ctx, P):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            yield step
            consumer.append(tracemalloc.get_traced_memory()[1] - base)

    for run in runs:
        run()  # the pair table and the plan, once per context
        consumer.clear()
        tracemalloc.start()
        try:
            with mock.patch.object(sp, "_pair_steps", traced):
                run()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(consumer) == -(-Q // r_step) == (9 if k == 2 else 5)
        assert max(consumer[1:]) <= 16 * Q
        if k % 2 == 0:
            assert consumer[0] <= 16 * Q
            # the gather, the g buffer and the O(Q) index pass
            assert peak <= 3 * block + 64 * Q
