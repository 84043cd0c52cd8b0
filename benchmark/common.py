"""Helpers shared by the workload modules."""

import numpy as np

import klab.sum_product as sp


class CheckFailed(Exception):
    pass


def expect(ok, message: str) -> None:
    """Raise CheckFailed unless ``ok``; unlike assert, kept under -O."""
    if not ok:
        raise CheckFailed(message)


def subseed(seed: int, *key) -> int:
    """A derived seed for one input of a workload, fixed by (seed, key)."""
    words = [seed] + [k if isinstance(k, int) else sum(map(ord, k)) for k in key]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def cached(state: dict, key, compute):
    """An oracle value kept in the workload state across rounds."""
    store = state.setdefault("oracle", {})
    if key not in store:
        store[key] = compute()
    return store[key]


def moment(ctx, row):
    """The tuple drawn in ``row`` and its second moment (a round operation)."""
    b = tuple(int(x) for x in row)
    return b, sp.second_moment_r_lambda(ctx, b)
