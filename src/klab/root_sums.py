"""The multiset of values (1 + z2 - z3 - z4)^k over k-th roots of unity.

Computed exactly in a finite field containing the k-th roots (multiset
equality needs exact arithmetic, so no complex floats here).  The host field
is F_{q^d} with d the multiplicative order of q mod k, i.e. the smallest
extension where z^k = 1 has k solutions.

Alongside the multiset itself we verify its two structural properties used
downstream: it contains an element of multiplicity one (for q large enough),
and its multiplicative stabilizer {mu : mu*S = S} is trivial for k even and
{1, -1} for k odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CharDividesK, NoKthRoots, OutOfRange, ResourceLimit
from .fields import _factor, finite_field, is_prime, roots_of_unity
from .kloosterman import _require_k

# Most k^3 triples ``compute_sk`` enumerates: k <= 128, at about 66 bytes a
# triple (maxrss 133 MiB above the interpreter at k = 128)
SK_CELL_CAP = 2**21


@dataclass(frozen=True)
class SkMultiset:
    k: int
    field: object
    entries: dict  # element encoding -> multiplicity
    zero_sum_count: int  # triples with 1 + z2 - z3 - z4 = 0

    @property
    def total_multiplicity(self):
        return sum(self.entries.values())


def find_embedding_degree(k: int, q: int) -> int:
    """Smallest d with k | q^d - 1 (the multiplicative order of q mod k)."""
    _require_k(k)
    if math.gcd(k, q) != 1:
        raise CharDividesK(f"gcd({k}, {q}) != 1: no k-th roots in characteristic {q}")
    d, power = 1, q % k
    while power != 1:
        power = power * q % k
        d += 1
    return d


def host_field(k: int, q: int, d: int | None = None):
    """F_{q^d} at the minimal embedding degree (or a caller-forced larger d)."""
    dmin = find_embedding_degree(k, q)
    if d is None:
        d = dmin
    elif d % dmin != 0:
        raise NoKthRoots(f"k = {k} does not divide q^{d} - 1")
    return finite_field(q, d)


def compute_sk(k: int, host) -> SkMultiset:
    """Enumerate all k^3 triples over the order-k subgroup at once: the
    sums 1 + z2 - z3 - z4 by the host's ``add``/``sub`` on arrays (digit by
    digit over an extension), the k-th powers through the exp/log tables."""
    if (host.size - 1) % k != 0:
        raise NoKthRoots(f"k = {k} does not divide {host.size} - 1")
    if k**3 > SK_CELL_CAP:
        raise ResourceLimit(f"k = {k}: {k**3} triples exceed SK_CELL_CAP = {SK_CELL_CAP}")
    zs = np.array(roots_of_unity(host, k), dtype=np.int64)
    assert len(zs) == k
    z2, z3, z4 = (z.ravel() for z in np.meshgrid(zs, zs, zs, indexing="ij"))
    w = host.sub(host.add(1, z2), host.add(z3, z4))
    w = w[w != 0]
    powers = host.exp_table[k * host.log_table[w] % (host.size - 1)]
    # entries in order of first appearance, as the triple loop meets them
    vals, first, counts = np.unique(powers, return_index=True, return_counts=True)
    order = np.argsort(first)
    return SkMultiset(k=k, field=host,
                      entries=dict(zip(vals[order].tolist(), counts[order].tolist())),
                      zero_sum_count=k**3 - len(w))


def multiplicity_one_element(sk: SkMultiset):
    """Smallest-encoding entry with multiplicity exactly 1, or None."""
    ones = sorted(e for e, m in sk.entries.items() if m == 1)
    return ones[0] if ones else None


def stabilizer_group(sk: SkMultiset) -> list:
    """All mu with mu * S = S as multisets, ascending by encoding.

    In discrete logs mu * S is S shifted by log mu, and the shifts that fix
    S form a subgroup hZ/L, h | L = Q - 1.  From h = L, the walk divides h
    by each prime p of L while the shift by h/p still fixes S: one sort of
    the |S| logs per check, O(log L) checks, and the result {g^(h j)} is a
    group by construction.
    """
    f = sk.field
    L = f.size - 1
    logs = f.log_table[np.array(list(sk.entries), dtype=np.int64)]
    mult = np.array(list(sk.entries.values()))
    order = np.argsort(logs)
    logs, mult = logs[order], mult[order]
    h = L
    for p in _factor(L):
        while h % p == 0:
            moved = (logs + h // p) % L
            idx = np.argsort(moved)
            if not ((moved[idx] == logs).all() and (mult[idx] == mult).all()):
                break
            h //= p
    return sorted(f.exp_table[::h].tolist())


def expected_stabilizer(sk: SkMultiset) -> list:
    """{1} for k even, {1, -1} for k odd (the large-q prediction)."""
    f = sk.field
    return [1] if sk.k % 2 == 0 else sorted({1, f.neg(1)})


def smallest_conforming_q(k: int, q_limit: int = 1000) -> int | None:
    """Smallest prime q, with a host field of at most 10^6 elements, where
    both structural claims hold."""
    if q_limit < 3:
        raise OutOfRange(f"q_limit = {q_limit} is below 3, the smallest odd prime: "
                         "the search would try no q")
    for q in range(3, q_limit + 1):
        if not is_prime(q) or math.gcd(k, q) != 1:
            continue
        d = find_embedding_degree(k, q)
        if q**d > 10**6:
            continue
        sk = compute_sk(k, host_field(k, q))
        if multiplicity_one_element(sk) is None:
            continue
        if stabilizer_group(sk) == expected_stabilizer(sk):
            return q
    return None


def smallest_conforming_qs(k_max: int, q_limit: int) -> dict:
    """smallest_conforming_q(k, q_limit) for each k = 2..k_max."""
    _require_k(k_max)
    return {k: smallest_conforming_q(k, q_limit) for k in range(2, k_max + 1)}


def sk_to_dict(sk: SkMultiset) -> dict:
    """JSON-ready summary."""
    return {
        "k": sk.k,
        "q": sk.field.q,
        "d": sk.field.degree,
        "entries": sorted((int(e), int(m)) for e, m in sk.entries.items()),
        "zero_sum_triples": sk.zero_sum_count,
        "total_multiplicity": sk.total_multiplicity,
        "multiplicity_one_witness": multiplicity_one_element(sk),
        "stabilizer": stabilizer_group(sk),
    }
