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
from collections import Counter
from dataclasses import dataclass

from .errors import CharDividesK, NoKthRoots
from .fields import build_extension, make_prime_field, roots_of_unity


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
    if k <= 1:
        return 1
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
    base = make_prime_field(q)
    return base if d == 1 else build_extension(base, d)


def compute_sk(k: int, host) -> SkMultiset:
    """Enumerate all k^3 triples over the order-k subgroup."""
    if (host.size - 1) % k != 0:
        raise NoKthRoots(f"k = {k} does not divide {host.size} - 1")
    zs = roots_of_unity(host, k)
    assert len(zs) == k
    entries = Counter()
    zero_count = 0
    for z2 in zs:
        for z3 in zs:
            for z4 in zs:
                w = host.sub(host.add(1, z2), host.add(z3, z4))
                if w == 0:
                    zero_count += 1
                else:
                    entries[host.pow(w, k)] += 1
    return SkMultiset(k=k, field=host, entries=dict(entries),
                      zero_sum_count=zero_count)


def multiplicity_one_element(sk: SkMultiset):
    """Smallest-encoding entry with multiplicity exactly 1, or None."""
    ones = sorted(e for e, m in sk.entries.items() if m == 1)
    return ones[0] if ones else None


def stabilizer_group(sk: SkMultiset, brute_force: bool = False) -> list:
    """All mu with mu * S = S as multisets, ascending by encoding.

    mu * S = S forces mu = s / s0 for the smallest entry s0, so only |S|
    candidates need checking; ``brute_force`` scans the whole unit group
    instead (small fields, used to validate the candidate route).
    """
    f = sk.field
    entries = sk.entries
    s0 = min(entries)
    s0_inv = f.inv(s0)
    if brute_force:
        candidates = range(1, f.size)
    else:
        candidates = sorted({f.mul(s, s0_inv) for s in entries})
    out = []
    for mu in candidates:
        moved = Counter()
        for s, m in entries.items():
            moved[f.mul(mu, s)] += m
        if moved == entries:
            out.append(mu)
    out = sorted(out)
    members = set(out)
    for a in out:  # a stabilizer is a group: closed under product and inverse
        assert f.inv(a) in members
        for b in out:
            assert f.mul(a, b) in members
    return out


def expected_stabilizer(sk: SkMultiset) -> list:
    """{1} for k even, {1, -1} for k odd (the large-q prediction)."""
    f = sk.field
    return [1] if sk.k % 2 == 0 else sorted({1, f.neg(1)})


def smallest_conforming_q(k: int, q_limit: int = 1000) -> int | None:
    """Smallest prime q, with a host field of at most 10^6 elements, where
    both structural claims hold."""
    from .fields import is_prime

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
