from collections import Counter

import pytest

from klab.errors import CharDividesK, NoKthRoots, OutOfRange
from klab.fields import make_prime_field, roots_of_unity
from klab.root_sums import (compute_sk, expected_stabilizer,
                            find_embedding_degree, host_field,
                            multiplicity_one_element, sk_to_dict,
                            smallest_conforming_q, smallest_conforming_qs,
                            stabilizer_group)


def test_embedding_degree_examples():
    assert find_embedding_degree(2, 7) == 1
    assert find_embedding_degree(5, 7) == 4  # order of 7 mod 5
    assert find_embedding_degree(3, 7) == 1
    assert find_embedding_degree(4, 7) == 2


def test_embedding_degree_char_divides():
    with pytest.raises(CharDividesK):
        find_embedding_degree(7, 7)


def test_compute_sk_k2_exact():
    # enumeration oracle over the 8 sign patterns: values 2 (x3), 4, -2; three
    # patterns vanish; squares give {4: 4, 16: 1}
    sk = compute_sk(2, make_prime_field(101))
    assert sk.entries == {4: 4, 16: 1}
    assert sk.zero_sum_count == 3
    assert sk.total_multiplicity == 2**3 - 3


def test_compute_sk_k2_mod7():
    sk = compute_sk(2, make_prime_field(7))
    assert sk.entries == {4: 4, 2: 1}  # 16 = 2 mod 7


def test_compute_sk_k3_counts():
    q = 103  # 103 = 1 mod 3
    sk = compute_sk(3, make_prime_field(q))
    assert sk.total_multiplicity + sk.zero_sum_count == 27
    assert all(e != 0 for e in sk.entries)


def test_compute_sk_rejects_wrong_host():
    with pytest.raises(NoKthRoots):
        compute_sk(3, make_prime_field(11))  # 3 does not divide 10


def test_compute_sk_generator_independent():
    # the enumeration runs over the whole order-k subgroup, so relabeling the
    # primitive root cannot change the multiset; check against a manual
    # enumeration using a different root ordering
    q = 13
    f = make_prime_field(q)
    zs = [z for z in range(1, q) if pow(z, 3, q) == 1]
    entries = Counter()
    zero = 0
    for z2 in reversed(zs):
        for z3 in reversed(zs):
            for z4 in reversed(zs):
                w = (1 + z2 - z3 - z4) % q
                if w == 0:
                    zero += 1
                else:
                    entries[pow(w, 3, q)] += 1
    sk = compute_sk(3, f)
    assert sk.entries == dict(entries) and sk.zero_sum_count == zero


def test_multiplicity_one_k2():
    sk = compute_sk(2, make_prime_field(101))
    assert multiplicity_one_element(sk) == 16


def test_stabilizer_k2_trivial():
    sk = compute_sk(2, make_prime_field(101))
    assert stabilizer_group(sk) == [1]


def test_stabilizer_k3_pm1():
    sk = compute_sk(3, make_prime_field(103))
    assert stabilizer_group(sk) == [1, 102]
    assert expected_stabilizer(sk) == [1, 102]


def brute_force_stabilizer(sk):
    """Every unit mu of the field multiplied into S by scalar field
    arithmetic, kept when mu * S = S: the oracle of ``stabilizer_group``."""
    f = sk.field
    out = []
    for mu in range(1, f.size):
        moved = Counter()
        for s, m in sk.entries.items():
            moved[f.mul(mu, s)] += m
        if moved == sk.entries:
            out.append(mu)
    return out


def test_stabilizer_candidates_match_brute_force():
    for k, q in [(2, 13), (3, 13), (4, 13), (6, 13)]:
        sk = compute_sk(k, make_prime_field(q))
        assert stabilizer_group(sk) == brute_force_stabilizer(sk)


def test_stabilizer_contains_minus_one_for_odd_k():
    for k, q in [(3, 13), (5, 11), (7, 29)]:
        sk = compute_sk(k, make_prime_field(q))
        assert (q - 1) in stabilizer_group(sk)


def test_host_field_forced_degree():
    h = host_field(2, 7, d=2)  # caller may force a multiple of the minimum
    assert h.degree == 2
    sk = compute_sk(2, h)
    assert sk.entries == {4: 4, 2: 1}  # 16 = 2 in the prime subfield of F_49
    with pytest.raises(NoKthRoots):
        host_field(4, 7, d=3)  # 3 is not a multiple of the minimal degree 2


def test_host_field_extension():
    h = host_field(5, 7)
    assert h.degree == 4 and h.size == 2401
    sk = compute_sk(5, h)
    assert sk.total_multiplicity + sk.zero_sum_count == 125
    assert multiplicity_one_element(sk) is not None
    assert stabilizer_group(sk) == expected_stabilizer(sk)


def test_smallest_conforming_q_small_k():
    assert smallest_conforming_q(2, q_limit=20) == 5
    q3 = smallest_conforming_q(3, q_limit=50)
    assert q3 is not None and q3 <= 50


@pytest.mark.parametrize("q_limit", [2, 0, -5])
def test_q_limit_below_3_is_out_of_range(q_limit):
    # no q < 3 is an odd prime: a search would try none and report nothing found
    with pytest.raises(OutOfRange, match="below 3"):
        smallest_conforming_qs(3, q_limit)
    with pytest.raises(OutOfRange, match="below 3"):
        smallest_conforming_q(2, q_limit)


def test_q_limit_3_searches_q_3():
    assert smallest_conforming_qs(3, 3) == {2: None, 3: None}


def test_sk_to_dict_roundtrip():
    d = sk_to_dict(compute_sk(2, make_prime_field(7)))
    assert d["k"] == 2 and d["q"] == 7 and d["d"] == 1
    assert d["entries"] == [(2, 1), (4, 4)]
    assert d["multiplicity_one_witness"] == 2
    assert d["stabilizer"] == [1]


def _scalar_sk(k, host):
    """S_k by scalar field arithmetic, the triples in loop order."""
    zs = roots_of_unity(host, k)
    entries = Counter()
    zero = 0
    for z2 in zs:
        for z3 in zs:
            for z4 in zs:
                w = host.sub(host.add(1, z2), host.add(z3, z4))
                if w == 0:
                    zero += 1
                else:
                    entries[host.pow(w, k)] += 1
    return dict(entries), zero


@pytest.mark.parametrize("k, q", [(5, 7), (7, 5), (4, 7), (6, 11), (2, 101),
                                  (3, 103), (8, 3), (4, 5), (12, 13), (5, 31)])
def test_table_route_matches_scalar_arithmetic(k, q):
    host = host_field(k, q)
    sk = compute_sk(k, host)
    entries, zero = _scalar_sk(k, host)
    assert list(sk.entries.items()) == list(entries.items())
    assert sk.zero_sum_count == zero
    assert all(type(e) is int and type(m) is int for e, m in sk.entries.items())


@pytest.mark.parametrize("k, q", [(4, 7), (6, 11), (8, 3), (4, 5), (3, 5), (5, 11)])
def test_stabilizer_table_route_matches_brute_force_on_extensions(k, q):
    sk = compute_sk(k, host_field(k, q))
    assert stabilizer_group(sk) == brute_force_stabilizer(sk)
