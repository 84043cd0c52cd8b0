import cmath
import itertools
import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klab.fields as fl
import klab.kloosterman as kl
from klab.errors import IoError, OutOfRange, ResourceLimit
from klab.fields import build_extension, make_prime_field
from klab.kloosterman import (INTRO, SHEAF, KloostermanTable, cache_path,
                              conjugation_symmetry_check, cross_check,
                              kloosterman_naive, kloosterman_table,
                              load_table, naive_table, save_table,
                              sign_factor)
from klab.sum_product import SumProductContext


@pytest.fixture(scope="module")
def f5():
    return make_prime_field(5)


@pytest.fixture(scope="module")
def f7():
    return make_prime_field(7)


def test_naive_k2_q5_value(f5):
    # hand oracle: sum over x in F_5^x of e((x + 1/x)/5)
    # x=1 -> psi(2); x=2 -> psi(0); x=3 -> psi(0); x=4 -> psi(3)
    e = lambda t: cmath.exp(2j * math.pi * t / 5)
    expect = e(2) + 1 + 1 + e(3)
    assert abs(expect.real - 0.381966) < 1e-6
    got = kloosterman_naive(2, 1, f5)
    assert abs(got - expect / math.sqrt(5)) < 1e-12


def test_naive_zero_argument(f7):
    assert kloosterman_naive(2, 0, f7) == 0
    assert kloosterman_naive(3, 0, f7) == 0


def test_naive_matches_table_k2_q7(f7):
    t = kloosterman_table(2, f7)
    for a in range(1, 7):
        assert abs(kloosterman_naive(2, a, f7) - t.values[a]) < 1e-12


def test_naive_resource_cap(f7, monkeypatch):
    monkeypatch.setattr(kl, "DEFAULT_NAIVE_CAP", 10)
    with pytest.raises(ResourceLimit):
        kloosterman_naive(4, 1, f7)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("q", [5, 7, 11])
def test_cross_algorithm_small(k, q):
    assert cross_check(kloosterman_table(k, make_prime_field(q))) < 1e-10


def test_cross_algorithm_extension_field():
    f = build_extension(make_prime_field(3), 2)
    assert cross_check(kloosterman_table(2, f)) < 1e-10
    assert cross_check(kloosterman_table(3, f)) < 1e-9


def test_table_complete_sum_collapse():
    for k in (2, 3):
        t = kloosterman_table(k, make_prime_field(11))
        assert t.complete_sum_residual() < 1e-12


def test_table_zero_entry_and_deligne():
    t = kloosterman_table(2, make_prime_field(101))
    assert t.values[0] == 0
    assert t.deligne_margin() <= 1e-9


def test_sign_conventions():
    f = make_prime_field(11)
    for k in (2, 3, 4, 5):
        ti = kloosterman_table(k, f, INTRO)
        ts = kloosterman_table(k, f, SHEAF)
        assert np.allclose(ts.values, (-1) ** (k - 1) * ti.values)
        assert sign_factor(k, SHEAF) == (-1) ** (k - 1)
        # the sheaf-convention complete sum still collapses to (-1)^k
        assert ts.complete_sum_residual() < 1e-9 / 11 ** ((k - 1) / 2)


def _schoolbook_table(k, f):
    """Kl_k as k - 1 schoolbook cyclic convolutions of psi(g^j), in logs."""
    u1 = f.psi_vec[f.exp_table]
    L = len(u1)
    cur = u1.copy()
    for _ in range(k - 1):
        cur = np.convolve(cur, np.concatenate([u1, u1]))[L:2 * L]
    vals = np.zeros(f.size, dtype=np.complex128)
    vals[f.exp_table] = cur / f.size ** ((k - 1) / 2)
    return vals


def test_convolution_paths_agree_on_overlap():
    f = make_prime_field(101)
    t = kloosterman_table(3, f)
    assert np.abs(t.values - _schoolbook_table(3, f)).max() < 1e-10


def _gauss_certificates(f, k, psi_vec):
    """(|G(1) + 1|, max ||G(chi)|^2 / Q - 1| over chi != 1, the relative
    Parseval residual of Kl_k) for the table built from ``psi_vec``."""
    Q = f.size
    G = np.fft.fft(psi_vec[f.exp_table])
    stand_in = SimpleNamespace(size=Q, exp_table=f.exp_table, psi_vec=psi_vec)
    kl_k = kloosterman_table(k, stand_in).values
    energy = np.vdot(kl_k, kl_k).real
    want = (1 + (Q - 2) * float(Q) ** k) / ((Q - 1) * float(Q) ** (k - 1))
    return (abs(G[0] + 1), np.abs(np.abs(G[1:]) ** 2 / Q - 1).max(),
            abs(energy / want - 1))


@pytest.mark.parametrize("qd", [(100003, 1), (3, 10)])
def test_gauss_sum_certificates_beyond_the_naive_cap(qd):
    # G(1) = -1 and |G(chi)|^2 = Q for chi != 1 check psi itself, and with
    # them Parseval fixes sum_{a != 0} |Kl_k(a)|^2; none holds by algebra
    # for a wrong psi, so one entry turned by pi/3 breaks all three
    f = _small_field(*qd)
    Q, eps = f.size, np.finfo(float).eps
    budgets = (Q * eps, 64 * eps * math.log2(Q), 64 * eps * math.log2(Q))
    bad_psi = f.psi_vec.copy()
    bad_psi[1] *= cmath.exp(1j * math.pi / 3)
    for k in (2, 3, 4):
        clean = _gauss_certificates(f, k, f.psi_vec)
        assert all(c < b for c, b in zip(clean, budgets)), clean
        broken = _gauss_certificates(f, k, bad_psi)
        assert all(c > 1000 * b for c, b in zip(broken, budgets)), broken


def test_table_refuses_k_beyond_the_float_range():
    # every k the bound admits builds with finite reported quantities
    f = make_prime_field(53)
    k = 2
    while True:
        try:
            t = kloosterman_table(k, f)
        except OutOfRange:
            break
        assert np.isfinite(t.values).all()
        assert np.isfinite([t.deligne_margin(), t.complete_sum_residual(),
                            conjugation_symmetry_check(t)]).all()
        k += 1
    assert k > 340
    with pytest.raises(OutOfRange):
        kloosterman_table(400, f)


def test_pullback_identity_and_group_action(f7):
    # the twist a -> Kl(c a) that the four-fold kernels read
    t = kloosterman_table(2, f7)
    assert np.array_equal(SumProductContext(t, c=1).twisted, t.values)
    t3 = KloostermanTable(k=2, field=f7, convention=t.convention,
                          values=SumProductContext(t, c=3).twisted)
    inv3 = pow(3, 5, 7)
    assert np.array_equal(SumProductContext(t3, c=inv3).twisted, t.values)
    assert t3.values[1] == t.values[3]


@pytest.mark.parametrize("qd", [(53, 1), (5, 2)])
def test_twist_is_the_scalar_product(qd):
    # twisted[a] = Kl(c * a), with c * a from the scalar field product
    f = _small_field(*qd)
    t = kloosterman_table(2, f)
    for c in (1, 2, -1):
        cq = c % f.size
        want = t.values[[f.mul(cq, a) for a in range(f.size)]]
        assert np.array_equal(SumProductContext(t, c=c).twisted, want)


def test_pullback_zero_rejected(f7):
    t = kloosterman_table(2, f7)
    for c in (0, 7):
        with pytest.raises(ValueError):
            SumProductContext(t, c=c)


def test_conjugation_symmetry():
    assert conjugation_symmetry_check(kloosterman_table(3, make_prime_field(7))) < 1e-9
    t2 = kloosterman_table(2, make_prime_field(101))
    assert conjugation_symmetry_check(t2) < 1e-9
    assert np.abs(t2.values.imag).max() < 1e-9  # k even: real table


def test_conjugation_symmetry_extension():
    f = build_extension(make_prime_field(5), 2)
    assert conjugation_symmetry_check(kloosterman_table(3, f)) < 1e-9


def test_binary_cache_roundtrip(tmp_path):
    f = build_extension(make_prime_field(3), 2)
    t = kloosterman_table(3, f, SHEAF)
    p = str(tmp_path / cache_path("", 3, f, SHEAF).lstrip("/"))
    save_table(t, p)
    back = load_table(p, f, 3, SHEAF)
    assert back.k == t.k and back.convention == SHEAF
    assert back.field.q == 3 and back.field.degree == 2
    assert np.array_equal(back.values, t.values)


@pytest.mark.parametrize("cut", [32, 7])
def test_binary_cache_rejects_truncation(tmp_path, cut):
    f = make_prime_field(13)
    p = str(tmp_path / "t.kltb")
    save_table(kloosterman_table(2, f), p)
    with open(p, "r+b") as fh:
        fh.truncate(fh.seek(0, 2) - cut)
    with pytest.raises(IoError):
        load_table(p, f, 2, INTRO)


def test_binary_cache_rejects_mismatched_request(tmp_path, f7):
    p = str(tmp_path / "t.kltb")
    save_table(kloosterman_table(3, f7, SHEAF), p)
    assert load_table(p, f7, 3, SHEAF).k == 3
    with pytest.raises(IoError):
        load_table(p, f7, 2, SHEAF)
    with pytest.raises(IoError):
        load_table(p, f7, 3, INTRO)
    with pytest.raises(IoError):
        load_table(p, make_prime_field(11), 3, SHEAF)
    with open(p, "r+b") as fh:
        fh.truncate(20)  # inside the header
    with pytest.raises(IoError):
        load_table(p, f7, 3, SHEAF)


def test_binary_cache_rejects_flipped_payload_byte(tmp_path):
    f = build_extension(make_prime_field(3), 2)
    p = str(tmp_path / "t.kltb")
    save_table(kloosterman_table(3, f), p)
    with open(p, "r+b") as fh:
        fh.seek(-20, 2)  # inside the last value
        byte = fh.read(1)
        fh.seek(-20, 2)
        fh.write(bytes([byte[0] ^ 0x01]))
    with pytest.raises(IoError, match="checksum"):
        load_table(p, f, 3, INTRO)


def test_binary_cache_rejects_old_format(tmp_path, f7):
    # the format without a checksum: magic "KLTB", the header, then the payload
    import struct
    t = kloosterman_table(2, f7)
    inter = np.empty(2 * f7.size, dtype="<f8")
    inter[0::2], inter[1::2] = t.values.real, t.values.imag
    p = tmp_path / "old.kltb"
    p.write_bytes(b"KLTB" + struct.pack("<IQIB", 2, 7, 1, 0) + struct.pack("<I", 2)
                  + struct.pack("<2Q", *f7.modulus) + inter.tobytes())
    with pytest.raises(IoError, match="old cache format"):
        load_table(str(p), f7, 2, INTRO)


def test_binary_cache_refuses_a_foreign_modulus(tmp_path):
    # x^2 + 2 is irreducible over F_7, but klab's modulus for F_{7^2} is x^2 + 1
    f = build_extension(make_prime_field(7), 2)
    assert f.modulus == (1, 0, 1)
    p = str(tmp_path / "t.kltb")
    save_table(kloosterman_table(2, f), p)
    with open(p, "r+b") as fh:
        fh.seek(25)  # the modulus coefficients follow magic, k, q, d, convention, count
        assert fh.read(8) == (1).to_bytes(8, "little")
        fh.seek(25)
        fh.write((2).to_bytes(8, "little"))
    with pytest.raises(IoError, match="cached field does not match"):
        load_table(p, f, 2, INTRO)


def test_load_table_builds_no_field(tmp_path, monkeypatch, f7):
    # the requested field is the only one: a valid cache loads and a header
    # naming another q is refused, with every field constructor refusing too
    p = str(tmp_path / "t.kltb")
    t = kloosterman_table(2, f7)
    save_table(t, p)

    def refuse(*args, **kwargs):
        raise AssertionError("load_table built a field")

    for name in ("finite_field", "PrimeField", "ExtField"):
        monkeypatch.setattr(fl, name, refuse)
    monkeypatch.setattr(kl, "finite_field", refuse, raising=False)
    back = load_table(p, f7, 2, INTRO)
    assert back.field is f7 and np.array_equal(back.values, t.values)
    with open(p, "r+b") as fh:
        fh.seek(8)  # q follows magic and k
        fh.write((999983).to_bytes(8, "little"))
    with pytest.raises(IoError, match="cached field does not match"):
        load_table(p, f7, 2, INTRO)


def test_naive_table_matches_pointwise_naive(f5):
    nt = naive_table(3, f5)
    for a in range(5):
        assert abs(nt.values[a] - kloosterman_naive(3, a, f5)) < 1e-12


@lru_cache(maxsize=None)
def _small_field(q, d):
    base = make_prime_field(q)
    return base if d == 1 else build_extension(base, d)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(q, 1) for q in (5, 7, 11, 13, 17, 19, 23, 29, 31)]
                       + [(3, 2), (5, 2), (3, 3)]),
       st.integers(2, 4))
def test_naive_table_matches_convolution(qd, k):
    f = _small_field(*qd)
    dev = np.abs(naive_table(k, f).values - kloosterman_table(k, f).values).max()
    assert dev < 1e-12


@pytest.mark.parametrize("qd", [(31, 1), (3, 2)])
def test_naive_table_blocked_gather(monkeypatch, qd):
    # a gather block smaller than one row still covers every a once
    f = _small_field(*qd)
    monkeypatch.setattr(kl, "NAIVE_GATHER_CELLS", 7)
    dev = np.abs(naive_table(3, f).values - kloosterman_table(3, f).values).max()
    assert dev < 1e-12


def test_naive_route_ignores_dlog_tables():
    # over F_q the oracle reads no discrete-log or generator-power table:
    # scrambling both after the reference is built changes nothing
    f = make_prime_field(31)
    ref = {k: kloosterman_table(k, f).values.copy() for k in (2, 3, 4)}
    rng = np.random.default_rng(5)
    for name in ("log_table", "exp_table"):
        setattr(f, name, rng.permutation(getattr(f, name)))
    assert np.abs(kloosterman_table(3, f).values - ref[3]).max() > 1e-3
    for k in (2, 3, 4):
        assert np.abs(naive_table(k, f).values - ref[k]).max() < 1e-12
        for a in (1, 2, 30):
            assert abs(kloosterman_naive(k, a, f) - ref[k][a]) < 1e-12


@pytest.mark.parametrize("qd", [(7, 1), (3, 2), (5, 2), (3, 3)])
def test_tuple_mesh_is_the_scalar_enumeration(qd):
    # one path for every d: the units in encoding order, combined by add_vec
    # and mul_vec, match the scalar sums and products tuple by tuple
    f = _small_field(*qd)
    sums, prods = kl._tuple_mesh(f, 4, kl.DEFAULT_NAIVE_CAP)
    want = [(f.add(f.add(a, b), c), f.mul(f.mul(a, b), c))
            for a, b, c in itertools.product(range(1, f.size), repeat=3)]
    assert list(zip(sums.tolist(), prods.tolist())) == want


@pytest.mark.parametrize("k", [1, 0, -1])
def test_every_route_refuses_k_below_two(f7, k):
    # one check for all three routes, with kloosterman_table's message
    for route in (lambda: kloosterman_table(k, f7), lambda: naive_table(k, f7),
                  lambda: kloosterman_naive(k, 1, f7), lambda: kloosterman_naive(k, 0, f7)):
        with pytest.raises(ValueError, match="k must be >= 2"):
            route()


@pytest.mark.parametrize("qd", [(13, 1), (3, 3), (5, 2)])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_naive_table_recursion_builds_no_tuple_mesh(monkeypatch, qd, k):
    def no_mesh(*_args):
        raise AssertionError("naive_table built the tuple mesh")

    f = _small_field(*qd)
    monkeypatch.setattr(kl, "_tuple_mesh", no_mesh)
    dev = np.abs(naive_table(k, f).values - kloosterman_table(k, f).values).max()
    assert dev < 1e-12


@pytest.mark.parametrize("qd", [(7, 1), (3, 2), (5, 2)])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_naive_table_recursion_matches_tuple_sum(qd, k):
    # the recursion and the scalar tuple sum group the terms differently
    f = _small_field(*qd)
    nt = naive_table(k, f)
    for a in range(f.size):
        assert abs(nt.values[a] - kloosterman_naive(k, a, f)) < 1e-12


@pytest.mark.parametrize("qd", [(31, 1), (3, 2)])
def test_naive_table_blocked_gather_over_passes(monkeypatch, qd):
    # every pass of the recursion streams the block in the same small chunks
    f = _small_field(*qd)
    monkeypatch.setattr(kl, "NAIVE_GATHER_CELLS", 7)
    dev = np.abs(naive_table(4, f).values - kloosterman_table(4, f).values).max()
    assert dev < 1e-12


@pytest.mark.parametrize("k,q,d", [(4, 101, 1), (2, 1009, 1), (3, 23, 2), (2, 3, 6)])
def test_naive_table_bytes_do_not_depend_on_the_block(monkeypatch, k, q, d):
    f = _small_field(q, d)
    got = set()
    for cells in (1 << 10, 1 << 16, 1 << 20):
        monkeypatch.setattr(kl, "NAIVE_GATHER_CELLS", cells)
        got.add(naive_table(k, f).values.tobytes())
    assert len(got) == 1


@pytest.mark.parametrize("k,qd", [(2, (31, 1)), (3, (7, 1)), (5, (3, 2))])
def test_naive_table_cap_counts_the_recursion_cells(monkeypatch, k, qd):
    # naive_table computes (k-1) (Q-1)^2 cells, whatever (Q-1)^(k-1) is
    f = _small_field(*qd)
    cells = (k - 1) * (f.size - 1) ** 2
    monkeypatch.setattr(kl, "DEFAULT_NAIVE_CAP", cells)
    naive_table(k, f)
    monkeypatch.setattr(kl, "DEFAULT_NAIVE_CAP", cells - 1)
    with pytest.raises(ResourceLimit, match=f"{cells} cells"):
        naive_table(k, f)
