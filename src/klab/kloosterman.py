"""Hyper-Kloosterman sum tables over F_{q^d}.

Two independent evaluation routes are provided and cross-checked:

* ``kloosterman_naive`` -- direct summation over (k-1)-tuples with the last
  coordinate solved from the product constraint; cost O(q^{d(k-1)}) per value.
  ``naive_table`` bins the same tuples by their product p, h(p) = sum of
  psi(x_1 + ... + x_{k-1}), and takes Kl(a) = sum_p h(p) psi(a / p) as one
  (Q-1) x (Q-1) gather and matvec: O(Q^{k-1} + Q^2) for all a, Q = q^d.
  Both take 1/p = p^{Q-2} by square-and-multiply through ``field.mul_vec``,
  so over F_q they touch no discrete-log table and no FFT.
* ``kloosterman_table`` -- (k-1)-fold multiplicative convolution of the
  additive character with itself over the unit group, realized as a cyclic
  convolution of length q^d - 1 in discrete-log indexing (schoolbook below
  length 5000, FFT above; the two convolution paths agree on overlap).

Normalization divides the raw sum by q^{d(k-1)/2}.  The ``intro`` convention
carries no sign; the ``sheaf`` convention multiplies by (-1)^{k-1}.  The sign
cancels in every |.|^2 and 4-fold product statistic downstream.  The value at
a = 0 is 0 (extension by zero).

Float budget: a table entry accumulates ~q^d unit-modulus terms per
convolution level, so entries are good to ~N_terms * 1e-15 relative; the
cross-checks in the tests run at 1e-8 * k and pass with orders of magnitude
to spare.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import IoError, KlabError, ResourceLimit, ZeroScale

SCHOOLBOOK_MAX = 5000
DEFAULT_NAIVE_CAP = 1 << 25
# cells of the psi(a / p) block that naive_table gathers at a time
NAIVE_GATHER_CELLS = 1 << 20

INTRO = "intro"
SHEAF = "sheaf"


def sign_factor(k: int, convention: str) -> int:
    """Multiplier applied to the intro-normalized value: 1 or (-1)^{k-1}."""
    if convention == INTRO:
        return 1
    if convention == SHEAF:
        return -1 if k % 2 == 0 else 1
    raise ValueError(f"unknown convention {convention!r}")


@dataclass(frozen=True)
class KloostermanTable:
    """All values Kl_k(a; F_{q^d}) for a in the field (entry 0 is 0)."""

    k: int
    field: object
    convention: str
    values: np.ndarray

    @property
    def size(self):
        return self.field.size

    def deligne_margin(self) -> float:
        """max_a |Kl_k(a)| - k; nonpositive up to float noise."""
        return float(np.abs(self.values).max() - self.k)

    def complete_sum_residual(self) -> float:
        """|sum_a (unnormalized sum) - (-1)^k|; the complete sum collapses."""
        Q = self.field.size
        unnorm = self.values * (Q ** ((self.k - 1) / 2) / sign_factor(self.k, self.convention))
        return abs(unnorm.sum() - (-1) ** self.k)

    def with_convention(self, convention: str) -> "KloostermanTable":
        if convention == self.convention:
            return self
        s = sign_factor(self.k, convention) / sign_factor(self.k, self.convention)
        return replace(self, convention=convention, values=self.values * s)


def _neg_perm(field) -> np.ndarray:
    """Permutation a -> -a on encodings."""
    q, Q = field.q, field.size
    ids = np.arange(Q, dtype=np.int64)
    out = np.zeros(Q, dtype=np.int64)
    for i in range(field.degree):
        out += ((q - ids // q**i % q) % q) * q**i
    return out


def _mul_perm(field, c: int) -> np.ndarray:
    """Permutation a -> c*a on encodings, for c != 0."""
    Q = field.size
    out = np.zeros(Q, dtype=np.int64)
    L = Q - 1
    lc = int(field.log_table[c])
    logs = field.log_table[field.exp_table]
    out[field.exp_table] = field.exp_table[(logs + lc) % L]
    return out


def _cyclic_convolve(u: np.ndarray, v: np.ndarray, method: str) -> np.ndarray:
    L = len(u)
    if method == "schoolbook":
        return np.convolve(u, np.concatenate([v, v]))[L:2 * L]
    if method == "fft":
        return np.fft.ifft(np.fft.fft(u) * np.fft.fft(v))
    raise ValueError(f"unknown convolution method {method!r}")


def kloosterman_table(k: int, field, convention: str = INTRO,
                      method: str = "auto") -> KloostermanTable:
    """Build the full table by iterated multiplicative convolution."""
    if k < 2:
        raise ValueError("k must be >= 2")
    Q = field.size
    L = Q - 1
    if method == "auto":
        method = "schoolbook" if L <= SCHOOLBOOK_MAX else "fft"
    u1 = field.psi_vec[field.exp_table]  # psi at g^j, log indexing
    cur = u1.copy()
    for _ in range(k - 1):
        cur = _cyclic_convolve(cur, u1, method)
    vals = np.zeros(Q, dtype=np.complex128)
    vals[field.exp_table] = cur
    vals *= sign_factor(k, convention) / Q ** ((k - 1) / 2)
    vals[0] = 0.0
    vals.setflags(write=False)
    return KloostermanTable(k=k, field=field, convention=convention, values=vals)


def _tuple_mesh(field, k: int, cap: int):
    """Flattened partial sums and products over (F^x)^{k-1}."""
    Q = field.size
    if (Q - 1) ** (k - 1) > cap:
        raise ResourceLimit(
            f"naive evaluation needs (q^d - 1)^(k-1) = {(Q - 1) ** (k - 1)} <= {cap}")
    units = np.arange(1, Q, dtype=np.int64) if field.degree == 1 \
        else field.exp_table.copy()
    sums = units.copy()
    prods = units.copy()
    for _ in range(k - 2):
        if field.degree == 1:
            sums = ((sums[:, None] + units[None, :]) % Q).ravel()
            prods = ((prods[:, None] * units[None, :]) % Q).ravel()
        else:
            sums = field.add_table()[sums[:, None], units[None, :]].ravel()
            prods = field.mul_table()[prods[:, None], units[None, :]].ravel()
    return sums, prods


def _unit_inverses(field) -> np.ndarray:
    """inv[u] = u^(Q-2) for every encoding u (inv[0] = 0), by vectorized
    square-and-multiply through ``field.mul_vec``, not from ``inv_table``."""
    ids = np.arange(field.size, dtype=np.int64)
    inv = np.ones(field.size, dtype=np.int64)
    base, e = ids, field.size - 2
    while e:
        if e & 1:
            inv = field.mul_vec(inv, base)
        base = field.mul_vec(base, base)
        e >>= 1
    inv[0] = 0
    return inv


def kloosterman_naive(k: int, a: int, field, cap: int = DEFAULT_NAIVE_CAP,
                      convention: str = INTRO) -> complex:
    """Direct brute-force sum over x_1 ... x_{k-1}, with x_k = a / prod."""
    if a % field.size == 0:
        return 0.0 + 0.0j
    sums, prods = _tuple_mesh(field, k, cap)
    last = field.mul_vec(a, _unit_inverses(field)[prods])
    total = field.psi_vec[field.add_vec(sums, last)].sum()
    return complex(total * sign_factor(k, convention) / field.size ** ((k - 1) / 2))


def naive_table(k: int, field, cap: int = DEFAULT_NAIVE_CAP,
                convention: str = INTRO) -> KloostermanTable:
    """Brute-force table: the tuple mesh binned by product (tests/oracles).

    h(p) sums psi(x_1 + ... + x_{k-1}) over the tuples with product p, and
    Kl(a) = sum_p h(p) psi(a / p) is one gather of psi_vec and one matvec.
    """
    sums, prods = _tuple_mesh(field, k, cap)
    Q = field.size
    h = (np.bincount(prods, weights=field.psi_vec.real[sums], minlength=Q)
         + 1j * np.bincount(prods, weights=field.psi_vec.imag[sums], minlength=Q))
    del sums, prods
    inv = _unit_inverses(field)[None, 1:]
    vals = np.zeros(Q, dtype=np.complex128)
    step = max(1, NAIVE_GATHER_CELLS // (Q - 1))
    for lo in range(1, Q, step):
        a = np.arange(lo, min(lo + step, Q), dtype=np.int64)[:, None]
        vals[lo:lo + step] = field.psi_vec[field.mul_vec(a, inv)] @ h[1:]
    vals *= sign_factor(k, convention) / Q ** ((k - 1) / 2)
    vals.setflags(write=False)
    return KloostermanTable(k=k, field=field, convention=convention, values=vals)


def pullback_scale(table: KloostermanTable, c: int) -> KloostermanTable:
    """The twist [x c]: new_values[a] = values[c * a]."""
    if c % table.field.size == 0:
        raise ZeroScale("pullback by c = 0 is not invertible")
    perm = _mul_perm(table.field, c % table.field.size)
    vals = table.values[perm]
    vals.setflags(write=False)
    return replace(table, values=vals)


def conjugation_symmetry_check(table: KloostermanTable) -> float:
    """max_a |conj(t[a]) - t[(-1)^k a]| (0 up to float noise)."""
    if table.k % 2 == 0:
        target = table.values
    else:
        target = table.values[_neg_perm(table.field)]
    return float(np.abs(np.conj(table.values) - target).max())


def cross_check(k: int, field, cap: int = DEFAULT_NAIVE_CAP) -> float:
    """max |naive - convolution| over all a, intro convention."""
    t1 = kloosterman_table(k, field)
    t2 = naive_table(k, field, cap=cap)
    return float(np.abs(t1.values - t2.values).max())


# ----------------------------------------------------------------------
# binary cache
# ----------------------------------------------------------------------

_MAGIC = b"KLTB"
_CONV_CODE = {INTRO: 0, SHEAF: 1}
_CONV_NAME = {v: n for n, v in _CONV_CODE.items()}


def save_table(table: KloostermanTable, path: str) -> None:
    """Header (magic, k, q, d, convention, modulus coeffs) + f64 le pairs.

    The bytes go to a temporary file beside ``path`` that then replaces it,
    so a reader never sees a partly written cache.
    """
    f = table.field
    coeffs = f.modulus
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<IQIB", table.k, f.q, f.degree,
                                 _CONV_CODE[table.convention]))
            fh.write(struct.pack("<I", len(coeffs)))
            fh.write(struct.pack(f"<{len(coeffs)}Q", *coeffs))
            inter = np.empty(2 * f.size, dtype="<f8")
            inter[0::2] = table.values.real
            inter[1::2] = table.values.imag
            fh.write(inter.tobytes())
        os.replace(tmp, path)
    except OSError as e:
        raise IoError(f"cannot write table cache {path}: {e}") from e
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_table(path: str, field=None, k: int | None = None,
               convention: str | None = None) -> KloostermanTable:
    """Read a cache written by ``save_table``; with ``field``, ``k`` or
    ``convention`` given, the cached header must match them.  Every
    malformed or mismatched file raises IoError."""
    from .fields import ExtField, PrimeField

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise IoError(f"cannot read table cache {path}: {e}") from e
    if raw[:4] != _MAGIC:
        raise IoError(f"{path}: bad magic")
    try:
        kk, q, d, conv = struct.unpack_from("<IQIB", raw, 4)
        (ncoef,) = struct.unpack_from("<I", raw, 21)
        if ncoef != d + 1:
            raise IoError(f"{path}: {ncoef} modulus coefficients for degree {d}")
        coeffs = struct.unpack_from(f"<{ncoef}Q", raw, 25)
    except struct.error as e:
        raise IoError(f"{path}: truncated header") from e
    if conv not in _CONV_NAME:
        raise IoError(f"{path}: unknown convention code {conv}")
    if k is not None and kk != k:
        raise IoError(f"{path}: cached k = {kk}, requested k = {k}")
    if convention is not None and _CONV_NAME[conv] != convention:
        raise IoError(f"{path}: cached convention {_CONV_NAME[conv]!r}, "
                      f"requested {convention!r}")
    if field is not None and (field.q != q or field.degree != d
                              or tuple(field.modulus) != tuple(coeffs)):
        raise IoError(f"{path}: cached field does not match the requested one")
    # checked before any field is built, so a corrupt q or d costs nothing
    offset = 25 + 8 * ncoef
    if len(raw) - offset != 16 * q**d:
        raise IoError(f"{path}: payload is {len(raw) - offset} bytes, "
                      f"expected {16 * q**d}")
    if field is None:
        try:
            base = PrimeField(q)
            field = base if d == 1 else ExtField(base, d, modulus=coeffs)
        except (KlabError, ValueError) as e:
            raise IoError(f"{path}: bad cached field: {e}") from e
    inter = np.frombuffer(raw, dtype="<f8", offset=offset)
    vals = inter[0::2] + 1j * inter[1::2]
    vals.setflags(write=False)
    return KloostermanTable(k=kk, field=field, convention=_CONV_NAME[conv], values=vals)


def cache_path(cache_dir: str, k: int, field, convention: str) -> str:
    return os.path.join(cache_dir,
                        f"kl_k{k}_q{field.q}_d{field.degree}_{convention}.kltb")
