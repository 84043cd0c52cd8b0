"""Hyper-Kloosterman sum tables over F_{q^d}.

Two independent evaluation routes are provided and cross-checked:

* ``kloosterman_naive`` -- direct summation over (k-1)-tuples with the last
  coordinate solved from the product constraint; cost O(q^{d(k-1)}) per value.
  ``naive_table`` recurs on k instead: Kl_1 = psi on the units and
  Kl_j(a) = sum_p Kl_{j-1}(p) psi(a / p), k - 1 matvecs of one (Q-1) x (Q-1)
  gather, O(k Q^2) for all a, Q = q^d.  The two group the sum differently; the
  scalar route keeps the mesh, as one value by recursion costs a whole table.
  Both take 1/p = p^{Q-2} by square-and-multiply through ``field.mul_vec``,
  so over F_q they touch no discrete-log table and no FFT.
* ``kloosterman_table`` -- one Gauss-sum power.  In discrete logs Kl_k is
  the k-fold cyclic convolution of psi(g^j), and fft(psi(g^j)) is the vector
  of Gauss sums G(chi) (Katz 1988), so one forward FFT, a k-th power and one
  inverse FFT of length q^d - 1 give the table for every k and field.

Normalization divides the raw sum by q^{d(k-1)/2}.  The ``intro`` convention
carries no sign; the ``sheaf`` convention multiplies by (-1)^{k-1}.  The sign
cancels in every |.|^2 and 4-fold product statistic downstream.  The value at
a = 0 is 0 (extension by zero).

Float budget of the FFT pair: each normalized Gauss sum has relative error
about eps * log2(Q) and its k-th power k times that; the inverse FFT spreads
those errors over Q - 1 entries, so an entry is good to about
k * eps * log2(Q) in rms and k * sqrt(Q) * eps * log2(Q) at worst.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import IoError, OutOfRange, ResourceLimit

# most cells of a naive route: (k-1) (Q-1)^2 for naive_table, (Q-1)^(k-1)
# tuples for the scalar mesh
DEFAULT_NAIVE_CAP = 1 << 25
# cells of the psi(a / p) block that naive_table gathers at a time (two rows
# at least): 2^16 keeps the block, 16 bytes a cell complex and 2 its int16
# index, near 1 MiB, while a pass over F_{3^6} still takes only nine blocks
NAIVE_GATHER_CELLS = 1 << 16

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
        """|sum_a Kl_k(a) - sign (-1)^k / Q^((k-1)/2)|, in table units: the
        unnormalized complete sum collapses to (-1)^k."""
        sign = sign_factor(self.k, self.convention) * (-1) ** self.k
        return float(abs(self.values.sum() - sign / self.size ** ((self.k - 1) / 2)))


def _mul_perm(field, c: int) -> np.ndarray:
    """Permutation a -> c*a on encodings, for c != 0: g^j -> g^(j + log c)."""
    out = np.zeros(field.size, dtype=np.int64)
    out[field.exp_table] = np.roll(field.exp_table, -int(field.log_table[c]))
    return out


def _require_k(k: int) -> None:
    if k < 2:
        raise ValueError("k must be >= 2")


def kloosterman_table(k: int, field, convention: str = INTRO) -> KloostermanTable:
    """Kl_k(g^m) = sign * sqrt(Q) * ifft(u^k)[m], u = fft(psi(g^j)) / sqrt(Q);
    |u| = 1 off the trivial character, where u = -1/sqrt(Q).

    OutOfRange unless k * Q^((k+1)/2) is below the largest float: then the
    trivial character's u^k = (-1/sqrt(Q))^k does not underflow, and no
    unnormalized sum, at most k * Q^((k-1)/2) in modulus (Deligne), overflows.
    """
    _require_k(k)
    Q = field.size
    if math.log(k) + (k + 1) / 2 * math.log(Q) >= math.log(np.finfo(float).max):
        raise OutOfRange(f"k = {k} too large for q^d = {Q}: "
                         f"k * Q^((k+1)/2) exceeds the float range")
    u = np.fft.fft(field.psi_vec[field.exp_table]) / math.sqrt(Q)
    kl = np.fft.ifft(np.power(u, k, out=u))
    del u  # one complex array fewer at the scatter: 160 MB at the dlog cap
    kl *= sign_factor(k, convention) * math.sqrt(Q)
    vals = np.zeros(Q, dtype=np.complex128)
    vals[field.exp_table] = kl
    vals.setflags(write=False)
    return KloostermanTable(k=k, field=field, convention=convention, values=vals)


def _require_naive(k: int, cells: int, cap: int) -> None:
    """The refusals of the naive routes: k < 2, and more than ``cap`` of the
    ``cells`` that the route computes."""
    _require_k(k)
    if cells > cap:
        raise ResourceLimit(f"naive evaluation needs {cells} cells, more than {cap}")


def _tuple_mesh(field, k: int, cap: int):
    """Flattened partial sums and products over (F^x)^{k-1}."""
    _require_naive(k, (field.size - 1) ** (k - 1), cap)
    units = np.arange(1, field.size, dtype=np.int64)
    sums = units.copy()
    prods = units.copy()
    for _ in range(k - 2):
        sums = field.add_vec(sums[:, None], units[None, :]).ravel()
        prods = field.mul_vec(prods[:, None], units[None, :]).ravel()
    return sums, prods


def _unit_inverses(field) -> np.ndarray:
    """inv[u] = u^(Q-2) for every encoding u (inv[0] = 0), by vectorized
    square-and-multiply through ``field.mul_vec``, not from the log tables."""
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


def kloosterman_naive(k: int, a: int, field) -> complex:
    """Direct brute-force sum over x_1 ... x_{k-1}, x_k = a / prod (``intro``)."""
    sums, prods = _tuple_mesh(field, k, DEFAULT_NAIVE_CAP)
    if a % field.size == 0:
        return 0.0 + 0.0j
    last = field.mul_vec(a, _unit_inverses(field)[prods])
    total = field.psi_vec[field.add_vec(sums, last)].sum()
    return complex(total / field.size ** ((k - 1) / 2))


def naive_table(k: int, field, convention: str = INTRO) -> KloostermanTable:
    """Brute-force table by recursion on k (tests/oracles): from Kl_1 = psi
    on the units, each of k - 1 passes takes Kl_j(a) = sum_p Kl_{j-1}(p)
    psi(a / p), the block psi(a / p) gathered NAIVE_GATHER_CELLS at a time
    times the last pass's values.  O(k Q^2) against Q^{k-1} for the mesh."""
    Q = field.size
    _require_naive(k, (k - 1) * (Q - 1) ** 2, DEFAULT_NAIVE_CAP)
    inv = _unit_inverses(field)[None, 1:]
    vals = np.zeros(Q, dtype=np.complex128)
    vals[1:] = field.psi_vec[1:]
    # blocks of at least two rows: numpy takes a one-row product as a dot
    # product, which rounds unlike the matvec, so a last row joins the block
    # before it and the values do not depend on the block size
    starts = range(1, Q - 1, max(2, NAIVE_GATHER_CELLS // (Q - 1)))
    for _ in range(k - 1):
        h = vals[1:].copy()
        for lo, hi in zip(starts, [*starts[1:], Q]):
            a = np.arange(lo, hi, dtype=np.int64)[:, None]
            vals[lo:hi] = field.psi_vec.take(field.mul_vec(a, inv)) @ h
    vals *= sign_factor(k, convention) / Q ** ((k - 1) / 2)
    vals.setflags(write=False)
    return KloostermanTable(k=k, field=field, convention=convention, values=vals)


def conjugation_symmetry_check(table: KloostermanTable) -> float:
    """max_a |conj(t[a]) - t[(-1)^k a]| (0 up to float noise)."""
    if table.k % 2 == 0:
        target = table.values
    else:
        target = table.values[table.field.neg(np.arange(table.size, dtype=np.int64))]
    return float(np.abs(np.conj(table.values) - target).max())


def conjugation_budget(table: KloostermanTable) -> float:
    """The float budget of ``conjugation_symmetry_check``: entries of size
    up to k each carry at most about q^d * 1e-15 of noise (the FFT pair's
    worst case, sqrt(Q) * eps * log2(Q) per unit of size, is below it), so
    genuine tables stay within k * q^d * 1e-15."""
    return table.k * table.field.size * 1e-15


def cross_check(table: KloostermanTable) -> float:
    """max |table - naive| over all a, the naive table in the same convention."""
    naive = naive_table(table.k, table.field, convention=table.convention)
    return float(np.abs(table.values - naive.values).max())


# ----------------------------------------------------------------------
# binary cache
# ----------------------------------------------------------------------

# the format version is the magic's last byte: "KLTB" files carry no
# payload checksum and are refused
_MAGIC = b"KLT2"
_OLD_MAGIC = b"KLTB"
_CONV_CODE = {INTRO: 0, SHEAF: 1}
_CONV_NAME = {v: n for n, v in _CONV_CODE.items()}


def save_table(table: KloostermanTable, path: str) -> None:
    """Header (magic, k, q, d, convention, modulus coeffs, CRC32 of the
    payload) + the payload, f64 le (re, im) pairs.

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
            payload = inter.tobytes()
            fh.write(struct.pack("<I", zlib.crc32(payload)))
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as e:
        raise IoError(f"cannot write table cache {path}: {e}") from e
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_table(path: str, field, k: int, convention: str) -> KloostermanTable:
    """Read a cache written by ``save_table``, whose header must match
    ``field``, ``k`` and ``convention``; no field is built from the file.
    Every malformed or mismatched file raises IoError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise IoError(f"cannot read table cache {path}: {e}") from e
    if raw[:4] == _OLD_MAGIC:
        raise IoError(f"{path}: old cache format without a checksum; rebuild it")
    if raw[:4] != _MAGIC:
        raise IoError(f"{path}: bad magic")
    try:
        kk, q, d, conv = struct.unpack_from("<IQIB", raw, 4)
        (ncoef,) = struct.unpack_from("<I", raw, 21)
        if ncoef != d + 1:
            raise IoError(f"{path}: {ncoef} modulus coefficients for degree {d}")
        coeffs = struct.unpack_from(f"<{ncoef}Q", raw, 25)
        (crc,) = struct.unpack_from("<I", raw, 25 + 8 * ncoef)
    except struct.error as e:
        raise IoError(f"{path}: truncated header") from e
    if conv not in _CONV_NAME:
        raise IoError(f"{path}: unknown convention code {conv}")
    if kk != k:
        raise IoError(f"{path}: cached k = {kk}, requested k = {k}")
    if _CONV_NAME[conv] != convention:
        raise IoError(f"{path}: cached convention {_CONV_NAME[conv]!r}, "
                      f"requested {convention!r}")
    if field.q != q or field.degree != d or tuple(field.modulus) != tuple(coeffs):
        raise IoError(f"{path}: cached field does not match the requested one")
    offset = 29 + 8 * ncoef
    if len(raw) - offset != 16 * q**d:
        raise IoError(f"{path}: payload is {len(raw) - offset} bytes, "
                      f"expected {16 * q**d}")
    if zlib.crc32(memoryview(raw)[offset:]) != crc:
        raise IoError(f"{path}: payload checksum mismatch")
    inter = np.frombuffer(raw, dtype="<f8", offset=offset)
    vals = inter[0::2] + 1j * inter[1::2]
    vals.setflags(write=False)
    return KloostermanTable(k=kk, field=field, convention=_CONV_NAME[conv], values=vals)


def cache_path(cache_dir: str, k: int, field, convention: str) -> str:
    return os.path.join(cache_dir,
                        f"kl_k{k}_q{field.q}_d{field.degree}_{convention}.kltb")
