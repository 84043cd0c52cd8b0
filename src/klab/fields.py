"""Prime fields F_q and extensions F_{q^d}: arithmetic, traces, characters.

Elements of F_{q^d} are encoded as integers in [0, q^d) via base-q digits
(constant coefficient first), so an element sum_i c_i x^i maps to
sum_i c_i q^i.  All tables (powers of the generator, discrete logs, traces,
additive-character values) are indexed by that encoding.  The extension
modulus is chosen deterministically as the irreducible monic polynomial of
degree d whose non-leading coefficient encoding is smallest, so tables are
reproducible across runs.

F_q is F_{q^d} with d = 1 and modulus x, so both classes share one base,
``_Field``: the digit encoding with one digit-wise ``add``/``sub``/``neg`` for
ints and numpy arrays (at d = 1 the one digit is the residue mod q),
``inv``, equality, and the table builder: the trace from the traces of the
powers of the modulus' companion matrix, the generator as the least
encoding of full order, and the exp table by doubling, each step one d x d
digit matrix product over F_q and one squaring of that matrix.
The classes supply ``mul``, ``pow`` and the vector arithmetic, and
``finite_field(q, d)`` is the one constructor the package calls.

``ExtField``'s vector arithmetic gathers from dense Q x Q ``add_table`` and
``mul_table`` (Q <= ``PAIR_TABLE_CAP``), one flat gather at a Q + b.  They
are int16, 4 Q^2 bytes for the pair, and each is built with no Q x Q
temporary, so ``add_vec``/``mul_vec`` return int16 encodings; every caller
uses them only as indices.

Fields are immutable after construction; every operation is a pure function
of its inputs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CompositeModulus, ResourceLimit, TooSmall

# Largest field for which the dense Q x Q add/mul tables may be built; every
# encoding is below it, so int16 holds them and the pair takes 4 Q^2 bytes.
PAIR_TABLE_CAP = 2048
# Largest field for which generator power / discrete log tables are built.
DLOG_TABLE_CAP = 10**7

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor(n: int) -> list[int]:
    """Distinct prime factors by trial division (n <= ~1e14 at desk scale)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# polynomial helpers over F_q (coefficient lists, low degree first)
# ----------------------------------------------------------------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, q):
    """a*b reduced modulo the monic polynomial `mod`."""
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % q
    return _poly_rem(res, mod, q)


def _poly_rem(a, mod, q):
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % q
    _poly_trim(a)
    return a


def _poly_powmod(a, e, mod, q):
    result = [1]
    base = _poly_rem(a, mod, q)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, q)
        base = _poly_mulmod(base, base, mod, q)
        e >>= 1
    return result


def _poly_gcd(a, b, q):
    a, b = list(a), list(b)
    while b:
        # a mod b with b made monic
        lead_inv = pow(b[-1], q - 2, q)
        bm = [(c * lead_inv) % q for c in b]
        a = _poly_rem(a, bm, q)
        a, b = b, a
    return a


def _is_irreducible(mod, q, d):
    """Rabin test: x^{q^d} = x mod f, and gcd(x^{q^{d/p}} - x, f) = 1."""
    x = [0, 1]
    xqd = _poly_powmod(x, q**d, mod, q)
    if xqd != [0, 1]:
        return False
    for p in _factor(d):
        e = d // p
        xe = _poly_powmod(x, q**e, mod, q)
        diff = list(xe) + [0] * (2 - len(xe))
        diff[1] = (diff[1] - 1) % q
        g = _poly_gcd(list(mod), _poly_trim(diff), q)
        if len(g) != 1:
            return False
    return True


# ----------------------------------------------------------------------
# fields
# ----------------------------------------------------------------------

class _Field:
    """The tables shared by F_q and F_{q^d}, indexed by the digit encoding.

    A subclass sets q, degree, size and modulus and supplies ``mul`` and
    ``pow``; ``add``/``sub``/``neg`` are digit-wise in both (mod q at d = 1),
    ``inv`` is the power Q - 2, and ``_build_tables`` fills the trace, exp,
    log and psi tables.  Multiplication by y is the d x d matrix M_y over
    F_q whose row i holds the digits of x^i y: M_x is the companion matrix
    of the modulus, M_{x^i} = M_x^i, and Tr(x^i) = trace(M_x^i) mod q.  The
    exp table is filled by doubling: exp[n:2n] is exp[:n] in digits times
    M_{g^n}, reduced mod q, and M_{g^2n} = M_{g^n}^2.
    """

    def decode(self, e):
        q = self.q
        return tuple((e // q**i) % q for i in range(self.degree))

    def encode(self, coeffs):
        q = self.q
        return sum((int(c) % q) * q**i for i, c in enumerate(coeffs))

    def _digitwise(self, a, b, sign):
        """a + sign * b on encodings, digit i as (a // q^i + sign * (b // q^i))
        mod q, for ints and numpy arrays alike; the inputs are never written."""
        q, out = self.q, 0
        for i in range(self.degree):
            p = q**i
            out += (a // p + sign * (b // p)) % q * p
        return out

    def add(self, a, b):
        return self._digitwise(a, b, 1)

    def sub(self, a, b):
        return self._digitwise(a, b, -1)

    def neg(self, a):
        return self._digitwise(0, a, -1)

    def inv(self, a):
        if a % self.size == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.size - 2)

    def _key(self):
        return type(self).__name__, self.q, self.degree, self.modulus

    def __eq__(self, other):
        return isinstance(other, _Field) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())

    def _build_tables(self):
        Q, q, d = self.size, self.q, self.degree
        if Q > DLOG_TABLE_CAP:  # pragma: no cover - beyond desk scale
            raise ResourceLimit(f"field size {Q} exceeds dlog table cap")
        # X[i] = M_x^i, whose trace mod q is Tr(x^i)
        X = np.empty((d, d, d), dtype=np.int64)
        X[0] = np.eye(d, dtype=np.int64)
        Mx = np.eye(d, k=1, dtype=np.int64)
        Mx[-1] = np.negative(self.modulus[:d]) % q
        for i in range(1, d):
            X[i] = X[i - 1] @ Mx % q
        digits = np.arange(Q, dtype=np.int64)
        tr = np.zeros(Q, dtype=np.int64)
        for i in range(d):
            tr += (digits // q**i % q) * int(np.trace(X[i]) % q)
        self.trace_vec = tr % q

        self.generator = self._find_generator()
        powers = q ** np.arange(d, dtype=np.int64)
        exp = np.empty(Q - 1, dtype=np.int64)
        exp[0] = 1
        n = 1
        M = np.tensordot(self.decode(self.generator), X, 1) % q  # M_g
        while n < Q - 1:
            m = min(n, Q - 1 - n)
            exp[n:n + m] = (exp[:m, None] // powers % q) @ M % q @ powers
            n += m
            M = M @ M % q
        self.exp_table = exp
        log = np.full(Q, -1, dtype=np.int64)
        log[exp] = np.arange(Q - 1)
        self.log_table = log
        # psi(x) = e(Tr x / q) from the angle reduced to (-q/2, q/2]; powers
        # of one root e(1/q) would lose digits linearly in the trace
        t = np.arange(q)
        t[t > q // 2] -= q
        self.psi_vec = np.exp(2j * np.pi * t / q)[self.trace_vec]

    def _find_generator(self):
        L = self.size - 1
        primes = _factor(L)
        for g in range(1, self.size):
            if all(self.pow(g, L // p) != 1 for p in primes):
                return g
        raise RuntimeError("no generator found")  # pragma: no cover


class PrimeField(_Field):
    """F_q for an odd prime q, with generator/dlog and character tables."""

    def __init__(self, q: int):
        if q < 3:
            raise TooSmall(f"q = {q}: need an odd prime >= 3")
        if not is_prime(q):
            raise CompositeModulus(f"q = {q} is not prime")
        self.q = q
        self.degree = 1
        self.size = q
        self.modulus = (0, 1)  # the polynomial x
        self._build_tables()

    def mul(self, a, b):
        return a * b % self.q

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.q)
        return pow(a, e, self.q)

    add_vec, mul_vec = _Field.add, mul

    def __repr__(self):
        return f"PrimeField(q={self.q})"


class ExtField(_Field):
    """F_{q^d} as polynomials modulo a fixed monic irreducible of degree d."""

    def __init__(self, base: PrimeField, d: int):
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        self.q = base.q
        self.degree = d
        self.size = base.q**d
        self.modulus = _smallest_irreducible(base.q, d)
        self._add_table = None
        self._mul_table = None
        self._build_tables()

    # scalar arithmetic on encodings -------------------------------------
    def mul(self, a, b):
        pa = list(self.decode(a))
        pb = list(self.decode(b))
        _poly_trim(pa)
        _poly_trim(pb)
        return self.encode(_poly_mulmod(pa, pb, list(self.modulus), self.q) + [0] * self.degree)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        pa = list(self.decode(a))
        _poly_trim(pa)
        return self.encode(_poly_powmod(pa, e, list(self.modulus), self.q) + [0] * self.degree)

    def add_table(self):
        """Dense Q x Q int16 addition table (encodings); built lazily as a
        Kronecker sum over the digits, with no division per cell."""
        if self._add_table is None:
            Q, q = self.size, self.q
            if Q > PAIR_TABLE_CAP:
                raise ResourceLimit(f"add table needs Q <= {PAIR_TABLE_CAP}, got {Q}")
            ids = np.arange(q, dtype=np.int16)
            digit, tab = (ids[:, None] + ids) % q, np.zeros((1, 1), dtype=np.int16)
            for i in range(self.degree):  # digit i on top of the digits below it
                n = len(tab)
                tab = (digit[:, None, :, None] * q**i + tab[None, :, None]).reshape(q * n, q * n)
            self._add_table = tab
        return self._add_table

    def mul_table(self):
        """Dense Q x Q int16 multiplication table; built lazily by scattering
        g^i g^j = g^(i+j), the Hankel view of the doubled exp table, to the
        cells (g^i, g^j), with no Q x Q index array or gathered copy."""
        if self._mul_table is None:
            Q = self.size
            if Q > PAIR_TABLE_CAP:
                raise ResourceLimit(f"mul table needs Q <= {PAIR_TABLE_CAP}, got {Q}")
            exp = self.exp_table
            exp2 = np.concatenate([exp, exp], dtype=np.int16)
            tab = np.zeros((Q, Q), dtype=np.int16)
            tab[np.ix_(exp, exp)] = sliding_window_view(exp2, Q - 1)[:Q - 1]
            self._mul_table = tab
        return self._mul_table

    def add_vec(self, a, b):
        return self._gather(self.add_table(), a, b)

    def mul_vec(self, a, b):
        return self._gather(self.mul_table(), a, b)

    def _gather(self, tab, a, b):
        # one flat gather at a Q + b in intp: two-index gathers, and int16
        # indices, take numpy's slower paths
        return tab.ravel()[np.multiply(a, self.size, dtype=np.intp) + b]

    def __repr__(self):
        return f"ExtField(q={self.q}, d={self.degree}, modulus={self.modulus})"


@lru_cache(maxsize=None)
def _smallest_irreducible(q: int, d: int):
    """Monic irreducible of degree d with smallest non-leading encoding."""
    if d == 1:
        return (0, 1)
    for tail in range(q**d):
        coeffs = [(tail // q**i) % q for i in range(d)] + [1]
        if _is_irreducible(coeffs, q, d):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


def finite_field(q: int, d: int):
    """F_q for d = 1, else F_{q^d} over it, modulo ``_smallest_irreducible``."""
    base = PrimeField(q)
    return base if d == 1 else ExtField(base, d)


def make_prime_field(q: int) -> PrimeField:
    return PrimeField(q)


def build_extension(f: PrimeField, d: int) -> ExtField:
    return ExtField(f, d)


def roots_of_unity(field, k: int):
    """All solutions of z^k = 1 in the field, ascending by encoding.

    These form the subgroup of order gcd(k, q^d - 1).
    """
    L = field.size - 1
    m = math.gcd(k, L)
    step = L // m
    zs = sorted(int(field.exp_table[(j * step) % L]) for j in range(m))
    return zs
