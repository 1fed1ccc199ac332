"""Exact arithmetic in F_q for prime and small prime-power q.

Elements are integer indices in [0, q) encoding coefficient vectors
(c_0, ..., c_{k-1}) of the quotient ring F_p[x]/(modulus) as sum(c_i * p^i).
All arithmetic goes through tables built once at construction, so exhaustive
loops over the whole field stay allocation-free.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


class DomainError(ValueError):
    """Precondition violation: bad construction data or invalid operand."""


# q -> (p, k, modulus), modulus ascending (c0, ..., ck) with leading 1.
BUILTIN_MODULI = {
    4: (2, 2, (1, 1, 1)),         # x^2 + x + 1
    8: (2, 3, (1, 1, 0, 1)),      # x^3 + x + 1
    9: (3, 2, (1, 0, 1)),         # x^2 + 1
    16: (2, 4, (1, 1, 0, 0, 1)),  # x^4 + x + 1
    25: (5, 2, (2, 0, 1)),        # x^2 + 2
    27: (3, 3, (1, 2, 0, 1)),     # x^3 + 2x + 1
}


def is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def factor_prime_power(q):
    """Split q into (p, k) with p prime, or raise DomainError."""
    if q < 2:
        raise DomainError(f"field size must be >= 2, got {q}")
    p = 2
    while q % p:
        p += 1
    k = 0
    m = q
    while m > 1:
        if m % p:
            raise DomainError(f"{q} is not a prime power")
        m //= p
        k += 1
    return p, k


def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mod(a, m, p):
    """Remainder of a by monic m, coefficients ascending, over F_p."""
    a = list(a)
    dm = len(m) - 1
    while len(_poly_trim(a)) - 1 >= dm:
        a = _poly_trim(a)
        shift = len(a) - 1 - dm
        lead = a[-1]
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * c) % p
    return _poly_trim(a)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _is_irreducible(modulus, p):
    """Irreducibility over F_p: root scan for deg <= 3, trial division above."""
    deg = len(modulus) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    if deg <= 3:
        for x in range(p):
            acc = 0
            for c in reversed(modulus):
                acc = (acc * x + c) % p
            if acc == 0:
                return False
        return True
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            g = list(tail) + [1]
            if not _poly_mod(modulus, g, p):
                return False
    return True


class Field:
    """The finite field F_q, q = p^k, with table-driven exact arithmetic."""

    def __init__(self, q=None, *, p=None, k=None, modulus=None):
        if q is None:
            if p is None or k is None:
                raise DomainError("give q, or both p and k")
            q = p**k
        pp, kk = factor_prime_power(q)
        if p is not None and p != pp:
            raise DomainError(f"q={q} has characteristic {pp}, not {p}")
        if k is not None and k != kk:
            raise DomainError(f"q={q} has extension degree {kk}, not {k}")
        p, k = pp, kk
        if not is_prime(p):
            raise DomainError(f"characteristic {p} is not prime")

        if k == 1:
            if modulus is not None:
                raise DomainError("prime field takes no modulus")
            self.modulus = None
        else:
            if modulus is None:
                if q not in BUILTIN_MODULI:
                    raise DomainError(
                        f"no built-in modulus for q={q}; pass one explicitly")
                modulus = BUILTIN_MODULI[q][2]
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) == k:
                modulus = modulus + (1,)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise DomainError(
                    f"modulus must be monic of degree {k} over F_{p}")
            if not _is_irreducible(modulus, p):
                raise DomainError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus

        self.p = p
        self.k = k
        self.q = q
        self._build_tables()

    # -- construction ------------------------------------------------------

    def _vec(self, i):
        return tuple((i // self.p**j) % self.p for j in range(self.k))

    def _idx(self, vec):
        return sum(c * self.p**j for j, c in enumerate(vec))

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        add = np.zeros((q, q), dtype=np.int16)
        mul = np.zeros((q, q), dtype=np.int16)
        for i in range(q):
            vi = self._vec(i)
            for j in range(i, q):
                vj = self._vec(j)
                s = self._idx(tuple((a + b) % p for a, b in zip(vi, vj)))
                add[i, j] = add[j, i] = s
                if k == 1:
                    m = (i * j) % p
                else:
                    prod = _poly_mul(list(vi), list(vj), p)
                    rem = _poly_mod(prod, list(self.modulus), p)
                    m = self._idx(tuple(rem) + (0,) * (k - len(rem)))
                mul[i, j] = mul[j, i] = m
        self.np_add = add
        self.np_mul = mul
        neg = np.zeros(q, dtype=np.int16)
        for i in range(q):
            neg[i] = self._idx(tuple((-c) % p for c in self._vec(i)))
        self.np_neg = neg
        self.np_sub = add[:, neg]
        inv = np.zeros(q, dtype=np.int16)
        for i in range(1, q):
            for j in range(1, q):
                if mul[i, j] == 1:
                    inv[i] = j
                    break
            else:
                raise DomainError(f"element {i} has no inverse; bad modulus")
        self.np_inv = inv

        # Tr(x) = sum of x^{p^i}; lands in the prime subfield, index < p.
        trace = np.zeros(q, dtype=np.int16)
        for i in range(q):
            acc = 0
            x = i
            for _ in range(k):
                acc = int(add[acc, x])
                x = self._pow_int(x, p)
            trace[i] = acc
        self.np_trace = trace
        self.np_chi = np.exp(2j * math.pi * trace.astype(np.float64) / p)
        self._squares = frozenset(int(mul[i, i]) for i in range(q))

    def _pow_int(self, x, e):
        out = 1
        base = x
        while e:
            if e & 1:
                out = int(self.np_mul[out, base])
            base = int(self.np_mul[base, base])
            e >>= 1
        return out

    # -- scalar index arithmetic -------------------------------------------

    def add(self, i, j):
        return int(self.np_add[i, j])

    def sub(self, i, j):
        return int(self.np_sub[i, j])

    def mul(self, i, j):
        return int(self.np_mul[i, j])

    def neg(self, i):
        return int(self.np_neg[i])

    def inv(self, i):
        if i == 0:
            raise DomainError("inversion of zero")
        return int(self.np_inv[i])

    def pow(self, i, e):
        if e < 0:
            return self._pow_int(self.inv(i), -e)
        return self._pow_int(i, e)

    def trace_int(self, i):
        return int(self.np_trace[i])

    def chi(self, i):
        """Nontrivial additive character exp(2*pi*i*Tr(x)/p)."""
        return complex(self.np_chi[i])

    def is_square(self, i):
        if self.q % 2 == 0:
            raise DomainError("is_square needs odd q: every element of "
                              "characteristic-2 fields is a square")
        return i in self._squares

    def squares(self):
        return self._squares

    def nonsquare(self):
        """Smallest-index nonsquare (q odd)."""
        for i in range(self.q):
            if not self.is_square(i):
                return self.element(i)
        raise DomainError("no nonsquare exists")

    # -- element interface ---------------------------------------------------

    def element(self, i):
        if isinstance(i, FieldElement):
            if i.field is not self and i.field != self:
                raise DomainError("element belongs to a different field")
            return i
        i = int(i)
        if not 0 <= i < self.q:
            raise DomainError(f"index {i} outside [0, {self.q})")
        return FieldElement(self, i)

    def __call__(self, i):
        return self.element(i)

    @property
    def zero(self):
        return FieldElement(self, 0)

    @property
    def one(self):
        return FieldElement(self, 1)

    def elements(self):
        """All q elements in index order."""
        return [FieldElement(self, i) for i in range(self.q)]

    def __iter__(self):
        return iter(self.elements())

    def coerce_index(self, x):
        """Accept a FieldElement of this field or a plain index, return int."""
        if isinstance(x, FieldElement):
            if x.field != self:
                raise DomainError("mixing elements of different fields")
            return x.index
        i = int(x)
        if not 0 <= i < self.q:
            raise DomainError(f"index {i} outside [0, {self.q})")
        return i

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field)
                and self.p == other.p and self.k == other.k
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"Field({self.q})"
        return f"Field({self.q}, modulus={list(self.modulus)})"


# (field, key) -> value; keyed by field equality, so equal fields built
# apart share every entry.  No size limit: the entries are the per-field
# index and phase tables, each built once per process.
_FIELD_TABLES = {}


def field_table(field, key, build):
    """build(field), computed once per (field, key) and cached.

    Every ndarray in the value, whether the value itself or a member of a
    tuple, is made read-only, because all callers share it.
    """
    try:
        return _FIELD_TABLES[field, key]
    except KeyError:
        pass
    value = build(field)
    for part in value if isinstance(value, tuple) else (value,):
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
    _FIELD_TABLES[field, key] = value
    return value


class FieldElement:
    """An element of F_q: an index plus a reference to its Field."""

    __slots__ = ("field", "index")

    def __init__(self, field, index):
        self.field = field
        self.index = index

    def _other(self, x):
        if isinstance(x, FieldElement):
            if x.field != self.field:
                raise DomainError("mixing elements of different fields")
            return x.index
        return self.field.coerce_index(x)

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.index, self._other(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.index, self._other(other)))

    def __rsub__(self, other):
        return FieldElement(self.field, self.field.sub(self._other(other), self.index))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.index, self._other(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.index))

    def __truediv__(self, other):
        j = self._other(other)
        return FieldElement(self.field, self.field.mul(self.index, self.field.inv(j)))

    def __pow__(self, e):
        return FieldElement(self.field, self.field.pow(self.index, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.index))

    def trace(self):
        """Tr_{F_q/F_p}, returned as the prime-subfield element."""
        return FieldElement(self.field, self.field.trace_int(self.index))

    def chi(self):
        return self.field.chi(self.index)

    def is_square(self):
        return self.field.is_square(self.index)

    def is_zero(self):
        return self.index == 0

    def __int__(self):
        return self.index

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.index == other.index
        if isinstance(other, int):
            return self.index == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field.q, self.index))

    def __repr__(self):
        return f"F{self.field.q}({self.index})"
