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


# The desk scale: every per-field table is dense in q (the int16 ones wrap
# above 32767), so a q read from a flag or a file is refused above this
# before any trial division or allocation.
MAX_Q = 32

# The desk scale of a domain: the H_2 point count at MAX_Q.  A rank or an
# affine dimension read from a flag or a file is refused when q^(2n+1) or
# q^d would exceed it, before that power is computed.
MAX_POINTS = MAX_Q ** 5


def factor_prime_power(q):
    """Split q into (p, k) with p prime, or raise DomainError."""
    if q < 2:
        raise DomainError(f"field size must be >= 2, got {q}")
    if q > MAX_Q:
        raise DomainError(f"field size {q} exceeds the desk scale q <= {MAX_Q}")
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
    """The finite field F_q, q = p^k, as its arithmetic tables.

    np_add, np_sub and np_mul are (q, q) and np_neg, np_inv, np_trace and
    np_chi are (q,), all indexed by field index; they are the one
    arithmetic API.  np_inv[0] is 0, and np_chi is the additive character
    exp(2 pi i Tr(x) / p).
    """

    def __init__(self, q, *, modulus=None):
        p, k = factor_prime_power(q)
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

        # Tr(x) = x + x^p + ... + x^(p^(k-1)), by table lookups over all of
        # F_q at once; it lands in the prime subfield, index < p.
        elems = np.arange(q)
        frobenius = elems
        for _ in range(p - 1):
            frobenius = mul[frobenius, elems]   # x^p
        trace = np.zeros(q, dtype=np.int16)
        power = elems
        for _ in range(k):
            trace = add[trace, power]
            power = frobenius[power]
        self.np_trace = trace
        self.np_chi = np.exp(2j * math.pi * trace.astype(np.float64) / p)

    # -- input -------------------------------------------------------------

    def coerce_index(self, x):
        """A plain index of this field as an int; DomainError if x is not
        a Python or numpy integer (bool included) or lies outside [0, q)."""
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise DomainError(f"field index must be an integer, got {x!r}")
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


# (field, key) -> value for one field at a time: a verify task reads the
# tables of its one field, so field_table drops every entry before it builds
# one for another field.  Keyed by field equality, so equal fields built
# apart share every entry.
_FIELD_TABLES = {}


def _arrays(value):
    """The ndarrays of a cached value: the value itself or its tuple's."""
    return [part for part in (value if isinstance(value, tuple) else (value,))
            if isinstance(part, np.ndarray)]


def field_table(field, key, build):
    """build(field), computed once per (field, key) while it stays cached.

    A miss for another field than the cached one first drops every entry,
    then builds; a dropped entry is built again when next asked for.  A
    nested build for the same field (heis1_incidence reads
    refined_incidence) keeps the field's entries.  Every ndarray in the
    value, whether the value itself or a member of a tuple, is made
    read-only, because all callers share it.
    """
    try:
        return _FIELD_TABLES[field, key]
    except KeyError:
        pass
    if any(f != field for f, _ in _FIELD_TABLES):
        _FIELD_TABLES.clear()
    value = build(field)
    for part in _arrays(value):
        part.flags.writeable = False
    _FIELD_TABLES[field, key] = value
    return value
