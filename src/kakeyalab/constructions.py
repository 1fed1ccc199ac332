"""Extremal test functions, Kakeya-set predicates, separating examples,
the mu-slice machinery, and the set-size / moment report generators.

Everything here works over explicit point sets; the exponent-certifying
arithmetic is done in exact integers (Python bigints) so no tolerance is
involved in the lower-bound certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import DomainError, field_table
from . import heisenberg as hz
from .maximal import (INF, Domain, GridFunction, VerifyReport,
                      _HEIS_TERMS, _REFINED_TERMS, affine_incidence,
                      exponent, exponent_Ard, heis_max_op, lp_norm, q_pow,
                      rd_upper_constant, recip, refined_incidence,
                      refined_max_op, REL_TOL)


# ---------------------------------------------------------------------------
# point sets


class PointSet:
    """A subset of a Domain's points, stored as a bitset over the enumeration."""

    __slots__ = ("domain", "mask")

    def __init__(self, domain, indices):
        mask = np.zeros(domain.size, dtype=bool)
        if isinstance(indices, np.ndarray) and indices.ndim == 1 \
                and indices.dtype.kind in "iu":
            # an integer index array is checked and marked as a whole
            outside = indices[(indices < 0) | (indices >= domain.size)]
            if outside.size:
                raise DomainError(
                    f"point index {outside[0]} outside the domain")
            mask[indices] = True
        else:
            for i in indices:
                mask[hz.check_point_index(domain.size, i)] = True
        mask.flags.writeable = False
        self.domain = domain
        self.mask = mask

    @classmethod
    def from_mask(cls, domain, mask):
        ps = cls.__new__(cls)
        mask = np.asarray(mask, dtype=bool).copy()
        if mask.shape != (domain.size,):
            raise DomainError("mask size does not match the domain")
        mask.flags.writeable = False
        ps.domain = domain
        ps.mask = mask
        return ps

    @classmethod
    def full(cls, domain):
        return cls.from_mask(domain, np.ones(domain.size, dtype=bool))

    @property
    def indices(self):
        return [int(i) for i in np.flatnonzero(self.mask)]

    def indicator(self):
        return GridFunction(self.domain, self.mask.astype(np.int64))

    def __len__(self):
        return int(self.mask.sum())

    def __eq__(self, other):
        return (isinstance(other, PointSet) and self.domain == other.domain
                and bool((self.mask == other.mask).all()))

    def __repr__(self):
        return f"PointSet({self.domain.kind}, q={self.domain.field.q}, |E|={len(self)})"


# ---------------------------------------------------------------------------
# extremal sets and functions


EXTREMAL_KINDS = ("point-mass", "single-line", "bush", "two-lines-blocking",
                  "constant", "paraboloid")


def extremal_set(kind, field, n=1, *, eta=None):
    """The support of a named extremal test function, as a PointSet.

    Every set sits at the origin and is built directly as point indices
    (row-major, t fastest).
    """
    domain = Domain.heisenberg(field, n)
    q = field.q
    if kind == "point-mass":
        return PointSet(domain, [0])
    if kind == "single-line":
        v = hz.enumerate_projective_directions(field, n)[0]
        return PointSet(domain, hz.line_table_for_direction(field, v)[0])
    if kind == "bush":
        # the plane t = 0: each (z, 0) with z != 0 lies on the line through
        # the origin in direction [z]
        return PointSet(domain, np.arange(q ** (2 * n)) * q)
    if kind == "two-lines-blocking":
        if n != 1:
            raise DomainError("the blocking example lives in H_1")
        s = np.arange(q)   # the lines {y = 0} and {x = 0} through the origin
        return PointSet(domain, np.concatenate([s * q * q, s * q]))
    if kind == "constant":
        return PointSet.full(domain)
    if kind == "paraboloid":
        if n != 1:
            raise DomainError("the paraboloid example lives in H_1")
        if field.q % 2 == 0:
            raise DomainError("paraboloid graph needs odd q")
        # The graph of x^2 + eta y^2 blocks every horizontal line at <= 2
        # points iff the form is anisotropic, i.e. -eta is a nonsquare.
        # (For q = 1 mod 4 that is the same as eta being a nonsquare; for
        # q = 3 mod 4 it forces eta to be a nonzero square instead.)
        square = np.zeros(q, dtype=bool)
        square[field.np_mul.diagonal()] = True
        if eta is None:
            eta_i = next(e for e in range(1, q) if not square[field.np_neg[e]])
        else:
            eta_i = field.coerce_index(eta)
        if eta_i == 0 or square[field.np_neg[eta_i]]:
            raise DomainError(
                f"eta={eta_i} makes x^2 + eta y^2 isotropic; the graph then "
                "contains horizontal lines")
        x, y = np.ogrid[:q, :q]
        mul = field.np_mul
        t = field.np_add[mul[x, x], mul[eta_i, mul[y, y]]]
        return PointSet(domain, ((x * q + y) * q + t).ravel())
    raise DomainError(f"unknown extremal kind {kind!r}")


# ---------------------------------------------------------------------------
# exponent-term lower bounds


@dataclass
class LowerBoundReport:
    """Exact evidence that one exponent-formula term is forced."""

    kind: str
    operator: str
    q: int
    n: int
    u: Fraction | float     # an exponent(): a Fraction, or math.inf
    v: Fraction | float
    ratio: float            # |op F|_v / |F|_u
    term: Fraction          # the exponent term this test function certifies
    certified_constant: float  # ratio >= certified_constant * q^term
    cert_holds: bool        # verified in exact integer arithmetic
    op_norm_pow: int        # sum of op-values^v (or max when v = inf)
    support: int


def _exact_pow_sum(vals, v):
    """sum vals^v (exact ints) for finite integer v; max for v = inf."""
    if v == INF:
        return max(int(x) for x in vals)
    if v.denominator != 1:
        raise DomainError("exact certificates need integer or inf exponents")
    return sum(int(x) ** int(v) for x in vals)


def _cert_inequality(A, B, q, term, u, v, two_power):
    """Exact check of A^(1/v) 2^(two/u) >= q^term B^(1/u) via bigints.

    A = sum op^v (or max for v=inf, taken to the power 1), B = sum |F|^u =
    support (or 1 for u=inf, where 1/u = 0); two_power carries the blocking
    example's factor 2^{1/u}.  Both sides are raised to the lcm of the
    exponents' denominators, and a negative power of q moves to the left.
    """
    a = 1 if v == INF else recip(v)
    b = recip(u)
    L = math.lcm(a.denominator, b.denominator, term.denominator)
    a, b, e = int(a * L), int(b * L), int(term * L)
    lhs = A**a * 2 ** (two_power * b) * q ** max(-e, 0)
    return lhs >= q ** max(e, 0) * B**b


def _extremal_op_values(kind, field, n, operator):
    """Exact integer operator values of a named indicator, cached per field."""
    def build(f):
        F = extremal_set(kind, f, n).indicator()
        vals = refined_max_op(F) if operator == "refined" else heis_max_op(F)
        return np.rint(np.real(vals)).astype(np.int64), int(F.values.sum())

    return field_table(field, ("extremal-op-values", n, kind, operator), build)


# The closed form of each _extremal_op_values, keyed by (operator, kind):
# n -> ({value: count}, support size).  Each is a polynomial in q, its
# integer coefficients lowest degree first; P = 1 + q + ... + q^(2n-1).
EXTREMAL_PROFILES = {
    ("heis", "point-mass"): lambda n: ({(1,): (1,) * 2 * n}, (1,)),
    ("heis", "single-line"):
        lambda n: ({(0, 1): (1,), (1,): (0,) + (1,) * (2 * n - 1)}, (0, 1)),
    ("heis", "bush"): lambda n: ({(0, 1): (1,) * 2 * n}, (0,) * 2 * n + (1,)),
    ("refined", "point-mass"):
        lambda n: ({(1,): (1, 1), (0,): (-1, 0, 1)}, (1,)),
    ("refined", "single-line"):
        lambda n: ({(0, 1): (1,), (1,): (0, 0, 1), (0,): (-1, 1)}, (0, 1)),
    ("refined", "two-lines-blocking"):
        lambda n: ({(0, 1): (2,), (1,): (-2, 1, 1)}, (-1, 2)),
    ("refined", "constant"): lambda n: ({(0, 1): (0, 1, 1)}, (0, 0, 0, 1)),
}


def _at(poly, q):
    return sum(c * q**i for i, c in enumerate(poly))


def _deg(poly):
    return max(i for i, c in enumerate(poly) if c)


def profile_at(operator, kind, n, q):
    """The closed-form {operator value: count} and support size at q."""
    hist, support = EXTREMAL_PROFILES[operator, kind](n)
    return {_at(v, q): _at(c, q) for v, c in hist.items()}, _at(support, q)


def profile_degree(operator, kind, n, u, v):
    """The exact leading degree in q of lower_bound_ratio's ratio, a
    Fraction: max over nonzero values of deg(count)/v + deg(value), less
    deg(support)/u."""
    hist, support = EXTREMAL_PROFILES[operator, kind](n)
    ru, rv = recip(u), recip(v)
    return max(_deg(c) * rv + _deg(val) for val, c in hist.items()
               if any(val)) - _deg(support) * ru


def lower_bound_ratio(kind, field, u, v, *, n=1, operator="refined"):
    """Evaluate a designated test function and certify its exponent term.

    The certificate replays the lower-bound arithmetic exactly: operator
    values on indicators are integers, norms are v-th/u-th powers of
    integers, and the comparison is done with bigints.  Only the blocking
    example carries a constant below 1 (its support is 2q-1, bounded by 2q).
    """
    u, v = exponent(u), exponent(v)
    terms = _REFINED_TERMS if operator == "refined" else _HEIS_TERMS
    if kind not in terms:
        raise DomainError(f"{kind!r} does not certify a term of the "
                          f"{operator} exponent formula")
    if operator == "refined" and n != 1:
        raise DomainError("refined terms live at n=1")
    opvals, support_size = _extremal_op_values(kind, field, n, operator)
    term = terms[kind](n, recip(u), recip(v))
    q = field.q

    if u == INF:
        unorm = 1.0  # indicator functions have sup norm 1
    else:
        unorm = support_size ** (1.0 / float(u))
    ratio = lp_norm(opvals.astype(np.float64), v) / unorm
    A = _exact_pow_sum(opvals, v)
    B = 1 if u == INF else support_size
    two_power = 0
    cert_c = 1.0
    if kind == "two-lines-blocking" and u != INF:
        # |B| = 2q - 1 <= 2q, so the certified constant is 2^(-1/u)
        two_power = 1
        cert_c = 2.0 ** (-float(recip(u)))
    cert = _cert_inequality(A, B, q, term, u, v, two_power)
    return LowerBoundReport(kind, operator, q, n, u, v, float(ratio), term,
                            cert_c, bool(cert), A, support_size)


# ---------------------------------------------------------------------------
# Kakeya predicates


def is_affine_kakeya(ps):
    """Does the set contain a full affine line in every ambient direction?

    Returns (answer, witness) where witness is the rep tuple of the first
    missing direction or None.  The blocks are built and reduced one
    direction at a time, up to the first missing one, so no table-sized
    array is built.
    """
    if ps.domain.kind != "affine":
        raise DomainError("affine Kakeya predicate needs an affine point set")
    dirs, table = affine_incidence(ps.domain.field, ps.domain.n)
    for v, block in zip(dirs, table):
        if not ps.mask[block].all(axis=1).any():
            return False, tuple(v.tolist())
    return True, None


def _holds_a_line(mask, table):
    """Per direction of an (m, lines, q) index table: does mask hold one of
    its lines whole?  An AND of mask.take over the q columns of the table,
    so no table-sized gather is built."""
    inside = mask.take(table[..., 0])
    for x in range(1, table.shape[2]):
        inside &= mask.take(table[..., x])
    return inside.any(axis=1)


def is_full_refined_kakeya(ps):
    """Does the set contain a horizontal line of every refined direction?

    Returns (answer, witness) as is_affine_kakeya does.
    """
    if ps.domain.kind != "heisenberg" or ps.domain.n != 1:
        raise DomainError("refined Kakeya predicate lives on H_1")
    dirs, table = refined_incidence(ps.domain.field)
    missing = np.flatnonzero(~_holds_a_line(ps.mask, table))
    if missing.size:
        return False, tuple(dirs[missing[0]].tolist())
    return True, None


def as_affine_set(ps):
    """Reinterpret an H_1 point set inside F_q^3 (same point enumeration)."""
    if ps.domain.kind != "heisenberg" or ps.domain.n != 1:
        raise DomainError("only H_1 sets embed into F_q^3 here")
    return PointSet.from_mask(Domain.affine(ps.domain.field, 3), ps.mask)


# ---------------------------------------------------------------------------
# the two separating examples


def example_affine_not_refined(field, rep):
    """Remove the vertical fiber every line of refined direction rep must
    cross: the one over its normal base, (0, -c) for [1:m:c] and (c, 0) for
    [0:1:c].

    The result is affine Kakeya in F_q^3 but misses refined direction rep
    entirely.
    """
    a, _, c = hz.check_refined_rep(field, rep)
    gx, gy = (0, int(field.np_neg[c])) if a == 1 else (c, 0)
    q = field.q
    mask = np.ones(q**3, dtype=bool)
    mask.reshape(q * q, q)[gx * q + gy] = False   # the fiber over (gx, gy)
    return PointSet.from_mask(Domain.heisenberg(field, 1), mask)


def example_refined_not_affine(field):
    """One deliberately bent line per refined direction.

    The union is full refined-direction Kakeya but its vertical fibers
    have size at most (q+3)/2 < q, so no vertical affine line fits.
    """
    q = field.q
    if q % 2 == 0 or q <= 3:
        raise DomainError("this example needs odd q > 3")
    mul = field.np_mul.astype(np.int64)
    mask = np.zeros(q**3, dtype=bool)
    # slope chart [1:m:g]: the bent line (x, mx - g, m^2 + gx)
    m, g, x = np.ogrid[:q, :q, :q]
    y = field.np_sub[mul[m, x], g]
    t = field.np_add[mul[m, m], mul[g, x]]
    mask[((x * q + y) * q + t).ravel()] = True
    # vertical chart [0:1:g]: the line (g, y, gy)
    g, y = np.ogrid[:q, :q]
    mask[((g * q + y) * q + mul[g, y]).ravel()] = True
    return PointSet.from_mask(Domain.heisenberg(field, 1), mask)


def vertical_fiber_sizes(ps):
    """|{t : (x0, y0, t) in E}| for each (x0, y0), as a (q, q) array."""
    q = ps.domain.field.q
    return ps.mask.reshape(q * q, q).sum(axis=1).reshape(q, q)


# ---------------------------------------------------------------------------
# mu parameter and straightening


def mu_parameter(field, rep, x0, y0):
    """mu of the F_q^3 lines in direction rep = [a:b:c] over (x0, y0):
    c - (x0.b - y0.a), the central slope less the horizontal t-slope at the
    base; gamma - (m x0 - y0) in the slope chart, gamma - x0 in the vertical
    one.  Zero exactly on horizontal lines, and constant along each line.
    Every argument is a field index or an index array (they broadcast); an
    int comes back when all are scalars."""
    if len(rep) != 3:
        raise DomainError("mu is defined for lines of F_q^3")
    a, b, c, x0, y0 = coords = [np.asarray(v) for v in (*rep, x0, y0)]
    if any(v.dtype.kind not in "iu" or ((v < 0) | (v >= field.q)).any()
           for v in coords):
        raise DomainError("mu takes field indices")
    if ((a == 0) & (b == 0)).any():
        raise DomainError("vertical lines carry no mu parameter")
    mu = field.np_sub[c, hz._twist(field, (a, b), (x0, y0))]
    return int(mu) if mu.ndim == 0 else mu


def straighten(ps, k, chart):
    """Shear a point set of H_1 or F_q^3 by (x,y,t) -> (x,y,t-kx) ('slope')
    or (x,y,t-ky) ('vertical').

    Bijective; maps any line with mu = k in the matching chart to a
    horizontal line and shifts the direction's last coordinate by -k.
    """
    if not isinstance(ps, PointSet):
        raise DomainError(f"cannot straighten {type(ps).__name__}")
    field = ps.domain.field
    q = field.q
    if ps.domain.size != q**3:
        raise DomainError("straightening acts on H_1 and F_q^3")
    if chart not in ("slope", "vertical"):
        raise DomainError("chart must be 'slope' or 'vertical'")
    k = field.coerce_index(k)
    if k == 0:
        raise DomainError("straightening needs nonzero k")
    x, y, t = np.indices((q, q, q)).reshape(3, -1)
    t = field.np_sub[t, field.np_mul[k, x if chart == "slope" else y]]
    mask = np.empty_like(ps.mask)
    mask[(x * q + y) * q + t] = ps.mask
    return PointSet.from_mask(ps.domain, mask)


# ---------------------------------------------------------------------------
# the Omega partition and the set-size reports


@dataclass
class KakeyaReport:
    """Decomposition of the direction set by horizontality inside E.

    Directions are indices into enumerate_refined_directions(field, 1).
    """

    q: int
    size: int                    # |E|
    omega1: np.ndarray           # refined directions realized by lines in E
    omega2: np.ndarray           # the rest of D_1
    slices: dict                 # k (index in F_q^*) -> Omega_2 indices
    chosen_lines: dict           # index -> point indices of its chosen line
    unwitnessed: np.ndarray      # Omega_2 indices with no contained line
    max_values: np.ndarray       # M_E over D_1, enumeration order
    m: int                       # min of max_values
    omega1_bound: float          # q |Omega_1| / 25, the (2,2) size bound


def omega_partition(ps):
    """Split D_1 into horizontal-realized directions and the rest.

    Refined direction i is direction i of F_q^3, so the affine lines of a
    direction in Omega_2 are block i of affine_incidence(field, 3).  Of those
    contained in the set, the one of smallest mu (first in row order on ties)
    is chosen and kept as its row of q point indices; its mu is necessarily
    nonzero and indexes the straightening slice the direction joins.  The
    blocks are read one direction at a time, and each keeps only its
    containment row, its mu row and its chosen line.
    """
    if ps.domain.kind != "heisenberg" or ps.domain.n != 1:
        raise DomainError("the partition is defined for H_1 sets")
    field = ps.domain.field
    q = field.q
    dirs, table = refined_incidence(field)
    contained = _holds_a_line(ps.mask, table)
    omega1 = np.flatnonzero(contained)
    omega2 = np.flatnonzero(~contained)

    _, blocks = affine_incidence(field, 3)
    witnessed = np.zeros(len(omega2), dtype=bool)
    mu, lines = [], []
    for k, i in enumerate(omega2):
        block = blocks[i]
        inside = ps.mask[block].all(axis=1)
        if not inside.any():
            continue
        bases = block[:, 0]
        mus = mu_parameter(field, dirs[i], bases // (q * q), bases // q % q)
        best = np.where(inside, mus, q).argmin()
        witnessed[k] = True
        mu.append(mus[best])
        lines.append(block[best].copy())  # a view would keep the block
    mu = np.array(mu, dtype=np.intp)
    if (mu == 0).any():
        raise AssertionError("a non-horizontal direction produced mu = 0")
    chosen = omega2[witnessed]

    mvals = refined_max_op(ps.indicator())
    return KakeyaReport(
        q=q, size=len(ps), omega1=omega1, omega2=omega2,
        slices={int(k): chosen[mu == k] for k in np.unique(mu)},
        chosen_lines=dict(zip(chosen.tolist(), lines)),
        unwitnessed=omega2[~witnessed],
        max_values=mvals, m=int(mvals.min()),
        omega1_bound=q * len(omega1) / 25.0,
    )


def kakeya_bound_report(ps, omega, m, u, v, tol=REL_TOL):
    """|E| >= C^{-u} m^u |Omega|^{u/v} q^{-u A^rd(u,v)}, C from the upper bound.

    omega holds distinct indices into enumerate_refined_directions(field, 1).
    Precondition (checked): every direction in omega is witnessed by a
    horizontal line meeting E in at least m points.
    """
    u, v = exponent(u), exponent(v)
    if u == INF:
        raise DomainError("the size bound needs finite u")
    field = ps.domain.field
    dirs, _ = refined_incidence(field)
    omega = np.asarray(omega)
    if omega.ndim != 1 or (omega.size and omega.dtype.kind not in "iu") \
            or ((omega < 0) | (omega >= len(dirs))).any():
        raise DomainError("omega must list indices into D_1")
    omega = omega.astype(np.intp)
    if len(np.unique(omega)) != len(omega):  # |Omega| counts each once
        raise DomainError("omega lists a direction twice")
    mvals = refined_max_op(ps.indicator())
    weak = omega[mvals[omega] < m]
    if weak.size:
        raise DomainError(f"direction {hz.direction_label(dirs[weak[0]])} "
                          f"has no witnessing line with >= {m} points")
    C = rd_upper_constant(u, v)
    uu = float(u)
    omega_pow = 1.0 if v == INF else len(omega) ** (uu / float(v))
    rhs = (C ** -uu) * (m ** uu) * omega_pow \
        * q_pow(field.q, -u * exponent_Ard(u, v))
    lhs = float(len(ps))
    return VerifyReport("kakeya-size-bound", field.q, 1, u, v, lhs, rhs,
                        lhs * (1 + tol) >= rhs, sense="ge", constant_used=C)


def moment_report(ps, s, tol=REL_TOL):
    """sum_omega M_E(omega)^s <= C_s q |E|^{s-1} with C_s from the (s', s) bound."""
    s = exponent(s)
    if s == INF or s < 2:
        raise DomainError("moment bound needs 2 <= s < infinity")
    field = ps.domain.field
    ss = float(s)
    mvals = np.abs(refined_max_op(ps.indicator()))
    lhs = float((mvals**ss).sum())
    u_dual = s / (s - 1)
    C_s = rd_upper_constant(u_dual, s) ** ss
    rhs = C_s * field.q * float(len(ps)) ** (ss - 1)
    return VerifyReport(f"moment-s={s}", field.q, 1, u_dual, s, lhs, rhs,
                        lhs <= rhs * (1 + tol), constant_used=C_s)
