"""Extremal test functions, Kakeya-set predicates, separating examples,
the mu-slice machinery, and the set-size / moment report generators.

Everything here works over explicit point sets; the exponent-certifying
arithmetic is done in exact integers (Python bigints) so no tolerance is
involved in the lower-bound certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import DomainError, Field, FieldElement, field_table
from . import heisenberg as hz
from .maximal import (Domain, ExtendedExponent, GridFunction, VerifyReport,
                      affine_incidence, as_exponent, exponent_Ard,
                      heis_max_op, lp_norm, q_pow, rd_upper_constant,
                      refined_incidence, refined_max_op, REL_TOL)


# ---------------------------------------------------------------------------
# point sets


class PointSet:
    """A subset of a Domain's points, stored as a bitset over the enumeration."""

    __slots__ = ("domain", "mask")

    def __init__(self, domain, indices):
        mask = np.zeros(domain.size, dtype=bool)
        for i in indices:
            if not 0 <= i < domain.size:
                raise DomainError(f"point index {i} outside the domain")
            mask[i] = True
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
    def from_points(cls, domain, points):
        return cls(domain, (domain.point_index(p) for p in points))

    @classmethod
    def full(cls, domain):
        return cls.from_mask(domain, np.ones(domain.size, dtype=bool))

    @property
    def indices(self):
        return [int(i) for i in np.flatnonzero(self.mask)]

    def indicator(self):
        return GridFunction(self.domain, self.mask.astype(np.int64))

    def complement(self):
        return PointSet.from_mask(self.domain, ~self.mask)

    def contains_line(self, line):
        return bool(self.mask[list(line.point_indices)].all())

    def __contains__(self, point):
        return bool(self.mask[self.domain.point_index(point)])

    def __len__(self):
        return int(self.mask.sum())

    def __eq__(self, other):
        return (isinstance(other, PointSet) and self.domain == other.domain
                and bool((self.mask == other.mask).all()))

    def __repr__(self):
        return f"PointSet({self.domain.kind}, q={self.domain.field.q}, |E|={len(self)})"


def pointset_to_json(ps):
    f = ps.domain.field
    doc = {
        "domain": ps.domain.kind,
        "q": f.q,
        "modulus": list(f.modulus) if f.modulus else None,
        "points": ps.indices,
    }
    if ps.domain.kind == "heisenberg":
        doc["n"] = ps.domain.n
    else:
        doc["d"] = ps.domain.n
    return doc


def pointset_from_json(doc):
    try:
        fld = Field(int(doc["q"]), modulus=doc.get("modulus"))
        if doc["domain"] == "heisenberg":
            domain = Domain.heisenberg(fld, int(doc.get("n", 1)))
        elif doc["domain"] == "affine":
            domain = Domain.affine(fld, int(doc["d"]))
        else:
            raise DomainError(f"unknown domain kind {doc['domain']!r}")
        return PointSet(domain, (int(i) for i in doc["points"]))
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed point-set document: {exc}") from exc


# ---------------------------------------------------------------------------
# extremal sets and functions


EXTREMAL_KINDS = ("point-mass", "single-line", "bush", "two-lines-blocking",
                  "constant", "paraboloid")


def extremal_set(kind, field, n=1, *, point=None, eta=None):
    """The support of a named extremal test function, as a PointSet."""
    domain = Domain.heisenberg(field, n)
    if kind == "point-mass":
        p = point or hz.HPoint.origin(field, n)
        return PointSet(domain, [p.index])
    if kind == "single-line":
        p = point or hz.HPoint.origin(field, n)
        v = hz.enumerate_projective_directions(field, n)[0]
        return PointSet(domain, hz.horizontal_line(p, v).point_indices)
    if kind == "bush":
        p = point or hz.HPoint.origin(field, n)
        idx = set()
        for line in hz.lines_through_point(p):
            idx.update(line.point_indices)
        return PointSet(domain, idx)
    if kind == "two-lines-blocking":
        if n != 1:
            raise DomainError("the blocking example lives in H_1")
        q = field.q
        idx = set()
        for x in range(q):
            idx.add(hz.HPoint(field, x, 0, 0).index)   # l1 = {y = 0}
            idx.add(hz.HPoint(field, 0, x, 0).index)   # l2 = {x = 0}
        return PointSet(domain, idx)
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
        if eta is None:
            eta_i = next(e for e in range(1, field.q)
                         if not field.is_square(field.neg(e)))
        else:
            eta_i = field.coerce_index(eta)
        if eta_i == 0 or field.is_square(field.neg(eta_i)):
            raise DomainError(
                f"eta={eta_i} makes x^2 + eta y^2 isotropic; the graph then "
                "contains horizontal lines")
        idx = []
        for x in range(field.q):
            for y in range(field.q):
                t = field.add(field.mul(x, x), field.mul(eta_i, field.mul(y, y)))
                idx.append(hz.HPoint(field, x, y, t).index)
        return PointSet(domain, idx)
    raise DomainError(f"unknown extremal kind {kind!r}")


def extremal_function(kind, field, n=1, **kw):
    """Indicator grid function of the named extremal set (integer-valued)."""
    return extremal_set(kind, field, n, **kw).indicator()


# ---------------------------------------------------------------------------
# exponent-term lower bounds


_HEIS_TERMS = {
    "point-mass": lambda n, ru, rv: (2 * n - 1) * rv,
    "single-line": lambda n, ru, rv: 1 - ru,
    "bush": lambda n, ru, rv: 1 + (2 * n - 1) * rv - 2 * n * ru,
}

_REFINED_TERMS = {
    "point-mass": lambda n, ru, rv: rv,
    "single-line": lambda n, ru, rv: 1 - ru,
    "two-lines-blocking": lambda n, ru, rv: 2 * rv - ru,
    "constant": lambda n, ru, rv: 1 + 2 * rv - 3 * ru,
}


@dataclass
class LowerBoundReport:
    """Exact evidence that one exponent-formula term is forced."""

    kind: str
    operator: str
    q: int
    n: int
    u: ExtendedExponent
    v: ExtendedExponent
    ratio: float            # |op F|_v / |F|_u
    term: Fraction          # the exponent term this test function certifies
    certified_constant: float  # ratio >= certified_constant * q^term
    cert_holds: bool        # verified in exact integer arithmetic
    op_norm_pow: int        # sum of op-values^v (or max when v = inf)
    support: int


def _exact_pow_sum(vals, v):
    """sum vals^v (exact ints) for finite integer v; max for v = inf."""
    if v.is_inf:
        return max(int(x) for x in vals)
    e = v.value
    if e.denominator != 1:
        raise DomainError("exact certificates need integer or inf exponents")
    return sum(int(x) ** int(e) for x in vals)


def _cert_inequality(A, B, q, term, u, v, two_power):
    """Exact check of A^(1/v) >= 2^(-two) q^term B^(1/u) via bigints.

    A = sum op^v (or max for v=inf), B = sum |F|^u = support (or 1 for
    u=inf); two_power carries the blocking example's factor 2^{1/u}.
    """
    if u.is_inf and v.is_inf:
        e = term
        if e.denominator != 1:
            raise DomainError("non-integer exponent at (inf, inf)")
        return A >= q ** int(e)
    if u.is_inf:
        e = term * int(v.value)
        if e.denominator != 1:
            raise DomainError("exponent does not clear at u=inf")
        return A >= q ** int(e)
    uu = int(u.value)
    if u.value.denominator != 1:
        raise DomainError("exact certificates need integer u")
    if v.is_inf:
        e = term * uu
        if e.denominator != 1:
            raise DomainError("exponent does not clear at v=inf")
        return A**uu * 2**two_power >= q ** int(e) * B
    vv = int(v.value)
    e = term * uu * vv
    if e.denominator != 1:
        raise DomainError("exponent does not clear")
    return A**uu * 2 ** (two_power * vv) >= q ** int(e) * B**vv


def _extremal_op_values(kind, field, n, operator):
    """Exact integer operator values of a named indicator, cached per field."""
    def build(f):
        F = extremal_function(kind, f, n)
        vals = refined_max_op(F) if operator == "refined" else heis_max_op(F)
        return np.rint(np.real(vals)).astype(np.int64), int(F.values.sum())

    return field_table(field, ("extremal-op-values", n, kind, operator), build)


def lower_bound_ratio(kind, field, u, v, *, n=1, operator="refined"):
    """Evaluate a designated test function and certify its exponent term.

    The certificate replays the lower-bound arithmetic exactly: operator
    values on indicators are integers, norms are v-th/u-th powers of
    integers, and the comparison is done with bigints.  Only the blocking
    example carries a constant below 1 (its support is 2q-1, bounded by 2q).
    """
    u, v = as_exponent(u), as_exponent(v)
    terms = _REFINED_TERMS if operator == "refined" else _HEIS_TERMS
    if kind not in terms:
        raise DomainError(f"{kind!r} does not certify a term of the "
                          f"{operator} exponent formula")
    if operator == "refined" and n != 1:
        raise DomainError("refined terms live at n=1")
    opvals, support_size = _extremal_op_values(kind, field, n, operator)
    term = terms[kind](n, u.recip, v.recip)
    q = field.q

    if u.is_inf:
        unorm = 1.0  # indicator functions have sup norm 1
    else:
        unorm = support_size ** (1.0 / float(u.value))
    ratio = lp_norm(opvals.astype(np.float64), v) / unorm
    A = _exact_pow_sum(opvals, v)
    B = 1 if u.is_inf else support_size
    two_power = 0
    cert_c = 1.0
    if kind == "two-lines-blocking" and not u.is_inf:
        # |B| = 2q - 1 <= 2q, so the certified constant is 2^(-1/u)
        two_power = 1
        cert_c = 2.0 ** (-float(u.recip))
    cert = _cert_inequality(A, B, q, term, u, v, two_power)
    return LowerBoundReport(kind, operator, q, n, u, v, float(ratio), term,
                            cert_c, bool(cert), A, support_size)


# ---------------------------------------------------------------------------
# Kakeya predicates


def is_affine_kakeya(ps):
    """Does the set contain a full affine line in every ambient direction?

    Returns (answer, witness) where witness is a missing direction or None.
    """
    if ps.domain.kind != "affine":
        raise DomainError("affine Kakeya predicate needs an affine point set")
    dirs, table = affine_incidence(ps.domain.field, ps.domain.n)
    contained = ps.mask[table].all(axis=2).any(axis=1)
    for i, ok in enumerate(contained):
        if not ok:
            return False, dirs[i]
    return True, None


def is_full_refined_kakeya(ps):
    """Does the set contain a horizontal line of every refined direction?"""
    if ps.domain.kind != "heisenberg" or ps.domain.n != 1:
        raise DomainError("refined Kakeya predicate lives on H_1")
    dirs, table = refined_incidence(ps.domain.field)
    contained = ps.mask[table].all(axis=2).any(axis=1)
    for i, ok in enumerate(contained):
        if not ok:
            return False, dirs[i]
    return True, None


def as_affine_set(ps):
    """Reinterpret an H_1 point set inside F_q^3 (same point enumeration)."""
    if ps.domain.kind != "heisenberg" or ps.domain.n != 1:
        raise DomainError("only H_1 sets embed into F_q^3 here")
    return PointSet.from_mask(Domain.affine(ps.domain.field, 3), ps.mask)


# ---------------------------------------------------------------------------
# the two separating examples


def example_affine_not_refined(omega0):
    """Remove the vertical fiber every omega0-line must cross.

    The result is affine Kakeya in F_q^3 but misses refined direction
    omega0 entirely.
    """
    field = omega0.field
    chart = omega0.chart()
    if chart[0] == "slope":
        gx, gy = 0, field.neg(chart[2])
    else:
        gx, gy = chart[1], 0
    domain = Domain.heisenberg(field, 1)
    mask = np.ones(domain.size, dtype=bool)
    for t in range(field.q):
        mask[hz.HPoint(field, gx, gy, t).index] = False
    return PointSet.from_mask(domain, mask)


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


def mu_parameter(line):
    """Non-horizontality parameter of a non-vertical affine line in F_q^3.

    Zero exactly when the line is horizontal; independent of the basepoint.
    """
    if not isinstance(line, hz.AffineLine) or line.d != 3:
        raise DomainError("mu is defined for affine lines in F_q^3")
    field = line.field
    a, b, c = line.direction.rep
    if a == 0 and b == 0:
        raise DomainError("vertical lines carry no mu parameter")
    x0, y0, _ = line.base
    if a == 1:
        g, m = c, b
        mu = field.sub(g, field.sub(field.mul(m, x0), y0))
    else:  # canonical [0:1:gamma]
        mu = field.sub(c, x0)
    return FieldElement(field, mu)


def straighten(obj, k, chart):
    """Shear (x,y,t) -> (x,y,t-kx) ('slope') or (x,y,t-ky) ('vertical').

    Bijective on H_1; maps any line with mu = k in the matching chart to a
    horizontal line and shifts the direction's last coordinate by -k.
    """
    if chart not in ("slope", "vertical"):
        raise DomainError("chart must be 'slope' or 'vertical'")

    def move(field, x, y, t):
        shear = field.mul(k_i, x if chart == "slope" else y)
        return x, y, field.sub(t, shear)

    if isinstance(obj, hz.HPoint):
        field = obj.field
        k_i = field.coerce_index(k)
        if k_i == 0:
            raise DomainError("straightening needs nonzero k")
        if obj.n != 1:
            raise DomainError("straightening acts on H_1")
        return hz.HPoint(field, *move(field, obj.x[0], obj.y[0], obj.t))
    if isinstance(obj, hz.AffineLine):
        field = obj.field
        k_i = field.coerce_index(k)
        if k_i == 0:
            raise DomainError("straightening needs nonzero k")
        if obj.d != 3:
            raise DomainError("straightening acts on F_q^3")
        base = move(field, *obj.base)
        a, b, c = obj.direction.rep
        shift = field.mul(k_i, a if chart == "slope" else b)
        return hz.AffineLine(field, base, (a, b, field.sub(c, shift)))
    if isinstance(obj, PointSet):
        field = obj.domain.field
        k_i = field.coerce_index(k)
        if k_i == 0:
            raise DomainError("straightening needs nonzero k")
        q = field.q
        if obj.domain.size != q**3:
            raise DomainError("straightening acts on H_1 / F_q^3 sets")
        out = []
        for idx in np.flatnonzero(obj.mask):
            idx = int(idx)
            t = idx % q
            y = (idx // q) % q
            x = idx // (q * q)
            x, y, t = move(field, x, y, t)
            out.append((x * q + y) * q + t)
        return PointSet(obj.domain, out)
    raise DomainError(f"cannot straighten {type(obj).__name__}")


# ---------------------------------------------------------------------------
# the Omega partition and the set-size reports


@dataclass
class KakeyaReport:
    """Decomposition of the direction set by horizontality inside E."""

    q: int
    size: int                    # |E|
    omega1: list                 # refined directions realized by lines in E
    omega2: list                 # the rest of D_1
    slices: dict                 # k (index in F_q^*) -> list of omega in Omega_2
    chosen_lines: dict           # omega -> chosen contained affine line
    unwitnessed: list            # omega in Omega_2 with no contained line
    max_values: np.ndarray       # M_E over D_1, enumeration order
    m: int                       # min of max_values
    omega1_bound: float          # q |Omega_1| / 25, the (2,2) size bound


def omega_partition(ps, selection=None):
    """Split D_1 into horizontal-realized directions and the rest.

    For each direction in Omega_2, a contained affine Kakeya line is chosen
    (smallest mu index, then enumeration order) unless `selection` maps the
    direction to an explicit line; its mu value is necessarily nonzero and
    indexes the straightening slice the direction joins.
    """
    if ps.domain.kind != "heisenberg" or ps.domain.n != 1:
        raise DomainError("the partition is defined for H_1 sets")
    field = ps.domain.field
    dirs, table = refined_incidence(field)
    contained = ps.mask[table].all(axis=2).any(axis=1)
    omega1 = [om for om, ok in zip(dirs, contained) if ok]
    omega2 = [om for om, ok in zip(dirs, contained) if not ok]

    affine_ps = as_affine_set(ps)
    slices = {}
    chosen = {}
    unwitnessed = []
    for om in omega2:
        if selection is not None and om in selection:
            line = selection[om]
            if not affine_ps.contains_line(line):
                raise DomainError(f"selected line for {om} is not inside E")
            if hz.ProjectiveDirection(field, om.rep) != line.direction:
                raise DomainError(f"selected line for {om} has wrong direction")
        else:
            line = _best_contained_line(affine_ps, om)
        if line is None:
            unwitnessed.append(om)
            continue
        mu = mu_parameter(line).index
        chosen[om] = line
        slices.setdefault(mu, []).append(om)
    if 0 in slices:
        raise AssertionError("a non-horizontal direction produced mu = 0")

    mvals = refined_max_op(ps.indicator())
    return KakeyaReport(
        q=field.q, size=len(ps), omega1=omega1, omega2=omega2,
        slices=slices, chosen_lines=chosen, unwitnessed=unwitnessed,
        max_values=mvals, m=int(mvals.min()),
        omega1_bound=field.q * len(omega1) / 25.0,
    )


def _best_contained_line(affine_ps, omega):
    """The contained affine line of direction omega with the smallest mu,
    first in row order on ties; None when no line fits."""
    field = affine_ps.domain.field
    vdir = hz.ProjectiveDirection(field, omega.rep)
    dirs, table = affine_incidence(field, 3)
    rows = table[dirs.index(vdir)]
    best = None
    best_mu = None
    for r in np.flatnonzero(affine_ps.mask[rows].all(axis=1)):
        base = hz.affine_point_from_index(field, 3, int(rows[r, 0]))
        line = hz.AffineLine(field, base, vdir)
        mu = mu_parameter(line).index
        if best is None or mu < best_mu:
            best, best_mu = line, mu
    return best


def kakeya_bound_report(ps, omega, m, u, v, tol=REL_TOL):
    """|E| >= C^{-u} m^u |Omega|^{u/v} q^{-u A^rd(u,v)}, C from the upper bound.

    Precondition (checked): every direction in omega is witnessed by a
    horizontal line meeting E in at least m points.
    """
    u, v = as_exponent(u), as_exponent(v)
    if u.is_inf:
        raise DomainError("the size bound needs finite u")
    field = ps.domain.field
    dirs, _ = refined_incidence(field)
    pos = {om: i for i, om in enumerate(dirs)}
    mvals = refined_max_op(ps.indicator())
    for om in omega:
        if mvals[pos[om]] < m:
            raise DomainError(
                f"direction {om} has no witnessing line with >= {m} points")
    C = rd_upper_constant(u, v)
    uu = float(u.value)
    count = len(list(omega))
    omega_pow = 1.0 if v.is_inf else count ** (uu / float(v.value))
    rhs = (C ** -uu) * (m ** uu) * omega_pow \
        * q_pow(field.q, -u.value * exponent_Ard(u, v))
    lhs = float(len(ps))
    return VerifyReport("kakeya-size-bound", field.q, 1, u, v, lhs, rhs,
                        lhs * (1 + tol) >= rhs, sense="ge", constant_used=C)


def moment_report(ps, s, tol=REL_TOL):
    """sum_omega M_E(omega)^s <= C_s q |E|^{s-1} with C_s from the (s', s) bound."""
    s = as_exponent(s)
    if s.is_inf or s.value < 2:
        raise DomainError("moment bound needs 2 <= s < infinity")
    field = ps.domain.field
    ss = float(s.value)
    mvals = np.abs(refined_max_op(ps.indicator()))
    lhs = float((mvals**ss).sum())
    u_dual = s.value / (s.value - 1)
    C_s = rd_upper_constant(u_dual, s) ** ss
    rhs = C_s * field.q * float(len(ps)) ** (ss - 1)
    return VerifyReport(f"moment-s={s}", field.q, 1,
                        ExtendedExponent(u_dual), s, lhs, rhs,
                        lhs <= rhs * (1 + tol), constant_used=C_s)
