"""The definitional oracle: field arithmetic, points, directions and lines
of H_n(F_q) and F_q^d as objects, and the Fourier components one frequency
at a time.

The field arithmetic is polynomial arithmetic mod the modulus, built from
the field's p, k and modulus alone; kakeyalab's np_* tables are checked
against it and never read by it.  A point of H_n is (x, y, t) under the
group law (x,y,t)(x',y',t') = (x+x', y+y', t+t'+(x.y'-y.x')); a horizontal
line is its q points p.(sa, sb, 0); an affine line of F_q^d is
{base + s v}.  Each is built by that arithmetic alone, one point at a time.
A direction is a projective class held as its canonical representative,
scaled by the field's inverse.  kakeyalab itself works on rows of point
indices and of field indices; the tests compare those rows, row for row and
column for column, with the objects built here.

Public constructors check their coordinates once; group products and line
points are then plain index arithmetic over the oracle's list tables.

Point indices are row-major with the last coordinate fastest: for H_n,
t fastest, then the y block, then the x block.
"""

from __future__ import annotations

import functools
import math
from itertools import product

import numpy as np

from kakeyalab import fourier as fr
from kakeyalab.field import DomainError
from kakeyalab.maximal import Domain, GridFunction


# ---------------------------------------------------------------------------
# field arithmetic


class Arithmetic:
    """F_q = F_p[x]/(modulus), a prime field being F_p[x]/(x).

    Element i is the polynomial sum c_j x^j with i = sum c_j p^j, the
    encoding of kakeyalab.field.  Sums and products are worked on
    coefficient lists, reduced mod p and mod the modulus; add_table,
    sub_table and mul_table hold them as lists of lists.
    """

    def __init__(self, field):
        p, k = field.p, field.k
        modulus = field.modulus or (0, 1)
        q = p ** k
        coeffs = [[(i // p**j) % p for j in range(k)] for i in range(q)]

        def index(c):
            return sum((cj % p) * p**j for j, cj in enumerate(c))

        def times(a, b):
            prod = [0] * (2 * k - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
            for d in range(2 * k - 2, k - 1, -1):  # x^d -= lead x^(d-k) m(x)
                lead = prod[d]
                for j, mj in enumerate(modulus):
                    prod[d - k + j] -= lead * mj
            return index(prod[:k])

        self.q = q
        self.add_table = [[index(map(int.__add__, a, b)) for b in coeffs]
                          for a in coeffs]
        self.sub_table = [[index(map(int.__sub__, a, b)) for b in coeffs]
                          for a in coeffs]
        self.mul_table = [[times(a, b) for b in coeffs] for a in coeffs]
        self.neg_table = [index(-c for c in a) for a in coeffs]
        self.inv_table = [None] + [row.index(1) for row in self.mul_table[1:]]
        # Tr(x) = x + x^p + ... + x^(p^(k-1))
        self.trace_table = []
        for a in range(q):
            acc = 0
            for i in range(k):
                acc = self.add(acc, self.pow(a, p**i))
            self.trace_table.append(acc)
        self.chi_table = [complex(z) for z in np.exp(
            2j * math.pi * np.array(self.trace_table, dtype=np.float64) / p)]

    def add(self, a, b):
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.sub_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def inv(self, a):
        if a == 0:
            raise DomainError("inversion of zero")
        return self.inv_table[a]

    def pow(self, a, e):
        """a^e by e products; a negative e inverts first."""
        if e < 0:
            a, e = self.inv(a), -e
        out = 1
        for _ in range(e):
            out = self.mul_table[out][a]
        return out

    def trace_int(self, a):
        return self.trace_table[a]

    def chi(self, a):
        """The additive character exp(2 pi i Tr(a) / p)."""
        return self.chi_table[a]

    def squares(self):
        return frozenset(self.mul_table[a][a] for a in range(self.q))

    def is_square(self, a):
        if self.q % 2 == 0:
            raise DomainError("is_square needs odd q: every element of "
                              "characteristic-2 fields is a square")
        return a in self.squares()


@functools.lru_cache(maxsize=None)
def arithmetic(field):
    """The Arithmetic of field, built once per equal field."""
    return Arithmetic(field)


# ---------------------------------------------------------------------------
# directions


def canonical_direction(field, vec):
    """Scale so the first nonzero coordinate equals 1; DomainError on zero."""
    vec = tuple(field.coerce_index(c) for c in vec)
    ar = arithmetic(field)
    for c in vec:
        if c:
            s = ar.inv(c)
            return tuple(ar.mul(s, v) for v in vec)
    raise DomainError("zero vector has no projective class")


class ProjectiveDirection:
    """A projective class [v], stored as its canonical representative."""

    __slots__ = ("field", "rep")

    def __init__(self, field, vec):
        self.field = field
        self.rep = canonical_direction(field, vec)

    @property
    def dim(self):
        return len(self.rep)

    def __eq__(self, other):
        return (isinstance(other, ProjectiveDirection)
                and self.field == other.field and self.rep == other.rep)

    def __hash__(self):
        return hash((self.field.q, self.rep))

    def __repr__(self):
        return "[" + ":".join(map(str, self.rep)) + "]"


def enumerate_directions(field, d):
    """All (q^d - 1)/(q - 1) projective classes of P^{d-1}(F_q), in the
    order of heisenberg.enumerate_directions."""
    dirs = []
    for lead in range(d):
        for tail in product(range(field.q), repeat=d - 1 - lead):
            dirs.append(ProjectiveDirection(field, (0,) * lead + (1,) + tail))
    return dirs


def enumerate_projective_directions(field, n=1):
    """Horizontal directions of H_n: P^{2n-1}(F_q)."""
    return enumerate_directions(field, 2 * n)


class RefinedDirection:
    """A class [a:b:c] in D_n: spatial direction plus central slope.

    The vertical class [0:...:0:1] is excluded, so the canonical
    representative always has its leading 1 inside the (a, b) block.
    """

    __slots__ = ("field", "rep")

    def __init__(self, field, vec):
        vec = tuple(field.coerce_index(c) for c in vec)
        if len(vec) < 3 or len(vec) % 2 == 0:
            raise DomainError("refined direction needs 2n+1 coordinates")
        if not any(vec[:-1]):
            raise DomainError("the vertical class [0:...:0:1] is not a "
                              "refined direction")
        self.field = field
        self.rep = canonical_direction(field, vec)

    @property
    def n(self):
        return (len(self.rep) - 1) // 2

    @property
    def c(self):
        return self.rep[-1]

    def projective(self):
        return ProjectiveDirection(self.field, self.rep[:-1])

    def chart(self):
        """Normal-form chart, n=1 only: ('slope', m, gamma) or ('vertical', gamma)."""
        if self.n != 1:
            raise DomainError("charts are defined for n=1 only")
        a, b, c = self.rep
        if a == 1:
            return ("slope", b, c)
        return ("vertical", c)

    def normal_base(self):
        """(x, y) under the normal-form lines L_{omega,tau} (n=1): (0, -gamma)
        in the slope chart [1:m:gamma], (gamma, 0) in the vertical chart."""
        chart = self.chart()
        gamma = chart[-1]
        if chart[0] == "slope":
            return (0, arithmetic(self.field).neg(gamma))
        return (gamma, 0)

    def __eq__(self, other):
        return (isinstance(other, RefinedDirection)
                and self.field == other.field and self.rep == other.rep)

    def __hash__(self):
        return hash((self.field.q, self.rep, "rd"))

    def __repr__(self):
        return "[" + ":".join(map(str, self.rep)) + "]"


def enumerate_refined_directions(field, n=1):
    """All of D_n, fibered: for each projective direction, the q slopes c."""
    return [RefinedDirection(field, v.rep + (c,))
            for v in enumerate_projective_directions(field, n)
            for c in range(field.q)]


# ---------------------------------------------------------------------------
# points


class HPoint:
    """A point (x, y, t) of H_n(F_q), coordinates as field indices."""

    __slots__ = ("field", "n", "x", "y", "t")

    def __init__(self, field, x, y, t):
        x = tuple(field.coerce_index(c) for c in _as_seq(x))
        y = tuple(field.coerce_index(c) for c in _as_seq(y))
        if len(x) != len(y):
            raise DomainError("x and y blocks differ in length")
        self.field, self.n, self.x, self.y = field, len(x), x, y
        self.t = field.coerce_index(t)

    @classmethod
    def _of(cls, field, x, y, t):
        """The point of index tuples x, y and index t, already checked."""
        point = cls.__new__(cls)
        point.field, point.n, point.x, point.y, point.t = field, len(x), x, y, t
        return point

    @classmethod
    def origin(cls, field, n=1):
        return cls(field, (0,) * n, (0,) * n, 0)

    def _check_compatible(self, other):
        if not isinstance(other, HPoint):
            raise DomainError("expected an HPoint")
        if other.field != self.field or other.n != self.n:
            raise DomainError("points live in different ambient groups")

    def __mul__(self, other):
        """Group law (x,y,t)(x',y',t') = (x+x', y+y', t+t'+(x.y'-y.x'))."""
        self._check_compatible(other)
        return _group_product(arithmetic(self.field), self,
                              other.x, other.y, other.t)

    def inverse(self):
        neg = arithmetic(self.field).neg_table
        return HPoint._of(self.field, tuple(neg[c] for c in self.x),
                          tuple(neg[c] for c in self.y), neg[self.t])

    def project(self):
        """Drop t: the point (x, y) of F_q^{2n}."""
        return self.x + self.y

    @property
    def index(self):
        return affine_point_index(self.field, self.x + self.y + (self.t,))

    def __eq__(self, other):
        return (isinstance(other, HPoint) and self.field == other.field
                and self.x == other.x and self.y == other.y and self.t == other.t)

    def __hash__(self):
        return hash((self.field.q, self.x, self.y, self.t))

    def __repr__(self):
        if self.n == 1:
            return f"H({self.x[0]},{self.y[0]},{self.t})"
        return f"H({self.x},{self.y},{self.t})"


def _group_product(ar, p, x2, y2, t2):
    """p.(x2, y2, t2) by the group law, over ar's tables."""
    add, sub, mul = ar.add_table, ar.sub_table, ar.mul_table
    x = tuple(add[a][b] for a, b in zip(p.x, x2))
    y = tuple(add[a][b] for a, b in zip(p.y, y2))
    twist = 0
    for xi, yi, xpi, ypi in zip(p.x, p.y, x2, y2):
        twist = add[twist][sub[mul[xi][ypi]][mul[yi][xpi]]]
    return HPoint._of(p.field, x, y, add[add[p.t][t2]][twist])


def _as_seq(c):
    if isinstance(c, (tuple, list)):
        return c
    return (c,)


def enumerate_points(field, n=1):
    """All q^(2n+1) points in index order (t fastest, then y, then x)."""
    return [point_from_index(field, n, idx)
            for idx in range(field.q ** (2 * n + 1))]


def point_from_index(field, n, idx):
    """The point of H_n at idx: the point of F_q^{2n+1} at idx, as (x, y, t)."""
    c = affine_point_from_index(field, 2 * n + 1, idx)
    return HPoint(field, c[:n], c[n:2 * n], c[2 * n])


# ---------------------------------------------------------------------------
# horizontal lines


class HorizontalLine:
    """A right coset {p.(sa, sb, 0)}: always exactly q points."""

    __slots__ = ("field", "n", "base", "direction", "points", "_indices")

    def __init__(self, base, direction):
        if direction.dim != 2 * base.n:
            raise DomainError("direction dimension does not match ambient n")
        if direction.field != base.field:
            raise DomainError("direction and base use different fields")
        f = base.field
        n = base.n
        self.field = f
        self.n = n
        self.base = base
        self.direction = direction
        ar = arithmetic(f)
        pts = []
        for s in range(f.q):
            step = tuple(ar.mul_table[s][c] for c in direction.rep)
            pts.append(_group_product(ar, base, step[:n], step[n:], 0))
        self.points = tuple(pts)
        self._indices = None

    @property
    def point_indices(self):
        if self._indices is None:
            self._indices = tuple(p.index for p in self.points)
        return self._indices

    def t_slope(self):
        """c(L): the t step between consecutive points, x0.b - y0.a by the
        group law, independent of the chosen basepoint."""
        return arithmetic(self.field).sub(self.points[1].t, self.points[0].t)

    def refined_direction(self):
        return RefinedDirection(self.field,
                                self.direction.rep + (self.t_slope(),))

    def tau(self):
        """Normal-form offset (n=1): the t of the point over the normal base,
        so that the line is L_{omega,tau} for its refined direction omega."""
        base = self.refined_direction().normal_base()
        return next(p.t for p in self.points if p.project() == base)

    def __contains__(self, p):
        return p in self.points

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return (isinstance(other, HorizontalLine)
                and self.field == other.field
                and set(self.point_indices) == set(other.point_indices))

    def __hash__(self):
        return hash((self.field.q, frozenset(self.point_indices)))

    def __repr__(self):
        return f"Line(base={self.base}, dir={self.direction})"


def lines_with_refined_direction(omega):
    """The q pairwise-disjoint lines of refined direction omega (n=1).

    Indexed by tau: L_{[1:m:g],tau} = {(x, mx-g, tau+gx)} and
    L_{[0:1:g],tau} = {(g, y, tau+gy)}.
    """
    x, y = omega.normal_base()
    v = omega.projective()
    return [HorizontalLine(HPoint(omega.field, x, y, tau), v)
            for tau in range(omega.field.q)]


def _partition(total, line_at):
    """The lines line_at(idx) through each point idx in range(total) that no
    earlier line covers: the parallel class of one direction, in index order."""
    seen = bytearray(total)
    out = []
    for idx in range(total):
        if not seen[idx]:
            out.append(line_at(idx))
            for j in out[-1].point_indices:
                seen[j] = 1
    return out


def lines_with_direction(field, n, v):
    """The q^{2n} disjoint lines of projective direction v, partitioning H_n."""
    return _partition(field.q ** (2 * n + 1), lambda idx: HorizontalLine(
        point_from_index(field, n, idx), v))


def lines_through_point(p):
    """One line per projective direction: q+1 lines for n=1."""
    return [HorizontalLine(p, v)
            for v in enumerate_projective_directions(p.field, p.n)]


def all_horizontal_lines(field, n=1):
    out = []
    for v in enumerate_projective_directions(field, n):
        out.extend(lines_with_direction(field, n, v))
    return out


def contains_line(ps, line):
    """Whether the PointSet ps holds every point of line."""
    return bool(ps.mask[list(line.point_indices)].all())


# ---------------------------------------------------------------------------
# affine lines in F_q^d


def enumerate_affine_points(field, d):
    """All q^d points of F_q^d, row-major with the last coordinate fastest."""
    return list(product(range(field.q), repeat=d))


def affine_point_index(field, pt):
    idx = 0
    for c in pt:
        idx = idx * field.q + c
    return idx


def affine_point_from_index(field, d, idx):
    q = field.q
    coords = []
    for _ in range(d):
        coords.append(idx % q)
        idx //= q
    return tuple(reversed(coords))


class AffineLine:
    """An affine line {base + s v} of F_q^d as an explicit q-point set."""

    __slots__ = ("field", "d", "base", "direction", "points", "_indices")

    def __init__(self, field, base, direction):
        base = tuple(field.coerce_index(c) for c in base)
        if not isinstance(direction, ProjectiveDirection):
            direction = ProjectiveDirection(field, direction)
        if direction.dim != len(base):
            raise DomainError("direction dimension does not match the point")
        self.field = field
        self.d = len(base)
        self.base = base
        self.direction = direction
        ar = arithmetic(field)
        add, mul = ar.add_table, ar.mul_table
        pts = []
        for s in range(field.q):
            pts.append(tuple(add[c][mul[s][v]]
                             for c, v in zip(base, direction.rep)))
        self.points = tuple(pts)
        self._indices = None

    @property
    def point_indices(self):
        if self._indices is None:
            self._indices = tuple(affine_point_index(self.field, p)
                                  for p in self.points)
        return self._indices

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return (isinstance(other, AffineLine) and self.field == other.field
                and self.d == other.d
                and set(self.points) == set(other.points))

    def __hash__(self):
        return hash((self.field.q, self.d, frozenset(self.points)))

    def __repr__(self):
        return f"AffineLine(base={self.base}, dir={self.direction})"


def affine_lines_with_direction(field, d, v):
    """The q^{d-1} parallel lines of direction v, partitioning F_q^d."""
    return _partition(field.q**d, lambda idx: AffineLine(
        field, affine_point_from_index(field, d, idx), v))


def all_affine_lines(field, d):
    out = []
    for v in enumerate_directions(field, d):
        out.extend(affine_lines_with_direction(field, d, v))
    return out


def planar_line_of(omega):
    """The affine line l_omega = {bx - ay = c} in F_q^2 (n=1).

    The map omega -> l_omega is a bijection from D_1 onto all affine lines.
    """
    return AffineLine(omega.field, omega.normal_base(), omega.projective())


def as_affine_line(line):
    """View a horizontal line of H_1 as an affine line of F_q^3."""
    if line.n != 1:
        raise DomainError("ambient affine view implemented for n=1")
    rd = line.refined_direction()
    base = (line.base.x[0], line.base.y[0], line.base.t)
    return AffineLine(line.field, base, ProjectiveDirection(line.field, rd.rep))


def project_line(line):
    """pi(L): the affine line of F_q^{2n} below a horizontal line."""
    f = line.field
    return AffineLine(f, line.base.project(), line.direction)


# ---------------------------------------------------------------------------
# the central Fourier transform, one frequency at a time (H_1)


def inverse_central_fourier(tab):
    """f(x,y,t) = (1/q) sum_xi f^(x,y;xi) chi(xi t)."""
    q = tab.field.q
    vals = (tab.table @ fr.chi_matrix(tab.field)) / q
    return GridFunction(Domain.heisenberg(tab.field, 1), vals.reshape(-1))


def _family_plane_and_t(family):
    """(plane index x*q + y, t) of each point of a refined family's lines."""
    if family.kind != "refined":
        raise DomainError("frequency components need a refined line family")
    q = family.field.q
    return family.point_idx // q, family.point_idx % q


def t_xi_component(f, xi, family):
    """(T_xi f)(omega) = (1/q) sum over L_omega of f^(x,y;xi) chi(xi t), the
    definition, summed along each line; fourier.t_components reads row xi
    off the U tables instead, so they agree to rounding."""
    field = f.field
    q = field.q
    xi = field.coerce_index(xi)
    xy_idx, t_idx = _family_plane_and_t(family)
    plane = fr.central_fourier(f).table[:, :, xi].reshape(-1)
    phases = field.np_chi[field.np_mul[xi][t_idx]]
    return (plane[xy_idx] * phases).sum(axis=1) / q


def g_rho(f, xi, rho):
    """G_rho(x) = sum_y f^(x,y;xi) chi(-(xi x - rho) y)."""
    field = f.field
    xi = field.coerce_index(xi)
    rho = field.coerce_index(rho)
    q = field.q
    xs = np.arange(q, dtype=np.int64)
    coeff = field.np_sub.astype(np.int64)[field.np_mul[xi][xs], rho]
    phases = np.conj(field.np_chi[
        field.np_mul.astype(np.int64)[coeff[:, None], xs[None, :]]])
    return (fr.central_fourier(f).table[:, :, xi] * phases).sum(axis=1)
