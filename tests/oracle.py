"""The definitional oracle: points and lines of H_n(F_q) and F_q^d as objects.

A point of H_n is (x, y, t) under the group law
(x,y,t)(x',y',t') = (x+x', y+y', t+t'+(x.y'-y.x')); a horizontal line is
its q points p.(sa, sb, 0); an affine line of F_q^d is {base + s v}.  Each
is built by the field operations alone, one point at a time.  kakeyalab
itself works on rows of point indices; the tests compare those rows, row
for row and column for column, with the objects built here.

Point indices are row-major with the last coordinate fastest: for H_n,
t fastest, then the y block, then the x block.
"""

from __future__ import annotations

from itertools import product

from kakeyalab.field import DomainError
from kakeyalab.heisenberg import (ProjectiveDirection, RefinedDirection,
                                  enumerate_directions,
                                  enumerate_projective_directions)


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
        self.field = field
        self.n = len(x)
        self.x = x
        self.y = y
        self.t = field.coerce_index(t)

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
        f = self.field
        x = tuple(f.add(a, b) for a, b in zip(self.x, other.x))
        y = tuple(f.add(a, b) for a, b in zip(self.y, other.y))
        twist = 0
        for xi, yi, xpi, ypi in zip(self.x, self.y, other.x, other.y):
            twist = f.add(twist, f.sub(f.mul(xi, ypi), f.mul(yi, xpi)))
        t = f.add(f.add(self.t, other.t), twist)
        return HPoint(self.field, x, y, t)

    def inverse(self):
        f = self.field
        return HPoint(f, tuple(f.neg(c) for c in self.x),
                      tuple(f.neg(c) for c in self.y), f.neg(self.t))

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
        pts = []
        for s in range(f.q):
            step = tuple(f.mul(s, c) for c in direction.rep)
            pts.append(base * HPoint(f, step[:n], step[n:], 0))
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
        return self.field.sub(self.points[1].t, self.points[0].t)

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
        pts = []
        for s in range(field.q):
            pts.append(tuple(field.add(c, field.mul(s, v))
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
