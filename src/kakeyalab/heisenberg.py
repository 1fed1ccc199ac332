"""The group H_n(F_q), horizontal lines, refined directions, and counting.

Points, directions and lines are immutable; coordinates are stored as field
indices (plain ints).  The point enumeration is row-major with t fastest,
then the y block, then the x block: the enumeration of F_q^{2n+1}.  The
line objects are the definitional oracle: a horizontal line is its q points
p.(sa, sb, 0) under the group law.  Bulk enumeration (all lines of a
direction at once) runs through index tables instead of objects; one coset
builder makes every such table, for H_n and F_q^d alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .field import DomainError


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
# directions


def canonical_direction(field, vec):
    """Scale so the first nonzero coordinate equals 1; DomainError on zero."""
    vec = tuple(field.coerce_index(c) for c in vec)
    for c in vec:
        if c:
            s = field.inv(c)
            return tuple(field.mul(s, v) for v in vec)
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
    """All (q^d - 1)/(q - 1) canonical representatives of P^{d-1}(F_q).

    Order: by position of the leading 1, then lexicographically in the free
    coordinates.
    """
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
        return (0, self.field.neg(gamma)) if chart[0] == "slope" else (gamma, 0)

    def __eq__(self, other):
        return (isinstance(other, RefinedDirection)
                and self.field == other.field and self.rep == other.rep)

    def __hash__(self):
        return hash((self.field.q, self.rep, "rd"))

    def __repr__(self):
        return "[" + ":".join(map(str, self.rep)) + "]"


def enumerate_refined_directions(field, n=1):
    """All of D_n, fibered: for each projective direction, the q slopes c."""
    out = []
    for v in enumerate_projective_directions(field, n):
        for c in range(field.q):
            out.append(RefinedDirection(field, v.rep + (c,)))
    return out


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


def _transversal_axes(q, rep):
    """The transversal {rep's leading coordinate = 0} as a broadcast grid:
    coordinate j indexes axis j, and the lead axis has length 1.  Every coset
    of direction rep crosses it once; its row-major order is the row order
    of every coset table."""
    lead = next(j for j, c in enumerate(rep) if c)
    d = len(rep)
    return [np.arange(1 if j == lead else q).reshape((-1,) + (1,) * (d - 1 - j))
            for j in range(d)]


def _twist(field, rep, xs):
    """x.b - y.a on the broadcast grid xs of (x, y): the t step per base."""
    mul, sub, add = field.np_mul, field.np_sub, field.np_add
    n = len(rep) // 2
    twist = 0
    for x, y, a, b in zip(xs[:n], xs[n:], rep[:n], rep[n:]):
        twist = add[twist, sub[mul[x, b], mul[y, a]]]
    return twist


def _coset_table(field, rep, horizontal=False):
    """(#rows, q) np.intp point indices of the cosets {base + s.step} of rep.

    The one builder behind every line and incidence table.  Rows run over
    the transversal where rep's leading coordinate vanishes; column s is the
    point at parameter s.  The step is rep itself (affine lines of F_q^d,
    d = len(rep)) or, when horizontal, rep followed by the per-row t step
    x.b - y.a (horizontal lines of H_n, 2n+1 = len(rep) + 1).  The table is
    a broadcast sum of one (base coordinate, s) table per coordinate.

    The dtype is numpy's native index width, so a gather values[table]
    indexes without first casting the table; only the F_q^3 incidence table
    narrows its copy to int32 (see maximal.affine_incidence).
    """
    q = field.q
    add = field.np_add.astype(np.intp)
    dim = len(rep) + 1 if horizontal else len(rep)
    xs = _transversal_axes(q, rep)
    tail = (1,) * (dim - len(rep) + 1)  # the t axis when horizontal, then s
    idx = 0
    for j, (x, c) in enumerate(zip(xs, rep)):
        term = add[x.reshape(x.shape + tail), field.np_mul[:, c]]
        idx = idx + term * q ** (dim - 1 - j)
    if horizontal:  # steps[k, t, s] = t + k.s, at each row's t step k
        steps = add[np.arange(q)[:, None], field.np_mul[:, None, :]]
        idx = idx + steps[_twist(field, rep, xs)]
    return idx.reshape(-1, q)


def line_table_for_direction(field, n, v):
    """(q^{2n}, q) np.intp table: point indices of every line of direction v.

    Row r holds the r-th coset in transversal order; column s is the point
    at parameter s, matching HorizontalLine's own parametrization.  The
    operators gather from it once per input, so it keeps the native index
    width of _coset_table: an int32 table would be cast on every gather.
    """
    return _coset_table(field, v.rep, horizontal=True)


def line_slope_table(field, n, v):
    """t-slope c(L) of each row of line_table_for_direction(field, n, v)."""
    twist = _twist(field, v.rep, _transversal_axes(field.q, v.rep))
    return np.repeat(twist.astype(np.int64).ravel(), field.q)


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class Census:
    q: int
    n: int
    points: int
    proj_directions: int
    refined_directions: int
    lines: int
    lines_per_direction: int
    lines_per_refined_direction: int
    lines_per_point: int


def census(field, n=1):
    """Counts by enumeration, cross-checked against the closed forms.

    Lines are enumerated direction by direction through the index tables;
    each direction's lines must partition H_n, every (direction, slope)
    class must be realized, and all counts must match the formulas.  The
    points counted are the distinct ones the first direction's lines cover.
    """
    q = field.q
    proj = enumerate_projective_directions(field, n)
    refined = enumerate_refined_directions(field, n)
    num_proj = (q ** (2 * n) - 1) // (q - 1)
    by_formula = Census(
        q=q, n=n,
        points=q ** (2 * n + 1),
        proj_directions=num_proj,
        refined_directions=q * num_proj,
        lines=q ** (2 * n) * num_proj,
        lines_per_direction=q ** (2 * n),
        lines_per_refined_direction=q ** (2 * n - 1),
        lines_per_point=num_proj,
    )

    whole = np.arange(q ** (2 * n + 1))
    points = None
    total_lines = 0
    per_dir_counts = set()
    per_refined_counts = set()
    realized_refined = 0
    for v in proj:
        table = line_table_for_direction(field, n, v)
        covered = np.sort(table, axis=None)
        if points is None:
            points = len(np.unique(covered))
        if not np.array_equal(covered, whole):
            raise AssertionError(f"lines of direction {v} do not partition")
        total_lines += table.shape[0]
        per_dir_counts.add(table.shape[0])
        slope_hist = np.bincount(line_slope_table(field, n, v), minlength=q)
        realized_refined += int((slope_hist > 0).sum())
        per_refined_counts.update(int(c) for c in slope_hist)
    origin = HPoint.origin(field, n)
    by_enum = Census(
        q=q, n=n,
        points=points,
        proj_directions=len(set(proj)),
        refined_directions=len(set(refined)),
        lines=total_lines,
        lines_per_direction=(per_dir_counts.pop()
                             if len(per_dir_counts) == 1 else -1),
        lines_per_refined_direction=(per_refined_counts.pop()
                                     if len(per_refined_counts) == 1 else -1),
        lines_per_point=len(lines_through_point(origin)),
    )
    if realized_refined != len(refined):
        raise AssertionError("some refined direction is not realized")
    if by_enum != by_formula:
        raise AssertionError(f"census mismatch: {by_enum} != {by_formula}")
    return by_formula


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

    def __contains__(self, pt):
        return tuple(pt) in self.points

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
