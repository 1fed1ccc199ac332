"""The group H_n(F_q): directions, horizontal lines as index rows, counting.

A point is stored as its index in the enumeration of F_q^{2n+1}: row-major,
t fastest, then the y block, then the x block.  A horizontal line is the
coset p.(sa, sb, 0) of its q points, held as a row of q point indices with
column s the point at parameter s.  One coset builder makes every line and
incidence table, for H_n and F_q^d alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .field import MAX_POINTS, DomainError


# ---------------------------------------------------------------------------
# points


def check_point_index(size, i):
    """i, when it is a non-bool integer in [0, size); else DomainError."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise DomainError(f"point index must be an integer, got {i!r}")
    if not 0 <= i < size:
        raise DomainError(f"point index {i} outside the domain")
    return i


def check_point_count(field, dim, name):
    """DomainError when q^dim exceeds MAX_POINTS.  Since q >= 2, any dim of
    MAX_POINTS.bit_length() or more is refused before the power is taken."""
    if dim >= MAX_POINTS.bit_length() or field.q ** dim > MAX_POINTS:
        raise DomainError(f"{name} over F_{field.q} exceeds the desk scale "
                          f"of {MAX_POINTS} points")


def check_rank(field, n):
    """n as an int, when it is a non-bool integer >= 1 and H_n(F_q) has at
    most MAX_POINTS points; else DomainError."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"group rank must be an integer, got {n!r}")
    if n < 1:
        raise DomainError("group rank must be >= 1")
    check_point_count(field, 2 * n + 1, f"H_{n}")
    return int(n)


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
    """Horizontal directions of H_n: P^{2n-1}(F_q), n checked by
    check_rank."""
    return enumerate_directions(field, 2 * check_rank(field, n))


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
    """All of D_n, fibered: for each projective direction, the q slopes c.
    enumerate_projective_directions checks the rank."""
    out = []
    for v in enumerate_projective_directions(field, n):
        for c in range(field.q):
            out.append(RefinedDirection(field, v.rep + (c,)))
    return out


# ---------------------------------------------------------------------------
# horizontal lines as index rows


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
    indexes without first casting the table; only the incidence tables of
    F_q^d, d >= 3, narrow their copy (see maximal.affine_incidence).
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


def line_table_for_direction(field, v):
    """(q^{2n}, q) np.intp table: point indices of every line of direction v,
    with n = len(v.rep) // 2.

    Row r holds the r-th coset in transversal order; column s is the point
    p.(s v, 0) of the row's base p.  The operators gather from it once per
    input, so it keeps the native index width of _coset_table: an int32
    table would be cast on every gather.
    """
    return _coset_table(field, v.rep, horizontal=True)


def line_slope_table(field, v):
    """t-slope c(L) of each row of line_table_for_direction(field, v)."""
    twist = _twist(field, v.rep, _transversal_axes(field.q, v.rep))
    return np.repeat(twist.astype(np.int64).ravel(), field.q)


def _refined_blocks(field, rep):
    """(q, q, q) np.intp: the lines of projective direction rep of H_1 as
    normal-form blocks, block c holding L_{[rep:c],tau} in row tau.

    In transversal order the rows run over the bases (0, y, tau) for [1:m],
    with t-slope -y, and (x, 0, tau) for [0:1], with t-slope x.  So block c
    starts at the normal base (0, -c, tau) or (c, 0, tau).
    """
    q = field.q
    blocks = _coset_table(field, rep, horizontal=True).reshape(q, q, q)
    return blocks[field.np_neg] if rep[0] else blocks


def lines_with_refined_direction(omega):
    """(q, q) np.intp: the q pairwise-disjoint lines of refined direction
    omega (n=1), row tau the line L_{omega,tau}.

    L_{[1:m:g],tau} = {(x, mx-g, tau+gx)} and L_{[0:1:g],tau} =
    {(g, y, tau+gy)}; row omega of maximal.refined_incidence.
    """
    if omega.n != 1:
        raise DomainError("normal-form lines are defined for n=1 only")
    return _refined_blocks(omega.field, omega.rep[:-1])[omega.c]


def lines_through_point(field, n, index=0):
    """(P, q) np.intp: the line through the point at index in each of the P
    projective directions of H_n, in enumeration order.

    For p = (z, t) and v = (a, b), column s is p.(s v, 0) =
    (z + s v, t + s (x.b - y.a)).
    """
    n = check_rank(field, n)
    q = field.q
    dims = (q,) * (2 * n + 1)
    *z, t = np.unravel_index(check_point_index(q ** (2 * n + 1), index), dims)
    dirs = enumerate_projective_directions(field, n)
    reps = np.array([v.rep for v in dirs]).T       # (2n, P)
    s_v = field.np_mul[reps[:, :, None], np.arange(q)]  # (2n, P, q)
    zs = [field.np_add[c, step] for c, step in zip(z, s_v)]
    ts = field.np_add[t, field.np_mul[_twist(field, reps, z)[:, None],
                                      np.arange(q)]]
    return np.ravel_multi_index((*zs, ts), dims)


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
    points counted are the distinct ones the first direction's lines cover;
    the lines per point, the distinct point sets through the origin.
    """
    n = check_rank(field, n)
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

    points = None
    total_lines = 0
    per_dir_counts = set()
    per_refined_counts = set()
    realized_refined = 0
    for v in proj:
        table = line_table_for_direction(field, v)
        hits = np.bincount(table.ravel(), minlength=q ** (2 * n + 1))
        if points is None:
            points = int(np.count_nonzero(hits))
        if not (hits == 1).all():
            raise AssertionError(f"lines of direction {v} do not partition")
        total_lines += table.shape[0]
        per_dir_counts.add(table.shape[0])
        slope_hist = np.bincount(line_slope_table(field, v), minlength=q)
        realized_refined += int((slope_hist > 0).sum())
        per_refined_counts.update(int(c) for c in slope_hist)
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
        lines_per_point=len({frozenset(row) for row in
                             lines_through_point(field, n).tolist()}),
    )
    if realized_refined != len(refined):
        raise AssertionError("some refined direction is not realized")
    if by_enum != by_formula:
        raise AssertionError(f"census mismatch: {by_enum} != {by_formula}")
    return by_formula
