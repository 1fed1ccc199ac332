"""The group H_n(F_q): directions, horizontal lines as index rows, counting.

A point is stored as its index in the enumeration of F_q^{2n+1}: row-major,
t fastest, then the y block, then the x block.  A horizontal line is the
coset p.(sa, sb, 0) of its q points, held as a row of q point indices with
column s the point at parameter s.  A direction is a row of field indices,
its canonical representative; the enumerations are (P, d) arrays of them.
One coset builder makes every line table and incidence table, for H_n and
F_q^d alike; the lines through one point are a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def check_dimension(field, d, what):
    """d as an int, when it is a non-bool integer >= 1 and q^d is at most
    MAX_POINTS; else DomainError.  The one check of a rank or a dimension."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {d!r}")
    d = int(d)   # a numpy integer would wrap in q^d
    if d < 1:
        raise DomainError(f"{what} must be >= 1")
    check_point_count(field, d, f"{what} {d}")
    return d


def check_rank(field, n):
    """n as an int, when check_dimension accepts it and H_n(F_q) has at most
    MAX_POINTS points; else DomainError."""
    n = check_dimension(field, n, "group rank")
    check_point_count(field, 2 * n + 1, f"H_{n}")
    return n


# ---------------------------------------------------------------------------
# directions


def enumerate_directions(field, d):
    """(P, d) np.intp: the P = (q^d - 1)/(q - 1) canonical representatives of
    P^{d-1}(F_q), one per row, each with its first nonzero coordinate 1.

    Order: by position of the leading 1, then lexicographically in the free
    coordinates.  d goes through check_dimension.
    """
    d = check_dimension(field, d, "dimension")
    q = field.q
    blocks = []
    for lead in range(d):
        free = d - 1 - lead
        block = np.zeros((q ** free, d), dtype=np.intp)
        block[:, lead] = 1
        tails = np.indices((q,) * free).reshape(free, q ** free)
        block[:, lead + 1:] = tails.T
        blocks.append(block)
    return np.concatenate(blocks)


def enumerate_projective_directions(field, n=1):
    """Horizontal directions of H_n: P^{2n-1}(F_q), n checked by
    check_rank."""
    return enumerate_directions(field, 2 * check_rank(field, n))


def enumerate_refined_directions(field, n=1):
    """D_n: P^{2n}(F_q) less its last row, the vertical class [0:...:0:1].
    Row i is [v:c] for the projective direction v = i // q and the slope
    c = i % q; n checked by check_rank."""
    return enumerate_directions(field, 2 * check_rank(field, n) + 1)[:-1]


def check_rep(field, rep):
    """rep as a tuple of ints, when it is a canonical representative: field
    indices, not all zero, the first nonzero one 1; else DomainError."""
    a = np.asarray(rep)
    if a.ndim != 1 or a.dtype.kind not in "iu" \
            or ((a < 0) | (a >= field.q)).any():
        raise DomainError(
            f"a direction is a row of field indices, got {rep!r}")
    nonzero = a[a != 0]
    if not nonzero.size or nonzero[0] != 1:
        raise DomainError(f"{rep!r} is not a canonical representative")
    return tuple(a.tolist())


def _horizontal_rep(field, rep):
    rep = check_rep(field, rep)
    if len(rep) % 2:
        raise DomainError("a horizontal direction has 2n coordinates")
    return rep


def check_refined_rep(field, rep):
    """(a, b, c) of a refined direction [a:b:c] of D_1, checked."""
    rep = check_rep(field, rep)
    if len(rep) != 3:
        raise DomainError("normal-form lines are defined for n=1 only")
    if rep == (0, 0, 1):
        raise DomainError("the vertical class [0:0:1] is not a refined "
                          "direction")
    return rep


def direction_label(rep):
    """[a:b:...] of a representative."""
    return "[" + ":".join(map(str, rep)) + "]"


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
    indexes without first casting the table; the H_1 incidence table
    narrows its copy (see maximal.refined_incidence), and the F_q^d blocks,
    d >= 3, are built here whenever they are read (maximal.affine_incidence).
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


def line_table_for_direction(field, rep):
    """(q^{2n}, q) np.intp table: point indices of every line of direction
    rep of P^{2n-1}, with n = len(rep) // 2.

    Row r holds the r-th coset in transversal order; column s is the point
    p.(s rep, 0) of the row's base p.  The operators gather from it once per
    input, so it keeps the native index width of _coset_table: an int32
    table would be cast on every gather.
    """
    return _coset_table(field, _horizontal_rep(field, rep), horizontal=True)


def line_slope_table(field, rep):
    """t-slope c(L) of each row of line_table_for_direction(field, rep)."""
    rep = _horizontal_rep(field, rep)
    twist = _twist(field, rep, _transversal_axes(field.q, rep))
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


def lines_with_refined_direction(field, rep):
    """(q, q) np.intp: the q pairwise-disjoint lines of refined direction
    rep = [a:b:c] of D_1, row tau the line L_{rep,tau}.

    L_{[1:m:g],tau} = {(x, mx-g, tau+gx)} and L_{[0:1:g],tau} =
    {(g, y, tau+gy)}; block rep of maximal.refined_incidence.
    """
    a, b, c = check_refined_rep(field, rep)
    return _refined_blocks(field, (a, b))[c]


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
    reps = enumerate_projective_directions(field, n).T  # (2n, P)
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
            raise AssertionError(f"lines of direction {direction_label(v)} "
                                 "do not partition")
        total_lines += table.shape[0]
        per_dir_counts.add(table.shape[0])
        slope_hist = np.bincount(line_slope_table(field, v), minlength=q)
        realized_refined += int((slope_hist > 0).sum())
        per_refined_counts.update(int(c) for c in slope_hist)
    by_enum = Census(
        q=q, n=n,
        points=points,
        proj_directions=len(np.unique(proj, axis=0)),
        refined_directions=len(np.unique(refined, axis=0)),
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
