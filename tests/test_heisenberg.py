import numpy as np
import pytest

from kakeyalab.field import DomainError, Field
from kakeyalab import heisenberg as hz
from kakeyalab import maximal as mx

import oracle as ol


@pytest.fixture(scope="module")
def f3():
    return Field(3)


@pytest.fixture(scope="module")
def f5():
    return Field(5)


def test_group_law_example(f3):
    p = ol.HPoint(f3, 1, 0, 0) * ol.HPoint(f3, 0, 1, 0)
    assert (p.x, p.y, p.t) == ((1,), (1,), 1)


def test_inverse_cancels_twist(f5):
    for x in range(5):
        for y in range(5):
            p = ol.HPoint(f5, x, y, 3)
            o = p * p.inverse()
            assert (o.x, o.y, o.t) == ((0,), (0,), 0)


def test_group_axioms_exhaustive_n1(f3):
    pts = ol.enumerate_points(f3, 1)
    e = ol.HPoint.origin(f3)
    for a in pts:
        assert a * e == a and e * a == a
        assert a * a.inverse() == e and a.inverse() * a == e
        for b in pts:
            ab = a * b
            for c in pts:
                assert ab * c == a * (b * c)


def test_associativity_random_n2(f3):
    rng = np.random.Generator(np.random.PCG64(0))
    pts = ol.enumerate_points(f3, 2)
    for _ in range(1000):
        a, b, c = (pts[int(i)] for i in rng.integers(len(pts), size=3))
        assert (a * b) * c == a * (b * c)


def test_mismatched_ambient_rejected(f3):
    with pytest.raises(DomainError):
        ol.HPoint(f3, 1, 0, 0) * ol.HPoint(f3, (1, 0), (0, 0), 0)
    with pytest.raises(DomainError):
        ol.HPoint(f3, 1, 0, 0) * ol.HPoint(Field(5), 1, 0, 0)


def test_point_enumeration_order(f3):
    pts = ol.enumerate_points(f3, 1)
    assert len(pts) == 27
    # t fastest, then y, then x
    assert (pts[0].x[0], pts[0].y[0], pts[0].t) == (0, 0, 0)
    assert (pts[1].x[0], pts[1].y[0], pts[1].t) == (0, 0, 1)
    assert (pts[3].x[0], pts[3].y[0], pts[3].t) == (0, 1, 0)
    assert (pts[9].x[0], pts[9].y[0], pts[9].t) == (1, 0, 0)
    for i, p in enumerate(pts):
        assert p.index == i
        assert ol.point_from_index(f3, 1, i) == p


# -- lines -------------------------------------------------------------------


def test_horizontal_line_zero_twist(f3):
    L = ol.HorizontalLine(ol.HPoint.origin(f3),
                          ol.ProjectiveDirection(f3, (1, 0)))
    assert {(p.x[0], p.y[0], p.t) for p in L.points} == {(s, 0, 0)
                                                         for s in range(3)}


def test_horizontal_line_unit_twist(f3):
    L = ol.HorizontalLine(ol.HPoint(f3, 1, 0, 0),
                          ol.ProjectiveDirection(f3, (0, 1)))
    assert {(p.x[0], p.y[0], p.t) for p in L.points} == {(1, s, s)
                                                         for s in range(3)}
    assert L.t_slope() == 1
    assert L.refined_direction() == ol.RefinedDirection(f3, (0, 1, 1))


def test_line_independent_of_basepoint(f5):
    v = ol.ProjectiveDirection(f5, (1, 3))
    L = ol.HorizontalLine(ol.HPoint(f5, 2, 1, 4), v)
    for p in L.points:
        assert ol.HorizontalLine(p, v) == L
        assert ol.HorizontalLine(p, v).t_slope() == L.t_slope()
        assert ol.HorizontalLine(p, v).refined_direction() == \
            L.refined_direction()


def test_t_slope_zero_through_origin(f5):
    for v in ol.enumerate_projective_directions(f5, 1):
        L = ol.HorizontalLine(ol.HPoint.origin(f5), v)
        assert L.t_slope() == 0


def test_refined_direction_slope_chart(f5):
    # through the origin in direction [1:m]: Dir = [1:m:0]
    for m in range(5):
        L = ol.HorizontalLine(ol.HPoint.origin(f5),
                              ol.ProjectiveDirection(f5, (1, m)))
        assert L.refined_direction().rep == (1, m, 0)


def test_line_has_q_points(f5):
    L = ol.HorizontalLine(ol.HPoint(f5, 1, 2, 3),
                          ol.ProjectiveDirection(f5, (2, 3)))
    assert len(L) == 5
    assert len(set(L.point_indices)) == 5


# -- direction enumeration ---------------------------------------------------


def test_projective_direction_counts(f3):
    assert len(hz.enumerate_projective_directions(f3, 1)) == 4
    assert len(hz.enumerate_projective_directions(f3, 2)) == 40
    dirs7 = hz.enumerate_projective_directions(Field(7), 1)
    assert len(dirs7) == len(np.unique(dirs7, axis=0)) == 8


_ENUM_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)


@pytest.mark.parametrize("q", _ENUM_QS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_enumerate_directions_matches_oracle(q, d):
    # row for row against the oracle's canonical representatives; where
    # q^d is small, also against canonicalizing every nonzero vector
    f = Field(q)
    dirs = hz.enumerate_directions(f, d)
    assert dirs.dtype == np.intp
    assert dirs.shape == ((q**d - 1) // (q - 1), d)
    assert dirs.tolist() == [list(v.rep)
                             for v in ol.enumerate_directions(f, d)]
    if q**d <= 20000:
        every = np.indices((q,) * d).reshape(d, -1).T[1:]
        assert {ol.canonical_direction(f, v) for v in every.tolist()} == \
            set(map(tuple, dirs.tolist()))


@pytest.mark.parametrize("q,n", [(q, 1) for q in _ENUM_QS]
                         + [(q, 2) for q in _ENUM_QS if q <= 7])
def test_enumerate_refined_directions_matches_oracle(q, n):
    f = Field(q)
    dirs = hz.enumerate_refined_directions(f, n)
    assert dirs.dtype == np.intp
    assert dirs.tolist() == [list(om.rep)
                             for om in ol.enumerate_refined_directions(f, n)]
    assert np.array_equal(hz.enumerate_projective_directions(f, n),
                          hz.enumerate_directions(f, 2 * n))


@pytest.mark.parametrize("rep,match", [
    ((0, 0), "canonical"), ((2, 1), "canonical"), ((0, 3, 1), "canonical"),
    ((1, 5), "field indices"), ((1, -1), "field indices"),
    ((1.0, 0), "field indices"), ((True, False), "field indices"),
    ((), "field indices"), ((1, 0, 0), "2n coordinates"),
])
def test_line_table_refuses_a_bad_rep(f5, rep, match):
    with pytest.raises(DomainError, match=match):
        hz.line_table_for_direction(f5, rep)


def test_canonicalization():
    f = Field(5)
    assert ol.ProjectiveDirection(f, (2, 4)) == ol.ProjectiveDirection(f, (1, 2))
    assert ol.ProjectiveDirection(f, (0, 3)).rep == (0, 1)
    with pytest.raises(DomainError):
        ol.ProjectiveDirection(f, (0, 0))


def test_refined_direction_counts_and_fibers(f3):
    rd = hz.enumerate_refined_directions(f3, 1)
    assert rd.shape == (12, 3) and rd.dtype == np.intp
    fibers = {}
    for a, b, c in rd.tolist():
        fibers.setdefault((a, b), set()).add(c)
    assert all(len(v) == 3 for v in fibers.values())
    assert len(hz.enumerate_refined_directions(f3, 2)) == 120


@pytest.mark.parametrize("q,modulus", [
    *(pytest.param(q, None, id=str(q)) for q in (3, 4, 5, 9)),
    pytest.param(9, (2, 1, 1), id="9-other-modulus"),
])
def test_refined_directions_lead_the_directions_of_f_q3(q, modulus):
    # omega_partition reads refined direction i from block i of the F_q^3
    # incidence table; only the vertical class [0:0:1] comes after them
    fld = Field(q, modulus=modulus)
    refined = hz.enumerate_refined_directions(fld, 1)
    affine = hz.enumerate_directions(fld, 3)
    assert len(refined) == q * q + q == len(affine) - 1
    assert np.array_equal(refined, affine[:-1])
    assert affine[-1].tolist() == [0, 0, 1]


def test_vertical_class_unrepresentable(f3):
    with pytest.raises(DomainError):
        ol.RefinedDirection(f3, (0, 0, 1))
    with pytest.raises(DomainError, match="vertical"):
        hz.lines_with_refined_direction(f3, (0, 0, 1))


def test_refined_direction_charts(f5):
    assert ol.RefinedDirection(f5, (1, 2, 3)).chart() == ("slope", 2, 3)
    assert ol.RefinedDirection(f5, (0, 1, 3)).chart() == ("vertical", 3)
    assert ol.RefinedDirection(f5, (0, 2, 1)).chart() == ("vertical", 3)


# -- line families -----------------------------------------------------------


def test_lines_with_refined_direction_partition_of_slab(f3):
    om = ol.RefinedDirection(f3, (1, 0, 0))
    fam = ol.lines_with_refined_direction(om)
    assert len(fam) == 3
    pts = set()
    for L in fam:
        assert L.refined_direction() == om
        pts.update(L.point_indices)
    assert len(pts) == 9  # pairwise disjoint: q lines of q points


def test_lines_with_refined_direction_count_q5(f5):
    for om in ol.enumerate_refined_directions(f5, 1):
        fam = ol.lines_with_refined_direction(om)
        assert len(fam) == 5
        assert all(L.refined_direction() == om for L in fam)
        assert all(L.t_slope() == om.c for L in fam)
        taus = sorted(L.tau() for L in fam)
        assert taus == list(range(5))


def test_lines_through_point(f3):
    p = ol.HPoint.origin(f3)
    fam = ol.lines_through_point(p)
    assert len(fam) == 4
    union = set()
    rds = set()
    for L in fam:
        assert p in L
        union.update(L.point_indices)
        rds.add(L.refined_direction())
    assert len(union) == 1 + 4 * 2  # 1 + (q+1)(q-1) = q^2
    assert len(rds) == 4


def test_two_lines_share_at_most_one_point(f3):
    lines = ol.all_horizontal_lines(f3, 1)
    assert len(lines) == 36
    for i, a in enumerate(lines):
        sa = set(a.point_indices)
        for b in lines[i + 1:]:
            assert len(sa & set(b.point_indices)) <= 1


def test_census_values():
    rec = hz.census(Field(3), 1)
    assert (rec.points, rec.proj_directions, rec.refined_directions,
            rec.lines, rec.lines_per_direction,
            rec.lines_per_refined_direction, rec.lines_per_point) == \
        (27, 4, 12, 36, 9, 3, 4)
    assert hz.census(Field(5), 1).lines == 150
    assert hz.census(Field(3), 2).lines == 3240


def test_every_refined_direction_realized(f5):
    # census would raise otherwise; also check directly at q=5
    for om in ol.enumerate_refined_directions(f5, 1):
        fam = ol.lines_with_refined_direction(om)
        assert fam and all(L.refined_direction() == om for L in fam)


# -- index scans against the object scans -----------------------------------
#
# Ordered comparisons: row i is the i-th line of the object scan and column
# s its s-th point, so any reordering of rows or columns fails.


def _lines_through_point_objects(field, n, index):
    p = ol.point_from_index(field, n, index)
    return [list(L.point_indices) for L in ol.lines_through_point(p)]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_lines_through_point_matches_objects_at_every_point(q):
    f = Field(q)
    for index in range(q ** 3):
        assert hz.lines_through_point(f, 1, index).tolist() == \
            _lines_through_point_objects(f, 1, index)


@pytest.mark.parametrize("q", [3, 4])
def test_lines_through_point_matches_objects_sampled_n2(q):
    f = Field(q)
    rng = np.random.Generator(np.random.PCG64(q))
    for index in rng.choice(q ** 5, size=40, replace=False):
        rows = hz.lines_through_point(f, 2, index)  # a numpy integer index
        assert rows.dtype == np.intp
        assert rows.tolist() == _lines_through_point_objects(f, 2, int(index))


@pytest.mark.parametrize("index,match", [
    (True, "must be an integer"), (1.0, "must be an integer"),
    ("1", "must be an integer"), (-1, "outside"), (27, "outside"),
])
def test_lines_through_point_rejects_a_bad_index(f3, index, match):
    with pytest.raises(DomainError, match=match):
        hz.lines_through_point(f3, 1, index)


_RANKED = {
    "enumerate_directions": hz.enumerate_directions,
    "census": hz.census,
    "lines_through_point": hz.lines_through_point,
    "enumerate_projective_directions": hz.enumerate_projective_directions,
    "enumerate_refined_directions": hz.enumerate_refined_directions,
    "Domain.heisenberg": mx.Domain.heisenberg,
}


@pytest.mark.parametrize("fn", _RANKED.values(), ids=_RANKED.keys())
@pytest.mark.parametrize("n,match", [
    (0, ">= 1"), (-1, ">= 1"), (True, "must be an integer"),
    (1.5, "must be an integer"), ("1", "must be an integer"),
    (100000000000, "desk scale"),   # refused before q^(2n+1) is taken
])
def test_bad_rank_is_refused_by_one_check(f3, fn, n, match):
    with pytest.raises(DomainError, match=match):
        fn(f3, n)


def test_rank_cap_is_the_point_count():
    f31 = Field(31)  # 31^5 points fit, 31^7 do not
    assert len(hz.enumerate_projective_directions(f31, 2)) \
        == (31**4 - 1) // 30
    with pytest.raises(DomainError, match="desk scale"):
        hz.enumerate_projective_directions(f31, 3)
    with pytest.raises(DomainError, match="desk scale"):
        hz.enumerate_projective_directions(Field(3), 8)  # 3^17 points


@pytest.mark.parametrize("q,modulus", [
    *(pytest.param(q, None, id=str(q)) for q in (3, 4, 5, 9, 16, 27)),
    pytest.param(9, (2, 1, 1), id="9-other-modulus"),
])
def test_lines_with_refined_direction_matches_objects(q, modulus):
    f = Field(q, modulus=modulus)
    _, table = mx.refined_incidence(f)
    for om, block in zip(ol.enumerate_refined_directions(f, 1), table):
        rows = hz.lines_with_refined_direction(f, om.rep)
        assert rows.dtype == np.intp
        assert rows.tolist() == [list(L.point_indices)
                                 for L in ol.lines_with_refined_direction(om)]
        assert np.array_equal(rows, block)


def test_lines_with_refined_direction_needs_rank_1(f3):
    with pytest.raises(DomainError, match="n=1"):
        hz.lines_with_refined_direction(f3, (1, 0, 0, 0, 0))


# -- projections -------------------------------------------------------------


def test_project_point(f5):
    assert ol.HPoint(f5, 1, 2, 3).project() == (1, 2)


def test_project_line_bijective(f5):
    L = ol.HorizontalLine(ol.HPoint(f5, 1, 2, 3),
                          ol.ProjectiveDirection(f5, (2, 3)))
    pl = ol.project_line(L)
    assert len(set(pl.points)) == 5
    assert pl.direction == L.direction


def test_projected_line_is_ell_omega(f5):
    # pi(L_{omega,tau}) = l_omega for every omega, tau
    for om in ol.enumerate_refined_directions(f5, 1):
        lo = ol.planar_line_of(om)
        for L in ol.lines_with_refined_direction(om):
            assert ol.project_line(L) == lo


def test_omega_to_planar_line_bijection():
    for q in (3, 4, 5):
        f = Field(q)
        images = {ol.planar_line_of(om)
                  for om in ol.enumerate_refined_directions(f, 1)}
        alll = ol.all_affine_lines(f, 2)
        assert len(images) == len(alll) == q * (q + 1)
        assert images == set(alll)


def test_planar_line_equation(f5):
    # l_[a:b:c] = {bx - ay = c}, parallel to [a:b]
    ar = ol.arithmetic(f5)
    for om in ol.enumerate_refined_directions(f5, 1):
        a, b, c = om.rep
        for (x, y) in ol.planar_line_of(om).points:
            assert ar.sub(ar.mul(b, x), ar.mul(a, y)) == c


# -- bulk line tables --------------------------------------------------------


@pytest.mark.parametrize("q,n", [(3, 1), (4, 1), (5, 1), (8, 1), (9, 1),
                                 (3, 2), (4, 2)])
def test_line_table_matches_objects(q, n):
    # ordered: row r is the r-th line of the object scan, column s its s-th
    # point, so any reordering of rows or columns fails
    f = Field(q)
    for v in ol.enumerate_projective_directions(f, n):
        lines = ol.lines_with_direction(f, n, v)
        table = hz.line_table_for_direction(f, v.rep)
        assert table.tolist() == [list(L.point_indices) for L in lines]
        slopes = hz.line_slope_table(f, v.rep)
        assert slopes.tolist() == [L.t_slope() for L in lines]


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_incidence_tables_match_objects(q):
    f = Field(q)
    for d in (2, 3):
        dirs, table = mx.affine_incidence(f, d)
        assert np.array_equal(dirs, hz.enumerate_directions(f, d))
        for v, block in zip(ol.enumerate_directions(f, d), table):
            lead = next(j for j, c in enumerate(v.rep) if c)
            bases = [p for p in ol.enumerate_affine_points(f, d)
                     if p[lead] == 0]
            assert block.tolist() == [
                list(ol.AffineLine(f, b, v).point_indices) for b in bases]
    dirs, table = mx.refined_incidence(f)
    assert np.array_equal(dirs, hz.enumerate_refined_directions(f, 1))
    want = [[list(L.point_indices) for L in ol.lines_with_refined_direction(om)]
            for om in ol.enumerate_refined_directions(f, 1)]
    assert table.tolist() == want
    hdirs, htable = mx.heis1_incidence(f)
    assert np.array_equal(hdirs, hz.enumerate_projective_directions(f, 1))
    assert htable.tolist() == [sum(want[i * q:(i + 1) * q], [])
                               for i in range(q + 1)]


def _lead(v):
    return next(j for j, c in enumerate(v.rep) if c)


def _ends_of_lead_blocks(dirs):
    """The first and the last direction of each leading-coordinate block."""
    out = []
    for lead in sorted({_lead(v) for v in dirs}):
        block = [i for i, v in enumerate(dirs) if _lead(v) == lead]
        out.extend(sorted({block[0], block[-1]}))
    return out


@pytest.mark.parametrize("q", [25, 27])
def test_large_field_tables_match_objects_sampled(q):
    # ordered, at the first and last direction of every lead block
    f = Field(q)
    _, table = mx.affine_incidence(f, 3)
    dirs = ol.enumerate_directions(f, 3)
    for i in _ends_of_lead_blocks(dirs):
        v = dirs[i]
        bases = [p for p in ol.enumerate_affine_points(f, 3)
                 if p[_lead(v)] == 0]
        assert table[i].tolist() == [
            list(ol.AffineLine(f, b, v).point_indices) for b in bases]
    pdirs = ol.enumerate_projective_directions(f, 1)
    for i in _ends_of_lead_blocks(pdirs):
        v = pdirs[i]
        lines = [ol.HorizontalLine(ol.HPoint(f, x, y, t), v)
                 for x, y, t in ol.enumerate_affine_points(f, 3)
                 if (x, y)[_lead(v)] == 0]
        assert hz.line_table_for_direction(f, v.rep).tolist() == [
            list(L.point_indices) for L in lines]
        assert hz.line_slope_table(f, v.rep).tolist() == [
            L.t_slope() for L in lines]


def test_lines_with_direction_partition(f5):
    v = ol.ProjectiveDirection(f5, (1, 2))
    fam = ol.lines_with_direction(f5, 1, v)
    assert len(fam) == 25
    seen = set()
    for L in fam:
        assert L.direction == v
        seen.update(L.point_indices)
    assert len(seen) == 125


def test_as_affine_line(f5):
    L = ol.HorizontalLine(ol.HPoint(f5, 1, 2, 3),
                          ol.ProjectiveDirection(f5, (1, 4)))
    al = ol.as_affine_line(L)
    assert {(p.x[0], p.y[0], p.t) for p in L.points} == set(al.points)
    assert al.direction.rep == L.refined_direction().rep
