import json
import math
from fractions import Fraction

import pytest

from kakeyalab.field import DomainError, Field
from kakeyalab import heisenberg as hz
from kakeyalab import maximal as mx
from kakeyalab import constructions as cn

INF = math.inf


@pytest.fixture(scope="module")
def f5():
    return Field(5)


@pytest.fixture(scope="module")
def f7():
    return Field(7)


def h1(field):
    return mx.Domain.heisenberg(field, 1)


# -- extremal sets --------------------------------------------------------------


def test_support_sizes(f5, f7):
    assert len(cn.extremal_set("point-mass", f5)) == 1
    assert len(cn.extremal_set("single-line", f5)) == 5
    assert len(cn.extremal_set("bush", f5)) == 25
    assert len(cn.extremal_set("two-lines-blocking", f7)) == 13
    assert len(cn.extremal_set("constant", f5)) == 125
    assert len(cn.extremal_set("bush", Field(3), 2)) == 81
    assert len(cn.extremal_set("paraboloid", f5)) == 25


def test_bush_contains_all_lines_through_center(f5):
    p = hz.HPoint(f5, 1, 2, 3)
    bush = cn.extremal_set("bush", f5, point=p)
    for L in hz.lines_through_point(p):
        assert bush.contains_line(L)


def test_blocking_set_blocks_every_refined_direction(f7):
    # M^rd of the two-line set is >= 1 on all of D_1
    F = cn.extremal_function("two-lines-blocking", f7)
    assert mx.refined_max_op(F).min() >= 1


def test_paraboloid_requires_odd_q():
    with pytest.raises(DomainError):
        cn.extremal_set("paraboloid", Field(4))


def test_paraboloid_rejects_isotropic_eta(f7):
    # at q = 7 every nonsquare eta makes x^2 + eta y^2 isotropic
    for eta in (3, 5, 6):
        with pytest.raises(DomainError):
            cn.extremal_set("paraboloid", f7, eta=eta)
    cn.extremal_set("paraboloid", f7, eta=1)  # -1 is a nonsquare mod 7


def test_paraboloid_eta_matches_paper_for_q_1_mod_4(f5):
    # q = 1 mod 4: anisotropic eta are exactly the nonsquares
    for eta in (2, 3):
        assert not f5.is_square(eta)
        ps = cn.extremal_set("paraboloid", f5, eta=eta)
        assert mx.heis_max_op(ps.indicator()).max() <= 2


def test_unknown_kind_rejected(f5):
    with pytest.raises(DomainError):
        cn.extremal_set("mystery", f5)


# -- exponent term certificates ---------------------------------------------------


def test_point_mass_refined_ratio(f5):
    rep = cn.lower_bound_ratio("point-mass", f5, 2, 2)
    assert rep.ratio == pytest.approx(math.sqrt(6))
    assert rep.ratio >= math.sqrt(5)
    assert rep.term == Fraction(1, 2) and rep.cert_holds


def test_constant_refined_l3_ratio(f7):
    rep = cn.lower_bound_ratio("constant", f7, 3, 3)
    assert rep.ratio == pytest.approx((49 + 7) ** (1 / 3))
    assert rep.ratio >= 7 ** (2 / 3)
    assert rep.cert_holds


def test_bush_heis_ratio(f5):
    rep = cn.lower_bound_ratio("bush", f5, INF, 1, operator="heis")
    assert rep.ratio == pytest.approx(30.0)  # q(q+1)
    assert rep.ratio >= 25.0                 # q^{1+1/v}
    assert rep.cert_holds and rep.support == 25


def test_single_line_ratio_exact(f5):
    rep = cn.lower_bound_ratio("single-line", f5, 2, 2)
    # numerator^2 = q^2 + q^2 (own direction q, one point in all others
    # over different spatial directions), denominator q
    assert rep.term == Fraction(1, 2)
    assert rep.cert_holds
    assert rep.ratio >= math.sqrt(5)


def test_blocking_certified_constant(f7):
    rep = cn.lower_bound_ratio("two-lines-blocking", f7, 2, 2)
    assert rep.certified_constant == pytest.approx(2 ** -0.5)
    assert rep.cert_holds
    assert rep.ratio >= rep.certified_constant * math.sqrt(7)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_all_terms_certified(q):
    fld = Field(q)
    plans = [
        ("heis", 1, "point-mass", (1, 1)), ("heis", 1, "point-mass", (2, 2)),
        ("heis", 1, "single-line", (2, 2)), ("heis", 1, "single-line", (INF, 1)),
        ("heis", 1, "bush", (INF, 1)), ("heis", 1, "bush", (2, 2)),
        ("refined", 1, "point-mass", (1, 1)), ("refined", 1, "point-mass", (2, 2)),
        ("refined", 1, "single-line", (2, 2)),
        ("refined", 1, "two-lines-blocking", (2, 2)),
        ("refined", 1, "two-lines-blocking", (1, 1)),
        ("refined", 1, "constant", (3, 3)), ("refined", 1, "constant", (INF, 1)),
    ]
    for operator, n, kind, (u, v) in plans:
        rep = cn.lower_bound_ratio(kind, fld, u, v, n=n, operator=operator)
        assert rep.cert_holds, (operator, kind, u, v, q)


def test_wrong_kind_for_operator(f5):
    with pytest.raises(DomainError):
        cn.lower_bound_ratio("two-lines-blocking", f5, 2, 2, operator="heis")
    with pytest.raises(DomainError):
        cn.lower_bound_ratio("bush", f5, 2, 2, operator="refined")


# -- Kakeya predicates ---------------------------------------------------------


def test_full_space_is_both(f5):
    full = cn.PointSet.full(h1(f5))
    assert cn.is_full_refined_kakeya(full) == (True, None)
    assert cn.is_affine_kakeya(cn.as_affine_set(full)) == (True, None)


def test_affine_kakeya_needs_affine_domain(f5):
    with pytest.raises(DomainError):
        cn.is_affine_kakeya(cn.PointSet.full(h1(f5)))


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_example_affine_not_refined(q):
    fld = Field(q)
    dirs = hz.enumerate_refined_directions(fld, 1)
    for om0 in (dirs[0], dirs[len(dirs) // 2], dirs[-1]):
        e = cn.example_affine_not_refined(om0)
        assert len(e) == q**3 - q
        ok, _ = cn.is_affine_kakeya(cn.as_affine_set(e))
        assert ok
        full, witness = cn.is_full_refined_kakeya(e)
        assert not full
        # om0 itself is a verified witness: every om0-line meets the fiber
        assert not any(e.contains_line(L)
                       for L in hz.lines_with_refined_direction(om0))


@pytest.mark.parametrize("q", [5, 7, 9])
def test_best_contained_line_matches_object_scan(q):
    # oracle: walk the AffineLine objects in scan order, keep the first
    # contained line of smallest mu
    fld = Field(q)
    dirs = hz.enumerate_refined_directions(fld, 1)
    e = cn.as_affine_set(cn.example_affine_not_refined(dirs[len(dirs) // 2]))
    for om in dirs:
        v = hz.ProjectiveDirection(fld, om.rep)
        want = want_mu = None
        for line in hz.affine_lines_with_direction(fld, 3, v):
            if e.contains_line(line):
                mu = cn.mu_parameter(line).index
                if want is None or mu < want_mu:
                    want, want_mu = line, mu
        got = cn._best_contained_line(e, om)
        assert (got.base, got.points) == (want.base, want.points)


def test_example_11_1_every_line_meets_removed_fiber(f5):
    om0 = hz.RefinedDirection(f5, (1, 2, 3))
    e = cn.example_affine_not_refined(om0)
    removed = e.complement()
    for L in hz.lines_with_refined_direction(om0):
        assert any(p.index in removed.indices for p in L.points)


def _bent_lines_by_points(fld):
    # the definitional oracle: every point of the example as an HPoint
    q = fld.q
    idx = set()
    for m in range(q):
        m2 = fld.mul(m, m)
        for g in range(q):
            for x in range(q):
                y = fld.sub(fld.mul(m, x), g)
                t = fld.add(m2, fld.mul(g, x))
                idx.add(hz.HPoint(fld, x, y, t).index)
    for g in range(q):
        for y in range(q):
            idx.add(hz.HPoint(fld, g, y, fld.mul(g, y)).index)
    return cn.PointSet(h1(fld), idx)


@pytest.mark.parametrize("q,modulus", [
    *(pytest.param(q, None, id=str(q)) for q in (5, 7, 9, 11, 13)),
    pytest.param(9, (2, 1, 1), id="9-other-modulus"),
])
def test_example_refined_not_affine(q, modulus):
    fld = Field(q, modulus=modulus)
    e = cn.example_refined_not_affine(fld)
    assert e == _bent_lines_by_points(fld)
    ok, _ = cn.is_full_refined_kakeya(e)
    assert ok
    affine, witness = cn.is_affine_kakeya(cn.as_affine_set(e))
    assert not affine
    assert witness == hz.ProjectiveDirection(fld, (0, 0, 1))
    assert cn.vertical_fiber_sizes(e).max() <= (q + 3) // 2


def test_example_11_2_rejects_bad_q():
    with pytest.raises(DomainError):
        cn.example_refined_not_affine(Field(3))
    with pytest.raises(DomainError):
        cn.example_refined_not_affine(Field(4))


def test_example_11_2_slope_fiber_is_translated_squares(f5):
    # the slope-chart t-values over (x0, y0) form a translate of the squares
    squares = {f5.mul(s, s) for s in range(5)}
    for x0 in range(5):
        for y0 in range(5):
            tvals = set()
            for m in range(5):
                g = f5.sub(f5.mul(m, x0), y0)
                tvals.add(f5.add(f5.mul(m, m), f5.mul(g, x0)))
            assert len(tvals) <= 3  # (q+1)/2
            assert any(tvals == {f5.add(sq, c) for sq in squares}
                       for c in range(5))


# -- mu and straightening ---------------------------------------------------------


def test_mu_zero_iff_horizontal(f5):
    for om in hz.enumerate_refined_directions(f5, 1):
        for L in hz.lines_with_refined_direction(om):
            assert cn.mu_parameter(hz.as_affine_line(L)).index == 0


def test_mu_example_line(f5):
    line = hz.AffineLine(f5, (0, 0, 0), (1, 0, 1))  # {(s, 0, s)}
    assert cn.mu_parameter(line).index == 1


def test_mu_basepoint_independent_exhaustive(f5):
    for v in hz.enumerate_directions(f5, 3):
        if v.rep[0] == 0 and v.rep[1] == 0:
            continue
        for line in hz.affine_lines_with_direction(f5, 3, v):
            mus = {cn.mu_parameter(hz.AffineLine(f5, p, v)).index
                   for p in line.points}
            assert len(mus) == 1


def test_mu_rejects_vertical(f5):
    with pytest.raises(DomainError):
        cn.mu_parameter(hz.AffineLine(f5, (0, 0, 0), (0, 0, 1)))


def test_straighten_line_example(f5):
    line = hz.AffineLine(f5, (0, 0, 0), (1, 0, 1))
    st = cn.straighten(line, 1, "slope")
    assert set(st.points) == {(s, 0, 0) for s in range(5)}
    assert cn.mu_parameter(st).index == 0


def test_straighten_involution(f5):
    line = hz.AffineLine(f5, (2, 1, 3), (1, 4, 2))
    k = 3
    back = cn.straighten(cn.straighten(line, k, "slope"), f5.neg(k), "slope")
    assert back == line
    ps = cn.extremal_set("bush", f5)
    back2 = cn.straighten(cn.straighten(ps, k, "vertical"), f5.neg(k),
                          "vertical")
    assert back2 == ps


def test_straighten_shifts_refined_direction(f5):
    # image of a mu = k line is horizontal with direction [1:m:g-k]
    for m in range(5):
        for g in range(5):
            for k in range(1, 5):
                # base (0, y0) with mu = g - (m*0 - y0) = g + y0 = k
                y0 = f5.sub(k, g)
                line = hz.AffineLine(f5, (0, y0, 0), (1, m, g))
                assert cn.mu_parameter(line).index == k
                st = cn.straighten(line, k, "slope")
                assert cn.mu_parameter(st).index == 0
                assert st.direction.rep == (1, m, f5.sub(g, k))


def test_straighten_vertical_chart(f5):
    # vertical chart: mu = g - x0, straightened by (x,y,t) -> (x,y,t-ky)
    for g in range(5):
        for k in range(1, 5):
            x0 = f5.sub(g, k)
            line = hz.AffineLine(f5, (x0, 0, 0), (0, 1, g))
            assert cn.mu_parameter(line).index == k
            st = cn.straighten(line, k, "vertical")
            assert cn.mu_parameter(st).index == 0
            assert st.direction.rep == (0, 1, f5.sub(g, k))


def test_straighten_is_bijective_on_sets(f5):
    ps = cn.extremal_set("paraboloid", f5)
    image = cn.straighten(ps, 2, "slope")
    assert len(image) == len(ps)
    assert cn.straighten(image, f5.neg(2), "slope") == ps


def test_straighten_rejects_zero_k(f5):
    with pytest.raises(DomainError):
        cn.straighten(hz.HPoint(f5, 1, 1, 1), 0, "slope")
    with pytest.raises(DomainError):
        cn.straighten(hz.HPoint(f5, 1, 1, 1), 1, "diagonal")


# -- omega partition ---------------------------------------------------------------


def test_omega_partition_full_space(f5):
    rep = cn.omega_partition(cn.PointSet.full(h1(f5)))
    assert len(rep.omega1) == 30 and not rep.omega2
    assert rep.m == 5
    assert not rep.slices and not rep.unwitnessed


def test_omega_partition_example_11_1(f5):
    om0 = hz.RefinedDirection(f5, (1, 1, 2))
    rep = cn.omega_partition(cn.example_affine_not_refined(om0))
    assert om0 in rep.omega2
    assert len(rep.omega1) + len(rep.omega2) == 30
    for om, line in rep.chosen_lines.items():
        mu = cn.mu_parameter(line).index
        assert mu != 0
        chart = om.chart()[0]
        st = cn.straighten(line, mu, chart)
        assert cn.mu_parameter(st).index == 0
    slice_members = [om for oms in rep.slices.values() for om in oms]
    assert sorted(map(str, slice_members)) == \
        sorted(str(om) for om in rep.omega2 if om not in rep.unwitnessed)
    assert 0 not in rep.slices


def test_omega_partition_explicit_selection(f5):
    om0 = hz.RefinedDirection(f5, (1, 0, 0))
    e = cn.example_affine_not_refined(om0)
    auto = cn.omega_partition(e)
    line = auto.chosen_lines[om0]
    rep = cn.omega_partition(e, selection={om0: line})
    assert rep.chosen_lines[om0] == line


# -- size and moment reports ---------------------------------------------------------


def test_kakeya_bound_full_space(f5):
    dirs = hz.enumerate_refined_directions(f5, 1)
    rep = cn.kakeya_bound_report(cn.PointSet.full(h1(f5)), dirs, 5, 2, 2)
    assert rep.holds
    assert rep.lhs == 125
    assert rep.rhs == pytest.approx((1 / 25) * 25 * 30 / 5)
    assert rep.constant_used == pytest.approx(5.0)


def test_kakeya_bound_checks_witnesses(f5):
    dirs = hz.enumerate_refined_directions(f5, 1)
    line_set = cn.extremal_set("single-line", f5)
    with pytest.raises(DomainError):
        cn.kakeya_bound_report(line_set, dirs, 5, 2, 2)


def test_kakeya_bound_refined_kakeya_set(f7):
    e = cn.example_refined_not_affine(f7)
    dirs = hz.enumerate_refined_directions(f7, 1)
    rep = cn.kakeya_bound_report(e, dirs, 7, 2, 2)
    assert rep.holds
    # |E| >= q|Omega|/25 with m = q
    assert rep.rhs == pytest.approx(49 * 56 / (25 * 7))


def test_kakeya_bound_rejects_infinite_u(f5):
    dirs = hz.enumerate_refined_directions(f5, 1)
    with pytest.raises(DomainError):
        cn.kakeya_bound_report(cn.PointSet.full(h1(f5)), dirs, 5, INF, 2)


def test_moment_reports(f5):
    line = cn.extremal_set("single-line", f5)
    rep = cn.moment_report(line, 2)
    assert rep.holds
    # M_E = q at its own refined direction, 1 on the q^2 crossing classes
    assert rep.lhs == pytest.approx(25 + 25)
    assert rep.rhs == pytest.approx(25 * 5 * 5)
    full = cn.moment_report(cn.PointSet.full(h1(f5)), 2)
    assert full.holds
    assert full.lhs == pytest.approx(30 * 25)


def test_moment_report_s3_on_kakeya_set(f7):
    e = cn.example_refined_not_affine(f7)
    rep = cn.moment_report(e, 3)
    assert rep.holds
    assert rep.constant_used == pytest.approx(25.0)  # (5^(2/3))^3


def test_moment_rejects_small_s(f5):
    with pytest.raises(DomainError):
        cn.moment_report(cn.PointSet.full(h1(f5)), Fraction(3, 2))


# -- point sets and JSON ----------------------------------------------------------


def test_pointset_roundtrip(f5):
    ps = cn.extremal_set("bush", f5)
    doc = json.loads(json.dumps(cn.pointset_to_json(ps)))
    back = cn.pointset_from_json(doc)
    assert back == ps
    assert doc["points"] == sorted(doc["points"])


@pytest.mark.parametrize("edit", [{"q": "x"}, {"points": ["a"]},
                                  {"n": "one"}])
def test_pointset_json_value_errors_are_domain_errors(f5, edit):
    doc = cn.pointset_to_json(cn.extremal_set("bush", f5))
    doc.update(edit)
    with pytest.raises(DomainError, match="malformed"):
        cn.pointset_from_json(doc)


def test_pointset_rejects_bad_index(f5):
    with pytest.raises(DomainError):
        cn.PointSet(h1(f5), [125])


def test_pointset_indicator_consistent(f5):
    ps = cn.extremal_set("two-lines-blocking", f5)
    F = ps.indicator()
    assert F.values.sum() == len(ps)
    for i in ps.indices:
        assert F.values[i] == 1
