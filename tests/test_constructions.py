import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from kakeyalab.field import DomainError, Field
from kakeyalab import field as fd
from kakeyalab import heisenberg as hz
from kakeyalab import maximal as mx
from kakeyalab import constructions as cn
from kakeyalab import cli

import documents as docs
import oracle as ol

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
    bush = cn.extremal_set("bush", f5)
    for L in ol.lines_through_point(ol.HPoint.origin(f5)):
        assert ol.contains_line(bush, L)


def _object_extremal_set(kind, field, n, eta=None):
    """The extremal supports built from point and line objects at the origin:
    the definitional oracle for the index formulas of extremal_set."""
    ar = ol.arithmetic(field)
    origin = ol.HPoint.origin(field, n)
    if kind == "point-mass":
        idx = [origin.index]
    elif kind == "single-line":
        v = ol.enumerate_projective_directions(field, n)[0]
        idx = ol.HorizontalLine(origin, v).point_indices
    elif kind == "bush":
        idx = {i for line in ol.lines_through_point(origin)
               for i in line.point_indices}
    elif kind == "two-lines-blocking":
        idx = {ol.HPoint(field, x, 0, 0).index for x in range(field.q)}
        idx |= {ol.HPoint(field, 0, x, 0).index for x in range(field.q)}
    elif kind == "paraboloid":
        idx = [ol.HPoint(field, x, y, ar.add(
                   ar.mul(x, x), ar.mul(eta, ar.mul(y, y)))).index
               for x in range(field.q) for y in range(field.q)]
    return cn.PointSet(mx.Domain.heisenberg(field, n), idx)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
@pytest.mark.parametrize("n", [1, 2])
def test_extremal_sets_match_object_construction(q, n):
    fld = Field(q)
    ar = ol.arithmetic(fld)
    kinds = ["point-mass", "single-line", "bush"]
    if n == 1:
        kinds.append("two-lines-blocking")
    for kind in kinds:
        assert cn.extremal_set(kind, fld, n) == \
            _object_extremal_set(kind, fld, n), kind
    if n == 1 and q % 2:
        etas = [e for e in range(1, q) if not ar.is_square(ar.neg(e))]
        assert cn.extremal_set("paraboloid", fld) == \
            _object_extremal_set("paraboloid", fld, 1, etas[0])
        for eta in etas:
            assert cn.extremal_set("paraboloid", fld, eta=eta) == \
                _object_extremal_set("paraboloid", fld, 1, eta)


def test_blocking_set_blocks_every_refined_direction(f7):
    # M^rd of the two-line set is >= 1 on all of D_1
    F = cn.extremal_set("two-lines-blocking", f7).indicator()
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
    ar = ol.arithmetic(f5)
    for eta in (2, 3):
        assert not ar.is_square(eta)
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


def _ladder(A, B, q, term, u, v, two_power):
    """The case-by-case certificate check that _cert_inequality replaced,
    kept as the reference: it raises where an exponent does not clear, and
    compares against a float power of q when the exponent is negative."""
    if u == INF and v == INF:
        e = term
        if e.denominator != 1:
            raise DomainError("non-integer exponent at (inf, inf)")
        return A >= q ** int(e)
    if u == INF:
        e = term * int(v)
        if e.denominator != 1:
            raise DomainError("exponent does not clear at u=inf")
        return A >= q ** int(e)
    uu = int(u)
    if u.denominator != 1:
        raise DomainError("exact certificates need integer u")
    if v == INF:
        e = term * uu
        if e.denominator != 1:
            raise DomainError("exponent does not clear at v=inf")
        return A**uu * 2**two_power >= q ** int(e) * B
    vv = int(v)
    e = term * uu * vv
    if e.denominator != 1:
        raise DomainError("exponent does not clear")
    return A**uu * 2 ** (two_power * vv) >= q ** int(e) * B**vv


def _plan_cert_inputs():
    """(operator, n, kind, u, v) of every LOWER_BOUND_PLAN and SLOPE_PLAN pair."""
    out = [(op, n, kind, u, v) for op, n, kind, pairs in cli.LOWER_BOUND_PLAN
           for u, v in pairs]
    out += [(op, n, kind, u, v) for _, op, n, kind, u, v in cli.SLOPE_PLAN]
    return [(op, n, kind, mx.exponent(u), mx.exponent(v))
            for op, n, kind, u, v in out]


def _ladder_threshold(B, q, term, u, v, two):
    """The least A >= 0 that the reference ladder certifies."""
    hi = 1
    while not _ladder(hi, B, q, term, u, v, two):
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if _ladder(mid, B, q, term, u, v, two):
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13])
def test_cert_inequality_matches_ladder_on_every_plan_pair(q):
    fld = Field(q)
    for operator, n, kind, u, v in _plan_cert_inputs():
        terms = mx._REFINED_TERMS if operator == "refined" else mx._HEIS_TERMS
        term = terms[kind](n, mx.recip(u), mx.recip(v))
        two = 1 if kind == "two-lines-blocking" and u != INF else 0
        cases = []
        if n == 1 or q <= 5:
            opvals, support = cn._extremal_op_values(kind, fld, n, operator)
            A = cn._exact_pow_sum(opvals, v)
            cases.append((A, 1 if u == INF else support))
        for B in ((1,) if u == INF else (1, q, 2 * q - 1, q * q)):
            A = _ladder_threshold(B, q, term, u, v, two)
            cases += [(A, B), (A - 1, B)] if A else [(A, B)]
        for A, B in cases:
            want = _ladder(A, B, q, term, u, v, two)
            assert cn._cert_inequality(A, B, q, term, u, v, two) == want, \
                (operator, n, kind, u, v, A, B)


# -- closed-form operator-value profiles -------------------------------------------


def _oracle_profile(operator, kind, field, n):
    """{operator value: count} of the kind's indicator, each value the most
    points of the set on one oracle line of the direction."""
    mask = cn.extremal_set(kind, field, n).mask
    if operator == "refined":
        families = [ol.lines_with_refined_direction(om)
                    for om in ol.enumerate_refined_directions(field, n)]
    else:
        families = [ol.lines_with_direction(field, n, v)
                    for v in ol.enumerate_projective_directions(field, n)]
    return Counter(max(int(mask[list(L.point_indices)].sum()) for L in fam)
                   for fam in families), int(mask.sum())


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (4, 1), (5, 1),
                                 (2, 2), (3, 2)])
def test_extremal_profiles_match_the_oracle_lines(q, n):
    fld = Field(q)
    for operator, kind in cn.EXTREMAL_PROFILES:
        if operator == "refined" and n != 1:
            continue
        assert _oracle_profile(operator, kind, fld, n) \
            == cn.profile_at(operator, kind, n, q), (operator, kind)


@pytest.mark.parametrize("q", [8, 9, 16])
def test_extremal_profiles_match_the_operator_values(q):
    fld = Field(q)
    for operator, kind in cn.EXTREMAL_PROFILES:
        vals, support = cn._extremal_op_values(kind, fld, 1, operator)
        assert (Counter(vals.tolist()), support) \
            == cn.profile_at(operator, kind, 1, q), (operator, kind)


def test_extremal_profiles_have_positive_leading_coefficients():
    # so each sum of count value^v grows exactly at its leading degree
    for profile in cn.EXTREMAL_PROFILES.values():
        for n in (1, 2):
            hist, support = profile(n)
            for poly in [support, *hist, *hist.values()]:
                if any(poly):
                    assert poly[cn._deg(poly)] > 0


def _terms(operator):
    return mx._REFINED_TERMS if operator == "refined" else mx._HEIS_TERMS


def test_profile_degree_is_the_term_of_every_slope_plan_entry():
    for _, operator, n, kind, u, v in cli.SLOPE_PLAN:
        term = _terms(operator)[kind](n, mx.recip(u), mx.recip(v))
        assert cn.profile_degree(operator, kind, n, u, v) == term, kind


def test_profile_degree_clears_every_lower_bound_term():
    for operator, n, kind, pairs in cli.LOWER_BOUND_PLAN:
        for u, v in pairs:
            term = _terms(operator)[kind](n, mx.recip(u), mx.recip(v))
            degree = cn.profile_degree(operator, kind, n, u, v)
            assert isinstance(degree, Fraction)
            assert degree >= term, (operator, n, kind, u, v)


E = mx.exponent

_BOUNDARY_CASES = [
    # equality holds, then one unit below it
    (10, 2, 5, Fraction(1, 2), E(2), E(2), 0, True),       # A = qB
    (9, 2, 5, Fraction(1, 2), E(2), E(2), 0, False),
    (7, 1, 7, Fraction(1), E(INF), E(INF), 0, True),        # A = q
    (6, 1, 7, Fraction(1), E(INF), E(INF), 0, False),
    (49, 1, 7, Fraction(2), E(INF), E(1), 0, True),         # A = q^2
    (48, 1, 7, Fraction(2), E(INF), E(1), 0, False),
    (5, 5, 5, Fraction(1, 2), E(2), E(INF), 0, True),       # A^2 = qB
    (4, 5, 5, Fraction(1, 2), E(2), E(INF), 0, False),
    (49, 14, 7, Fraction(1, 2), E(2), E(2), 1, True),       # 2A = qB
    (48, 14, 7, Fraction(1, 2), E(2), E(2), 1, False),
    # a negative term: A >= q^-2 B, i.e. q^2 A >= B
    (1, 9, 3, Fraction(-2), E(1), E(INF), 0, True),
    (1, 10, 3, Fraction(-2), E(1), E(INF), 0, False),
    # ... at sizes where the float q^-2 B rounds down to A
    (10**20, 9 * 10**20 + 1, 3, Fraction(-2), E(1), E(INF), 0, False),
    # a non-integer u: A^(1/2) >= q^(1/3) B^(2/3), i.e. A^3 >= q^2 B^4
    (4, 2, 2, Fraction(1, 3), E(Fraction(3, 2)), E(2), 0, True),
    (3, 2, 2, Fraction(1, 3), E(Fraction(3, 2)), E(2), 0, False),
]


# each case's id names u and v by its position, whatever their type
@pytest.mark.parametrize(
    "A,B,q,term,u,v,two,holds", _BOUNDARY_CASES,
    ids=[f"{A}-{B}-{q}-term{i}-u{i}-v{i}-{two}-{holds}"
         for i, (A, B, q, _, _, _, two, holds) in enumerate(_BOUNDARY_CASES)])
def test_cert_inequality_boundary_cases(A, B, q, term, u, v, two, holds):
    assert cn._cert_inequality(A, B, q, term, u, v, two) is holds


def test_ladder_float_power_errs_on_a_negative_term():
    # the float q^-2 B of the reference rounds down to A and passes
    args = (10**20, 9 * 10**20 + 1, 3, Fraction(-2), E(1), E(INF), 0)
    assert _ladder(*args) and not cn._cert_inequality(*args)


def test_negative_term_certificate_is_exact(f5):
    rep = cn.lower_bound_ratio("constant", f5, 1, INF)
    assert rep.term == -2 and rep.cert_holds   # max M^rd = q, support q^3


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


def _first_missing_by_whole_table(ps):
    # the whole-table reduction is_affine_kakeya replaced, over the stack
    # of every block
    dirs, table = mx.affine_incidence(ps.domain.field, ps.domain.n)
    contained = ps.mask[table[:]].all(axis=2).any(axis=1)
    for i, ok in enumerate(contained):
        if not ok:
            return False, tuple(dirs[i].tolist())
    return True, None


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("d", [2, 3])
def test_affine_kakeya_matches_whole_table_reduction(d, q):
    f = Field(q)
    dom = mx.Domain.affine(f, d)
    dirs, table = mx.affine_incidence(f, d)
    table = table[:]  # the stacked blocks when d = 3
    rows = np.arange(table.shape[1])
    for target in (0, len(dirs) // 2, len(dirs) - 1):
        # drop one point of every line of the target direction; the seeds
        # are scanned for a set whose first missing direction is the target
        for seed in range(200):
            cols = mx.seeded_rng(d, q, target, seed).integers(q, size=len(rows))
            mask = np.ones(dom.size, dtype=bool)
            mask[table[target, rows, cols]] = False
            ps = cn.PointSet.from_mask(dom, mask)
            want = _first_missing_by_whole_table(ps)
            if want == (False, tuple(dirs[target].tolist())):
                break
        else:
            pytest.fail(f"no set misses direction {target} first")
        assert cn.is_affine_kakeya(ps) == want
    full = cn.PointSet.full(dom)
    assert cn.is_affine_kakeya(full) == _first_missing_by_whole_table(full)


def _traced_peak(call):
    """(call(), tracemalloc's peak bytes during it)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_f3_set_checks_hold_no_table_sized_array(monkeypatch):
    # at q = 27 the stored F_q^3 table took 29.8 MB as uint16; the checks
    # read it a block (157 KB as np.intp) at a time, from an empty cache
    f = Field(27)
    d1 = len(hz.enumerate_refined_directions(f, 1))
    para = cn.extremal_set("paraboloid", f)  # Omega_2 all of D_1
    bent = cn.straighten(cn.example_refined_not_affine(f), 1, "slope")
    e1 = cn.example_affine_not_refined(f, (1, 0, 0))
    for ps, omega2, witnessed in ((para, d1, 0), (bent, 728, 728),
                                  (e1, 28, 28)):
        monkeypatch.setattr(fd, "_FIELD_TABLES", {})
        _, peak = _traced_peak(lambda: cn.is_affine_kakeya(
            cn.as_affine_set(ps)))
        assert peak < 4e6
        monkeypatch.setattr(fd, "_FIELD_TABLES", {})
        rep, peak = _traced_peak(lambda: cn.omega_partition(ps))
        assert peak < 4e6
        assert len(rep.omega2) == omega2
        assert len(rep.chosen_lines) == witnessed


def test_affine_kakeya_needs_affine_domain(f5):
    with pytest.raises(DomainError):
        cn.is_affine_kakeya(cn.PointSet.full(h1(f5)))


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_example_affine_not_refined(q):
    fld = Field(q)
    dirs = ol.enumerate_refined_directions(fld, 1)
    for om0 in (dirs[0], dirs[len(dirs) // 2], dirs[-1]):
        e = cn.example_affine_not_refined(fld, om0.rep)
        assert len(e) == q**3 - q
        ok, _ = cn.is_affine_kakeya(cn.as_affine_set(e))
        assert ok
        full, witness = cn.is_full_refined_kakeya(e)
        assert not full
        # om0 itself is a verified witness: every om0-line meets the fiber
        assert not any(ol.contains_line(e, L)
                       for L in ol.lines_with_refined_direction(om0))


def _mu_by_field_ops(fld, rep, x0, y0):
    # the definition: c - (x0 b - y0 a)
    ar = ol.arithmetic(fld)
    a, b, c = rep
    return ar.sub(c, ar.sub(ar.mul(x0, b), ar.mul(y0, a)))


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_best_contained_line_matches_object_scan(q):
    # oracle: walk the AffineLine objects in scan order, keep the first
    # contained line of smallest mu
    fld = Field(q)
    dirs = ol.enumerate_refined_directions(fld, 1)
    # a dense random set less a few vertical fibers: each fiber blocks the
    # q + 1 refined directions whose lines all cross it
    rng = mx.seeded_rng(q)
    mask = rng.random(q**3) < 0.97
    mask.reshape(q * q, q)[rng.choice(q * q, q // 2 + 1, replace=False)] = 0
    fibers = cn.PointSet.from_mask(h1(fld), mask)
    sparse = cn.PointSet.from_mask(h1(fld), rng.random(q**3) < 0.5)
    for e in (cn.example_affine_not_refined(fld, dirs[len(dirs) // 2].rep),
              fibers, sparse):
        rep = cn.omega_partition(e)
        ae = cn.as_affine_set(e)
        assert rep.omega2.size
        for i in rep.omega2.tolist():
            om = dirs[i]
            want = want_mu = None
            for line in ol.affine_lines_with_direction(fld, 3, om.rep):
                if ol.contains_line(ae, line):
                    mu = _mu_by_field_ops(fld, om.rep, *line.base[:2])
                    if want is None or mu < want_mu:
                        want, want_mu = line, mu
            if want is None:
                assert i in rep.unwitnessed and i not in rep.chosen_lines
                continue
            assert tuple(rep.chosen_lines[i]) == want.point_indices
            assert i in rep.slices[want_mu]


def test_example_11_1_every_line_meets_removed_fiber(f5):
    om0 = ol.RefinedDirection(f5, (1, 2, 3))
    e = cn.example_affine_not_refined(f5, om0.rep)
    removed = cn.PointSet.from_mask(e.domain, ~e.mask)
    for L in ol.lines_with_refined_direction(om0):
        assert any(p.index in removed.indices for p in L.points)


def _bent_lines_by_points(fld):
    # the definitional oracle: every point of the example as an HPoint
    ar = ol.arithmetic(fld)
    q = fld.q
    idx = set()
    for m in range(q):
        m2 = ar.mul(m, m)
        for g in range(q):
            for x in range(q):
                y = ar.sub(ar.mul(m, x), g)
                t = ar.add(m2, ar.mul(g, x))
                idx.add(ol.HPoint(fld, x, y, t).index)
    for g in range(q):
        for y in range(q):
            idx.add(ol.HPoint(fld, g, y, ar.mul(g, y)).index)
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
    assert witness == (0, 0, 1)
    assert cn.vertical_fiber_sizes(e).max() <= (q + 3) // 2


def test_example_11_2_rejects_bad_q():
    with pytest.raises(DomainError):
        cn.example_refined_not_affine(Field(3))
    with pytest.raises(DomainError):
        cn.example_refined_not_affine(Field(4))


def test_example_11_2_slope_fiber_is_translated_squares(f5):
    # the slope-chart t-values over (x0, y0) form a translate of the squares
    ar = ol.arithmetic(f5)
    squares = {ar.mul(s, s) for s in range(5)}
    for x0 in range(5):
        for y0 in range(5):
            tvals = set()
            for m in range(5):
                g = ar.sub(ar.mul(m, x0), y0)
                tvals.add(ar.add(ar.mul(m, m), ar.mul(g, x0)))
            assert len(tvals) <= 3  # (q+1)/2
            assert any(tvals == {ar.add(sq, c) for sq in squares}
                       for c in range(5))


# -- mu and straightening ---------------------------------------------------------


def _line_set(fld, base, rep):
    # an expected line of F_q^3, as the point set of its AffineLine
    return cn.PointSet(mx.Domain.affine(fld, 3),
                       ol.AffineLine(fld, base, rep).point_indices)


def test_mu_zero_iff_horizontal(f5):
    # oracle: the point sets of all horizontal lines of H_1
    horizontal = {frozenset(L.point_indices)
                  for om in ol.enumerate_refined_directions(f5, 1)
                  for L in ol.lines_with_refined_direction(om)}
    x0, y0 = np.indices((5, 5)).reshape(2, -1)
    for v in ol.enumerate_directions(f5, 3)[:-1]:   # all but [0:0:1]
        mus = cn.mu_parameter(f5, v.rep, x0, y0)
        assert mus.shape == (25,)
        for x, y, mu in zip(x0, y0, mus):
            line = ol.AffineLine(f5, (x, y, 0), v)
            assert (mu == 0) == (frozenset(line.point_indices) in horizontal)


def test_mu_example_line(f5):
    # {(s, 0, s)}
    mu = cn.mu_parameter(f5, (1, 0, 1), 0, 0)
    assert mu == 1 and type(mu) is int


def test_mu_basepoint_independent_exhaustive(f5):
    for v in ol.enumerate_directions(f5, 3)[:-1]:
        for line in ol.affine_lines_with_direction(f5, 3, v):
            x, y, _ = np.array(line.points).T
            mus = cn.mu_parameter(f5, v.rep, x, y)
            assert set(mus.tolist()) == {
                _mu_by_field_ops(f5, v.rep, *line.base[:2])}


def test_mu_rejects_vertical(f5):
    with pytest.raises(DomainError, match="vertical"):
        cn.mu_parameter(f5, (0, 0, 1), 0, 0)
    with pytest.raises(DomainError, match="vertical"):
        cn.mu_parameter(f5, (np.array([1, 0]), np.array([2, 0]), 1), 0, 0)


@pytest.mark.parametrize("args", [
    ((1, 2, 3), 5, 0),                    # x0 outside F_5
    ((1, 2, 3), 0, np.array([0, -1])),    # -1 would read the last entry
    ((1, 2, 3), True, 0),
    ((1, 2, 3), 0.0, 0),
    ((1, 2), 0, 0),
])
def test_mu_rejects_non_indices(f5, args):
    with pytest.raises(DomainError):
        cn.mu_parameter(f5, *args)


def test_straighten_line_example(f5):
    st = cn.straighten(_line_set(f5, (0, 0, 0), (1, 0, 1)), 1, "slope")
    assert st == _line_set(f5, (0, 0, 0), (1, 0, 0))    # {(s, 0, 0)}


def test_straighten_involution(f5):
    ar = ol.arithmetic(f5)
    line = _line_set(f5, (2, 1, 3), (1, 4, 2))
    k = 3
    back = cn.straighten(cn.straighten(line, k, "slope"), ar.neg(k), "slope")
    assert back == line
    ps = cn.extremal_set("bush", f5)
    back2 = cn.straighten(cn.straighten(ps, k, "vertical"), ar.neg(k),
                          "vertical")
    assert back2 == ps


def test_straighten_shifts_refined_direction(f5):
    # image of a mu = k line is horizontal with direction [1:m:g-k]
    ar = ol.arithmetic(f5)
    for m in range(5):
        for g in range(5):
            for k in range(1, 5):
                # base (0, y0) with mu = g - (m*0 - y0) = g + y0 = k
                y0 = ar.sub(k, g)
                assert cn.mu_parameter(f5, (1, m, g), 0, y0) == k
                st = cn.straighten(_line_set(f5, (0, y0, 0), (1, m, g)), k,
                                   "slope")
                image = (1, m, ar.sub(g, k))
                assert st == _line_set(f5, (0, y0, 0), image)
                assert cn.mu_parameter(f5, image, 0, y0) == 0


def test_straighten_vertical_chart(f5):
    # vertical chart: mu = g - x0, straightened by (x,y,t) -> (x,y,t-ky)
    ar = ol.arithmetic(f5)
    for g in range(5):
        for k in range(1, 5):
            x0 = ar.sub(g, k)
            assert cn.mu_parameter(f5, (0, 1, g), x0, 0) == k
            st = cn.straighten(_line_set(f5, (x0, 0, 0), (0, 1, g)), k,
                               "vertical")
            image = (0, 1, ar.sub(g, k))
            assert st == _line_set(f5, (x0, 0, 0), image)
            assert cn.mu_parameter(f5, image, x0, 0) == 0


def test_straighten_is_bijective_on_sets(f5):
    ar = ol.arithmetic(f5)
    ps = cn.extremal_set("paraboloid", f5)
    image = cn.straighten(ps, 2, "slope")
    assert len(image) == len(ps)
    assert cn.straighten(image, ar.neg(2), "slope") == ps


@pytest.mark.parametrize("q", [4, 5, 9])
def test_straighten_set_matches_the_point_map(q):
    # oracle: each point's image under the shear, by the field operations
    fld = Field(q)
    ar = ol.arithmetic(fld)
    rng = mx.seeded_rng(q)
    ps = cn.PointSet.from_mask(h1(fld), rng.random(q**3) < 0.3)
    for chart in ("slope", "vertical"):
        for k in range(1, q):
            want = []
            for i in ps.indices:
                x, y, t = i // (q * q), i // q % q, i % q
                t = ar.sub(t, ar.mul(k, x if chart == "slope" else y))
                want.append((x * q + y) * q + t)
            assert cn.straighten(ps, k, chart).indices == sorted(want)


def test_straighten_rejects_zero_k(f5):
    ps = cn.extremal_set("bush", f5)
    with pytest.raises(DomainError):
        cn.straighten(ps, 0, "slope")
    with pytest.raises(DomainError):
        cn.straighten(ps, 1, "diagonal")


@pytest.mark.parametrize("obj", [
    lambda f: ol.HPoint(f, (1, 1), (1, 1), 1),
    lambda f: ol.AffineLine(f, (0, 0), (1, 2)),
    lambda f: cn.PointSet.full(mx.Domain.heisenberg(f, 2)),
    lambda f: cn.extremal_set("bush", f).indicator(),
    lambda f: cn.PointSet.full(mx.Domain.affine(f, 2)),
    # straighten takes point sets only, so objects of H_1 and F_q^3 too
    lambda f: ol.HPoint(f, 1, 1, 1),
    lambda f: ol.AffineLine(f, (0, 0, 0), (1, 2, 3)),
])
def test_straighten_rejects_objects_outside_h1(f5, obj):
    with pytest.raises(DomainError):
        cn.straighten(obj(f5), 1, "slope")


# -- omega partition ---------------------------------------------------------------


def test_omega_partition_full_space(f5):
    rep = cn.omega_partition(cn.PointSet.full(h1(f5)))
    assert len(rep.omega1) == 30 and not rep.omega2.size
    assert rep.m == 5
    assert not rep.slices and not rep.unwitnessed.size


def test_omega_partition_example_11_1(f5):
    ar = ol.arithmetic(f5)
    dirs = ol.enumerate_refined_directions(f5, 1)
    om0 = ol.RefinedDirection(f5, (1, 1, 2))
    e = cn.example_affine_not_refined(f5, om0.rep)
    rep = cn.omega_partition(e)
    assert dirs.index(om0) in rep.omega2
    assert len(rep.omega1) + len(rep.omega2) == 30
    assert rep.chosen_lines
    for i, row in rep.chosen_lines.items():
        om = dirs[i]
        # the row is a contained affine line of direction om, from its base
        x0, y0, t0 = ol.affine_point_from_index(f5, 3, int(row[0]))
        assert tuple(row) == ol.AffineLine(f5, (x0, y0, t0),
                                           om.rep).point_indices
        assert e.mask[row].all()
        line = _line_set(f5, (x0, y0, t0), om.rep)
        mu = cn.mu_parameter(f5, om.rep, x0, y0)
        assert mu != 0 and i in rep.slices[mu]
        chart = om.chart()[0]
        shear = ar.mul(mu, x0 if chart == "slope" else y0)
        image = (*om.rep[:2], ar.sub(om.rep[2], mu))
        assert cn.straighten(line, mu, chart) == \
            _line_set(f5, (x0, y0, ar.sub(t0, shear)), image)
        assert cn.mu_parameter(f5, image, x0, y0) == 0
    slice_members = [i for oms in rep.slices.values() for i in oms.tolist()]
    assert sorted(slice_members) == \
        [i for i in rep.omega2.tolist() if i not in rep.unwitnessed]
    assert 0 not in rep.slices


def _omega_partition_by_objects(ps):
    """The partition from the oracle's direction and line objects: Omega_1
    by a contained normal-form line, and for the rest the first contained
    affine line of smallest mu in scan order."""
    fld = ps.domain.field
    ae = cn.as_affine_set(ps)
    omega1, omega2, unwitnessed, slices, chosen, mvals = [], [], [], {}, {}, []
    for om in ol.enumerate_refined_directions(fld, 1):
        lines = ol.lines_with_refined_direction(om)
        mvals.append(max(int(ps.mask[list(L.point_indices)].sum())
                         for L in lines))
        if any(ol.contains_line(ps, L) for L in lines):
            omega1.append(om)
            continue
        omega2.append(om)
        best = best_mu = None
        for line in ol.affine_lines_with_direction(fld, 3, om.rep):
            mu = _mu_by_field_ops(fld, om.rep, *line.base[:2])
            if ol.contains_line(ae, line) and (best is None or mu < best_mu):
                best, best_mu = line, mu
        if best is None:
            unwitnessed.append(om)
        else:
            chosen[om] = best.point_indices
            slices.setdefault(best_mu, []).append(om)
    return omega1, omega2, unwitnessed, slices, chosen, mvals


def _oracle_sets(fld):
    q = fld.q
    rng = mx.seeded_rng(q, 11)
    mask = rng.random(q**3) < 0.97
    mask.reshape(q * q, q)[rng.choice(q * q, q // 2 + 1, replace=False)] = 0
    dirs = ol.enumerate_refined_directions(fld, 1)
    return [cn.PointSet.full(h1(fld)), cn.PointSet.from_mask(h1(fld), mask),
            cn.PointSet.from_mask(h1(fld), rng.random(q**3) < 0.5),
            cn.example_affine_not_refined(fld, dirs[len(dirs) // 3].rep),
            cn.extremal_set("single-line", fld), cn.extremal_set("bush", fld)]


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_omega_partition_matches_object_run(q):
    fld = Field(q)
    dirs = ol.enumerate_refined_directions(fld, 1)
    for e in _oracle_sets(fld):
        rep = cn.omega_partition(e)
        omega1, omega2, unwitnessed, slices, chosen, mvals = \
            _omega_partition_by_objects(e)
        assert [dirs[i] for i in rep.omega1] == omega1
        assert [dirs[i] for i in rep.omega2] == omega2
        assert [dirs[i] for i in rep.unwitnessed] == unwitnessed
        assert {k: [dirs[i] for i in v] for k, v in rep.slices.items()} == \
            slices
        assert {dirs[i]: tuple(row.tolist())
                for i, row in rep.chosen_lines.items()} == chosen
        assert rep.max_values.tolist() == mvals and rep.m == min(mvals)
        assert rep.omega1_bound == q * len(omega1) / 25.0


def _kakeya_bound_by_objects(ps, omega, m, u, v):
    """(lhs, rhs) of the size bound over a list of direction objects, each
    checked for a witnessing line of the oracle with >= m points."""
    fld = ps.domain.field
    for om in omega:
        if max(int(ps.mask[list(L.point_indices)].sum())
               for L in ol.lines_with_refined_direction(om)) < m:
            raise DomainError(f"direction {om} has no witnessing line")
    u, v = mx.exponent(u), mx.exponent(v)
    uu = float(u)
    omega_pow = 1.0 if v == INF else len(omega) ** (uu / float(v))
    rhs = mx.rd_upper_constant(u, v) ** -uu * m ** uu * omega_pow \
        * mx.q_pow(fld.q, -u * mx.exponent_Ard(u, v))
    return float(len(ps)), rhs


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_kakeya_bound_report_matches_object_run(q):
    fld = Field(q)
    dirs = ol.enumerate_refined_directions(fld, 1)
    rng = mx.seeded_rng(q, 12)
    for e in _oracle_sets(fld):
        mvals = _omega_partition_by_objects(e)[-1]
        picks = [np.arange(len(dirs)),
                 np.sort(rng.choice(len(dirs), size=q + 1, replace=False))]
        for idx in picks:
            for m in (1, min(mvals[i] for i in idx), q):
                omega = [dirs[i] for i in idx]
                try:
                    want = _kakeya_bound_by_objects(e, omega, m, 2, 4)
                except DomainError as exc:
                    with pytest.raises(DomainError) as got:
                        cn.kakeya_bound_report(e, idx, m, 2, 4)
                    assert str(got.value).split()[1] == str(exc).split()[1]
                    continue
                rep = cn.kakeya_bound_report(e, idx, m, 2, 4)
                assert (rep.lhs, rep.rhs) == want
                assert rep.holds == (want[0] * (1 + mx.REL_TOL) >= want[1])


@pytest.mark.parametrize("omega,match", [
    *(([bad], "indices into D_1") for bad in (0.0, True, -1, 30, "0")),
    ([[0, 1]], "indices into D_1"),
    # a repeated direction would inflate |Omega|: the one-line set has
    # |E| = 5 but [0] * 1000 asked for |E| >= 200 at (2, 2)
    ([0] * 1000, "twice"),
])
def test_kakeya_bound_report_refuses_bad_indices(f5, omega, match):
    with pytest.raises(DomainError, match=match):
        cn.kakeya_bound_report(cn.extremal_set("single-line", f5), omega, 5,
                               2, 2)


# -- size and moment reports ---------------------------------------------------------


def test_kakeya_bound_full_space(f5):
    rep = cn.kakeya_bound_report(cn.PointSet.full(h1(f5)), range(30), 5, 2, 2)
    assert rep.holds
    assert rep.lhs == 125
    assert rep.rhs == pytest.approx((1 / 25) * 25 * 30 / 5)
    assert rep.constant_used == pytest.approx(5.0)


def test_kakeya_bound_checks_witnesses(f5):
    line_set = cn.extremal_set("single-line", f5)
    with pytest.raises(DomainError, match=r"direction \[1:0:1\]"):
        cn.kakeya_bound_report(line_set, range(30), 5, 2, 2)


def test_kakeya_bound_refined_kakeya_set(f7):
    e = cn.example_refined_not_affine(f7)
    rep = cn.kakeya_bound_report(e, range(56), 7, 2, 2)
    assert rep.holds
    # |E| >= q|Omega|/25 with m = q
    assert rep.rhs == pytest.approx(49 * 56 / (25 * 7))


def test_kakeya_bound_rejects_infinite_u(f5):
    with pytest.raises(DomainError):
        cn.kakeya_bound_report(cn.PointSet.full(h1(f5)), range(30), 5, INF, 2)


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
    doc = json.loads(json.dumps(docs.pointset_to_json(ps)))
    back = docs.pointset_from_json(doc)
    assert back == ps
    assert doc["points"] == sorted(doc["points"])


@pytest.mark.parametrize("edit", [{"q": "x"}, {"points": ["a"]},
                                  {"n": "one"}, {"q": 1e400},
                                  {"points": [1e400]}, {"n": 1e400}])
def test_pointset_json_value_errors_are_domain_errors(f5, edit):
    doc = docs.pointset_to_json(cn.extremal_set("bush", f5))
    doc.update(edit)
    with pytest.raises(DomainError, match="malformed"):
        docs.pointset_from_json(doc)


def test_pointset_rejects_bad_index(f5):
    with pytest.raises(DomainError):
        cn.PointSet(h1(f5), [125])


@pytest.mark.parametrize("index", [True, np.True_, 1.5, np.float64(2.0), "3"])
def test_pointset_rejects_non_integer_index(f5, index):
    # mask[True] would mark every point, and a float would raise IndexError
    with pytest.raises(DomainError, match="must be an integer"):
        cn.PointSet(h1(f5), [0, index])


@pytest.mark.parametrize("dtype", [np.intp, np.int32, np.uint8, np.uint64])
def test_pointset_from_index_array_matches_per_element(f5, dtype):
    idx = np.array([124, 0, 7, 7, 63], dtype=dtype)
    ps = cn.PointSet(h1(f5), idx)
    assert ps == cn.PointSet(h1(f5), idx.tolist())
    assert ps.indices == [0, 7, 63, 124]
    assert len(cn.PointSet(h1(f5), np.array([], dtype=dtype))) == 0


@pytest.mark.parametrize("idx", [np.array([0, 125]), np.array([3, -1]),
                                 np.array([-1], dtype=np.int8), [-1]])
def test_pointset_rejects_an_index_outside_the_domain(f5, idx):
    # mask[-1] would mark the last point
    with pytest.raises(DomainError, match="outside the domain"):
        cn.PointSet(h1(f5), idx)


@pytest.mark.parametrize("idx", [np.array([0.0, 2.0]), np.array([True]),
                                 np.array([[0, 1]])])
def test_pointset_rejects_a_non_integer_index_array(f5, idx):
    with pytest.raises(DomainError, match="must be an integer"):
        cn.PointSet(h1(f5), idx)


def test_pointset_indicator_consistent(f5):
    ps = cn.extremal_set("two-lines-blocking", f5)
    F = ps.indicator()
    assert F.values.sum() == len(ps)
    for i in ps.indices:
        assert F.values[i] == 1
