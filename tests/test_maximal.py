import json
import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kakeyalab.field import DomainError, Field, field_table
from kakeyalab import constructions as cn
from kakeyalab import fourier as fr
from kakeyalab import heisenberg as hz
from kakeyalab import maximal as mx

import documents as docs
import oracle as ol

INF = math.inf


@pytest.fixture(scope="module")
def f3():
    return Field(3)


@pytest.fixture(scope="module")
def f5():
    return Field(5)


@pytest.fixture(scope="module")
def f7():
    return Field(7)


def h1(field):
    return mx.Domain.heisenberg(field, 1)


# -- exponent formulas --------------------------------------------------------


def test_exponent_A_examples():
    assert mx.exponent_A(1, 2, 2) == Fraction(1, 2)
    assert mx.exponent_A(1, INF, 1) == 2
    assert mx.exponent_A(2, 4, 4) == Fraction(3, 4)


def test_exponent_Ard_examples():
    assert mx.exponent_Ard(3, 3) == Fraction(2, 3)
    assert mx.exponent_Ard(2, 2) == Fraction(1, 2)
    assert mx.exponent_Ard(1, 1) == 1


def test_exponent_formula_dominates_terms():
    # each formula is the paper's max of its terms, written out here
    grid = [1, Fraction(4, 3), Fraction(3, 2), 2, 3, 4, INF]
    for u in grid:
        ru = mx.recip(u)
        for v in grid:
            rv = mx.recip(v)
            for n in (1, 2):
                assert mx.exponent_A(n, u, v) == max(
                    (2 * n - 1) * rv, 1 - ru,
                    1 + (2 * n - 1) * rv - 2 * n * ru)
            ard = mx.exponent_Ard(u, v)
            assert ard == max(rv, 1 - ru, 2 * rv - ru, 1 + 2 * rv - 3 * ru)
            # refined operator sees more directions: never a smaller exponent
            assert ard >= mx.exponent_A(1, u, v)


def test_extended_exponent_parsing():
    assert mx.exponent("3/2") == Fraction(3, 2)
    assert type(mx.exponent(2)) is Fraction
    assert mx.exponent(1.5) == Fraction(3, 2)
    for text in ("inf", "infty", "oo"):
        assert mx.exponent(text) == INF
    assert mx.recip(2) == Fraction(1, 2)
    assert mx.recip(INF) == 0 and type(mx.recip(INF)) is Fraction
    assert mx.recip("oo") == 0
    # an exponent already read comes back as given, with no parsing
    three_halves = Fraction(3, 2)
    assert mx.exponent(three_halves) is three_halves
    assert mx.exponent(INF) is INF
    for bad in (Fraction(1, 2), Fraction(0), -INF, math.nan, True):
        with pytest.raises(DomainError):
            mx.exponent(bad)
    with pytest.raises(DomainError):
        mx.recip(Fraction(1, 2))


def _tau2(u):
    """tau_2(u): 1/u for u <= 2, else 1 - 1/u."""
    ru = mx.recip(u)
    return ru if ru >= Fraction(1, 2) else 1 - ru


# The region exponents of the off-diagonal bounds, each written by hand.
_REGION_EXPONENTS = {
    "upperleft": lambda ru, rv: 1 + rv - 2 * ru,
    "flat": lambda ru, rv: 1 - ru,
    "dualflat": lambda ru, rv: 1 - ru,
    "steep": lambda ru, rv: rv,
    "middle": lambda ru, rv: rv,
}


@pytest.mark.parametrize("q", [3, 5, 9])
def test_bound_catalogs_are_pinned(q):
    sqrt2 = math.sqrt(2)
    want = [
        ("planar-l1", "affine", 1, 1, q + 1, 0),
        ("planar-l2", "affine", 2, 2, sqrt2, Fraction(1, 2)),
        ("planar-linf", "affine", INF, INF, 1.0, 1),
        ("rd-1-to-inf", "refined", 1, INF, 1.0, 0),
        ("rd-inf-to-inf", "refined", INF, INF, 1.0, 1),
        ("rd-1-to-1", "refined", 1, 1, q + 1, 0),
        ("rd-l2-sharp", "refined", 2, 2, 5.0, Fraction(1, 2)),
    ]
    for u in (1, Fraction(3, 2), 2, 3, 4, INF):
        label = "inf" if u == INF else str(u)
        want += [(f"planar-diag-u={label}", "affine", u, u, sqrt2, _tau2(u)),
                 (f"heis-diag-u={label}", "heis", u, u, sqrt2, _tau2(u)),
                 (f"rd-diag-u={label}", "refined", u, u,
                  mx.rd_diag_constant(u), _tau2(u))]
    regions = [
        ("upperleft", 2 * sqrt2, [(2, 1), (4, 2), (INF, 1), (INF, 2), (3, 3)]),
        ("flat", sqrt2, [(2, 3), (2, INF), (3, 4), (4, INF)]),
        ("dualflat", sqrt2, [(2, 2), (Fraction(3, 2), 3),
                             (Fraction(3, 2), INF), (Fraction(4, 3), 4)]),
        ("steep", 2.0, [(2, 1), (Fraction(3, 2), 1), (2, Fraction(3, 2)),
                        (1, 1)]),
        ("middle", 2 * sqrt2, [(Fraction(3, 2), 2), (Fraction(4, 3), 3),
                               (1, 2), (1, INF)]),
    ]
    for region, constant, pairs in regions:
        for u, v in pairs:
            alpha = _REGION_EXPONENTS[region](mx.recip(u), mx.recip(v))
            names = ["inf" if x == INF else str(x) for x in (u, v)]
            want.append((f"heis-{region}-({names[0]},{names[1]})", "heis",
                         u, v, constant, alpha))
    got = [(s.name, s.operator, s.u, s.v, s.constant, s.alpha)
           for s in mx.bound_catalog(q) + mx.offdiag_catalog()]
    assert got == want
    for spec in mx.bound_catalog(q) + mx.offdiag_catalog():
        for x in (spec.u, spec.v):
            assert x == INF or type(x) is Fraction
        assert type(spec.alpha) is Fraction


# -- norms ---------------------------------------------------------------------


def test_lp_norm_all_ones():
    g = np.ones(9)
    assert mx.lp_norm(g, 2) == pytest.approx(3.0)
    assert mx.lp_norm(g, 1) == pytest.approx(9.0)
    assert mx.lp_norm(g, INF) == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=40))
def test_lp_norm_embeddings(vals):
    g = np.array(vals)
    n = len(vals)
    # Both embedding directions: ||g||_s <= ||g||_r (r <= s) and the
    # reverse with the counting factor N^(1/r - 1/s).
    assert mx.lp_norm(g, INF) <= mx.lp_norm(g, 1) + 1e-9
    assert mx.lp_norm(g, 2) <= mx.lp_norm(g, 1) + 1e-9
    assert mx.lp_norm(g, 1) <= math.sqrt(n) * mx.lp_norm(g, 2) + 1e-9
    assert mx.lp_norm(g, 2) <= math.sqrt(n) * mx.lp_norm(g, INF) + 1e-9


def test_lp_norm_rescales_outside_double_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mx.lp_norm([1e200, 1e200], 3) == pytest.approx(
            2 ** (1 / 3) * 1e200, rel=1e-14)
        assert mx.lp_norm([1e200, 1e200], 2) == pytest.approx(
            math.sqrt(2) * 1e200, rel=1e-14)
        assert mx.lp_norm([1e-200], 3) == pytest.approx(1e-200, rel=1e-14)
        assert mx.lp_norm([3e-170, 4e-170], 2) == pytest.approx(5e-170,
                                                               rel=1e-14)


def test_lp_norm_ordinary_inputs_keep_their_bits():
    g = np.abs(mx.random_complex_grid(h1(Field(5)), mx.seeded_rng(4)).values)
    assert mx.lp_norm(g, 3) == float((g**3.0).sum() ** (1.0 / 3.0))
    assert mx.lp_norm(g, 2) == float(math.sqrt((g * g).sum()))


_REAL_TABLES = {
    "float64": np.array([0.5, -3.25, 7.0, 0.0, -1e-3, 2.5e3]),
    "float64-large": np.array([1e200, -3e200, 2e199, 0.0, 5e200, 1.0]),
    "float64-small": np.array([1e-200, -3e-200, 2e-201, 0.0, 4e-200, 0.0]),
    # entries >= 2^32: an int64 product a * a would wrap
    "int64": np.array([2**32 + 5, -(2**33), 3 * 2**40, 7, 0, -(2**62)]),
    "bool": np.array([True, False, True, True, False, True]),
}


@pytest.mark.parametrize("name", sorted(_REAL_TABLES))
@pytest.mark.parametrize("u", [1, Fraction(3, 2), 2, 3, 4, INF])
def test_lp_norm_of_a_real_table_equals_its_complex_cast(name, u):
    # a real table skips the complex128 copy; the bits stay those of it
    g = _REAL_TABLES[name]
    assert mx.lp_norm(g, u) == mx.lp_norm(g.astype(np.complex128), u)
    rows = g.reshape(2, 3)
    got = mx.lp_norm(rows, u, axis=1)
    assert got.tobytes() == \
        mx.lp_norm(rows.astype(np.complex128), u, axis=1).tobytes()


@pytest.mark.parametrize("u", [1, Fraction(3, 2), 2, 3, INF])
def test_lp_norm_along_an_axis_equals_each_slice(u):
    g = mx.random_complex_grid(h1(Field(5)), mx.seeded_rng(5)).values
    rows = g.reshape(25, 5)
    rows = np.vstack([rows, 1e200 * rows[:2], 1e-200 * rows[:2]])
    want = [mx.lp_norm(r, u) for r in rows]
    # one ulp apart at most: numpy's array power may round unlike a scalar's
    np.testing.assert_allclose(mx.lp_norm(rows, u, axis=1), want, rtol=5e-16)
    np.testing.assert_allclose(mx.lp_norm(rows.T, u, axis=0), want,
                               rtol=5e-16)


# -- operators -----------------------------------------------------------------


def test_affine_max_op_point_mass(f5):
    f = mx.GridFunction.delta(mx.Domain.affine(f5, 2))
    assert np.array_equal(mx.affine_max_op(f), np.ones(6))


def test_affine_max_op_constant(f5):
    f = mx.GridFunction.constant(mx.Domain.affine(f5, 2))
    assert np.array_equal(mx.affine_max_op(f), np.full(6, 5))


def test_heis_max_op_delta(f5):
    F = mx.GridFunction.delta(h1(f5))
    assert np.array_equal(mx.heis_max_op(F), np.ones(6))


def test_heis_max_op_line_indicator(f5):
    v = ol.ProjectiveDirection(f5, (1, 2))
    L = ol.HorizontalLine(ol.HPoint(f5, 0, 1, 3), v)
    F = cn.PointSet(h1(f5), L.point_indices).indicator()
    vals = mx.heis_max_op(F)
    dirs = ol.enumerate_projective_directions(f5, 1)
    assert vals[dirs.index(v)] == 5


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (3, 2), (5, 2)])
def test_heis_max_op_keeps_an_integer_input_integer(q, n):
    # an exact count has the same dtype at every rank, and the values of
    # the same input as floats
    f = Field(q)
    for kind in ("point-mass", "single-line", "bush"):
        F = cn.extremal_set(kind, f, n).indicator()
        assert F.values.dtype == np.int64
        got = mx.heis_max_op(F)
        assert got.dtype == np.int64
        as_float = mx.GridFunction(F.domain, F.values.astype(np.float64))
        assert np.array_equal(got, mx.heis_max_op(as_float))


@pytest.mark.parametrize("q", [3, 5])
def test_heis_max_op_many_equals_the_fancy_gather_bit_for_bit(q):
    # rank 2 gathers with take along axis 1; the sums are the fancy
    # index's, bit for bit, on float and integer rows
    f = Field(q)
    rng = np.random.default_rng(q)
    dirs = hz.enumerate_projective_directions(f, 2)
    floats = np.abs(rng.standard_normal((3, q**5)))
    for absrows in (floats, (floats * 100).astype(np.int64)):
        want = np.stack([
            absrows[:, hz.line_table_for_direction(f, v)].sum(axis=2)
            .max(axis=1) for v in dirs], axis=1)
        got = mx.heis_max_op_many(f, 2, absrows)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_refined_max_op_delta(f3):
    F = mx.GridFunction.delta(h1(f3))
    vals = mx.refined_max_op(F)
    for (_, _, c), val in zip(hz.enumerate_refined_directions(f3, 1), vals):
        assert val == (1 if c == 0 else 0)
    # vals[True] would mark all 27 points, vals[-1] the last one, and 27
    # would raise a bare IndexError
    for index, match in ((True, "must be an integer"), (-1, "outside"),
                         (27, "outside")):
        with pytest.raises(DomainError, match=match):
            mx.GridFunction.delta(h1(f3), index)


def test_refined_max_op_constant(f5):
    F = mx.GridFunction.constant(h1(f5))
    assert np.array_equal(mx.refined_max_op(F), np.full(30, 5))


def test_identity_heis_equals_max_over_slopes_exhaustive(f3):
    dom = h1(f3)
    singletons = [mx.GridFunction.delta(dom, i) for i in range(27)]
    pairs = [cn.PointSet(dom, c).indicator()
             for c in combinations(range(27), 2)]
    for F in singletons + pairs:
        h = mx.heis_max_op(F)
        r = mx.refined_max_op(F).reshape(4, 3).max(axis=1)
        assert np.array_equal(h, r)


def test_identity_heis_equals_max_over_slopes_random(f7):
    dom = h1(f7)
    for trial in range(30):
        F = mx.random_complex_grid(dom, mx.seeded_rng(17, trial))
        h = mx.heis_max_op(F)
        r = mx.refined_max_op(F).reshape(8, 7).max(axis=1)
        assert np.allclose(h, r)


def _integer_grid(field, n, rng):
    # integer values: every line sum is exact, so equality is exact
    dom = mx.Domain.heisenberg(field, n)
    return mx.GridFunction(dom, rng.integers(-9, 10, dom.size).astype(float))


def _pulled_back(F, fn):
    """F o fn, with fn a map of HPoints applied through the object group law."""
    perm = [fn(p).index for p in ol.enumerate_points(F.field, F.domain.n)]
    return mx.GridFunction(F.domain, F.values[perm])


def _random_point(field, n, rng):
    c = [int(v) for v in rng.integers(0, field.q, 2 * n + 1)]
    return ol.HPoint(field, c[:n], c[n:2 * n], c[2 * n])


@pytest.mark.parametrize("q,n", [(5, 1), (9, 1), (3, 2)])
def test_heis_max_op_invariant_under_translation_and_dilation(q, n):
    # left translations and the dilations (x, y, t) -> (lx, ly, l^2 t) map
    # the lines of each direction onto lines of the same direction
    f = Field(q)
    ar = ol.arithmetic(f)
    rng = mx.seeded_rng(q, n)
    F = _integer_grid(f, n, rng)
    want = mx.heis_max_op(F)
    for _ in range(3):
        g = _random_point(f, n, rng)
        assert np.array_equal(mx.heis_max_op(_pulled_back(F, g.__mul__)),
                              want)
    for lam in range(2, q):
        lam2 = ar.mul(lam, lam)

        def dilate(p):
            return ol.HPoint(f, [ar.mul(lam, c) for c in p.x],
                             [ar.mul(lam, c) for c in p.y], ar.mul(lam2, p.t))

        assert np.array_equal(mx.heis_max_op(_pulled_back(F, dilate)), want)


def _transvection(field, w, lam):
    """z -> z + lam.omega(w, z).w on F_q^{2n}, omega(w, z) = w_x.z_y - w_y.z_x:
    a symplectic transvection, so (z, t) -> (A z, t) is an automorphism."""
    ar = ol.arithmetic(field)
    n = len(w) // 2

    def apply(z):
        om = 0
        for wx, wy, zx, zy in zip(w[:n], w[n:], z[:n], z[n:]):
            om = ar.add(om, ar.sub(ar.mul(wx, zy), ar.mul(wy, zx)))
        s = ar.mul(lam, om)
        return tuple(ar.add(c, ar.mul(s, wc)) for c, wc in zip(z, w))

    return apply


@pytest.mark.parametrize("q,n", [(3, 1), (4, 1), (5, 1), (7, 1), (9, 1),
                                 (3, 2)])
def test_heis_max_op_permuted_by_symplectic_transvections(q, n):
    # (x, y, t) -> (A(x, y), t) maps the lines of direction v onto the lines
    # of direction A v, so on integer inputs the values are permuted exactly
    f = Field(q)
    rng = mx.seeded_rng(q, n, 11)
    dom = mx.Domain.heisenberg(f, n)
    kinds = ["point-mass", "single-line", "bush", "constant"]
    if n == 1:
        kinds.append("two-lines-blocking")
        if q % 2:
            kinds.append("paraboloid")
    inputs = [cn.extremal_set(kind, f, n).indicator() for kind in kinds]
    inputs += [mx.GridFunction(dom, rng.integers(0, 2, dom.size))
               for _ in range(3)]
    basis = [tuple(int(i == j) for j in range(2 * n)) for i in range(2 * n)]
    w = tuple(int(c) for c in rng.integers(0, q, 2 * n))
    w = w if any(w) else basis[0]
    maps = [(e, 1) for e in basis] + [(w, int(rng.integers(1, q)))]
    dirs = hz.enumerate_projective_directions(f, n).tolist()
    pos = {tuple(rep): i for i, rep in enumerate(dirs)}
    for w, lam in maps:
        A = _transvection(f, w, lam)
        image = [pos[ol.canonical_direction(f, A(v))] for v in dirs]
        assert sorted(image) == list(range(len(dirs)))

        def phi(p):
            z = A(p.x + p.y)
            return ol.HPoint(f, z[:n], z[n:], p.t)

        for F in inputs:
            want = mx.heis_max_op(F)
            got = mx.heis_max_op(_pulled_back(F, phi))
            assert np.array_equal(got, want[image])


@pytest.mark.parametrize("q", [5, 9])
def test_refined_max_op_permuted_by_left_translation(q):
    # g.L has t-slope c(L) + w(g, v), w(g, [a:b]) = g_x b - g_y a
    f = Field(q)
    ar = ol.arithmetic(f)
    rng = mx.seeded_rng(q, 7)
    F = _integer_grid(f, 1, rng)
    want = mx.refined_max_op(F)
    dirs = hz.enumerate_refined_directions(f, 1).tolist()
    pos = {tuple(rep): i for i, rep in enumerate(dirs)}
    for _ in range(3):
        g = _random_point(f, 1, rng)
        got = mx.refined_max_op(_pulled_back(F, g.__mul__))
        gx, gy = g.x[0], g.y[0]
        for (a, b, c), val in zip(dirs, got):
            shifted = ar.add(c, ar.sub(ar.mul(gx, b), ar.mul(gy, a)))
            assert val == want[pos[a, b, shifted]]


def test_operator_monotone_homogeneous(f5):
    dom = h1(f5)
    rng = mx.seeded_rng(5)
    F = mx.random_complex_grid(dom, rng)
    vals = mx.refined_max_op(F)
    # commutes with absolute value
    absF = mx.GridFunction(dom, np.abs(F.values))
    assert np.allclose(mx.refined_max_op(absF), vals)
    # positively homogeneous
    scaled = mx.GridFunction(dom, 2.5 * F.values)
    assert np.allclose(mx.refined_max_op(scaled), 2.5 * vals)
    # monotone in |F|
    bigger = mx.GridFunction(dom, np.abs(F.values) + 1.0)
    assert np.all(mx.refined_max_op(bigger) >= vals - 1e-12)


# -- projection-aggregation ----------------------------------------------------


@pytest.mark.parametrize("u", [1, 2, 3, INF])
def test_project_aggregate_preserves_norm(f5, u):
    F = mx.random_complex_grid(h1(f5), mx.seeded_rng(2))
    G = mx.project_aggregate(F, u)
    assert G.domain == mx.Domain.affine(f5, 2)
    assert G.norm(u) == pytest.approx(F.norm(u), rel=1e-12)


def test_project_aggregate_fiber_sums_and_max(f3):
    vals = np.arange(27, dtype=float)
    F = mx.GridFunction(h1(f3), vals)
    G1 = mx.project_aggregate(F, 1)
    Ginf = mx.project_aggregate(F, INF)
    fibers = vals.reshape(9, 3)
    assert np.allclose(G1.values, fibers.sum(axis=1))
    assert np.allclose(Ginf.values, fibers.max(axis=1))


def test_project_aggregate_outside_double_range(f3):
    # |F|^3 overflows for 1e200 and underflows for 1e-200 fibers; the
    # aggregate still equals the fiber norm q^(1/3) |value|
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (1e200, 1e-200):
            F = mx.GridFunction(h1(f3), np.full(27, value))
            G = mx.project_aggregate(F, 3)
            assert np.allclose(G.values / value, 3 ** (1 / 3), rtol=1e-14)


@pytest.mark.parametrize("u", [1, 2, INF])
def test_domination_random(f5, u):
    # M_{H_1} F <= M_2 (aggregate) pointwise, brute force both sides
    for trial in range(100):
        F = mx.random_complex_grid(h1(f5), mx.seeded_rng(3, trial))
        lhs = mx.heis_max_op(F)
        rhs = mx.affine_max_op(mx.project_aggregate(F, u))
        assert np.all(lhs <= rhs + 1e-9)


def test_domination_n2(f3):
    dom = mx.Domain.heisenberg(f3, 2)
    for trial in range(10):
        F = mx.random_complex_grid(dom, mx.seeded_rng(4, trial))
        lhs = mx.heis_max_op(F)
        rhs = mx.affine_max_op(mx.project_aggregate(F, 2))
        assert np.all(lhs <= rhs + 1e-9)


def test_eot_diagonal_inequality_on_inputs():
    # The l^d -> l^d bound for the affine operator on F_q^d is imported,
    # not re-proved: check it as an inequality on structured and random
    # inputs with a generous stand-in constant (the dimensional constant
    # is never pinned down).
    for q in (3, 5):
        fld = Field(q)
        dom = mx.Domain.affine(fld, 4)
        scale = mx.q_pow(q, Fraction(3, 4))
        inputs = [mx.GridFunction.delta(dom), mx.GridFunction.constant(dom)]
        bush = np.zeros(dom.size, dtype=np.int64)
        for v in ol.enumerate_directions(fld, 4):
            line = ol.AffineLine(fld, (0, 0, 0, 0), v)
            bush[list(line.point_indices)] = 1
        inputs.append(mx.GridFunction(dom, bush))
        inputs += [mx.random_complex_grid(dom, mx.seeded_rng(14, q, t))
                   for t in range(10)]
        for F in inputs:
            ratio = mx.lp_norm(mx.affine_max_op(F), 4) / (scale * F.norm(4))
            assert ratio <= 4.0


def test_heis_n2_diagonal_inequality_on_inputs(f3):
    # same stand-in-constant check for the rank-2 diagonal at u = 2n
    dom = mx.Domain.heisenberg(f3, 2)
    scale = mx.q_pow(3, Fraction(3, 4))
    for trial in range(10):
        F = mx.random_complex_grid(dom, mx.seeded_rng(15, trial))
        ratio = mx.lp_norm(mx.heis_max_op(F), 4) / (scale * F.norm(4))
        assert ratio <= 4.0


# -- linearizations ------------------------------------------------------------


def test_maximizing_family_matches_operator(f5):
    dom = h1(f5)
    for trial in range(20):
        F = mx.random_complex_grid(dom, mx.seeded_rng(6, trial))
        fam = mx.linearize("refined", f5, for_function=F)
        absF = mx.GridFunction(dom, np.abs(F.values))
        assert np.allclose(mx.apply_linearized(fam, absF),
                           mx.refined_max_op(F))


def test_maximizing_family_for_delta_picks_origin_lines(f5):
    F = mx.GridFunction.delta(h1(f5))
    fam = mx.linearize("refined", f5, for_function=F)
    for (_, _, c), row in zip(fam.directions, fam.point_idx):
        if c == 0:
            assert 0 in row  # the line through the origin


def test_random_family_reproducible(f7):
    a = mx.linearize("refined", f7, rng=mx.seeded_rng(123))
    b = mx.linearize("refined", f7, rng=mx.seeded_rng(123))
    c = mx.linearize("refined", f7, rng=mx.seeded_rng(124))
    assert np.array_equal(a.point_idx, b.point_idx)
    assert not np.array_equal(a.point_idx, c.point_idx)


def test_linearize_kinds_are_planar_and_refined(f3):
    for kind in ("heis", "affine"):
        with pytest.raises(DomainError, match="unknown linearization kind"):
            mx.linearize(kind, f3)


@pytest.mark.parametrize("kind", ["planar", "refined"])
def test_lazy_lines_match_index_table(kind):
    # each row, rebuilt as a line object from its first point, must be that
    # line in parameter order and carry the row's direction
    q = 5
    f = Field(q)
    fam = mx.linearize(kind, f, rng=mx.seeded_rng(6))
    assert len(fam) == (q + 1) * (q if kind == "refined" else 1)
    for rep, row in zip(fam.directions, fam.point_idx.tolist()):
        if kind == "planar":
            want = ol.ProjectiveDirection(f, rep)
            base = ol.affine_point_from_index(f, 2, row[0])
            line = ol.AffineLine(f, base, want)
            got = line.direction
        else:
            want = ol.RefinedDirection(f, rep)
            base = ol.point_from_index(f, 1, row[0])
            line = ol.HorizontalLine(base, want.projective())
            got = line.refined_direction()
        assert line.point_indices == tuple(row)
        assert got == want


def test_apply_linearized_line_sum_and_linearity(f5):
    fam = mx.linearize("refined", f5)
    dom = h1(f5)
    for i in (0, 7, 19):
        F = cn.PointSet(dom, fam.point_idx[i]).indicator()
        assert mx.apply_linearized(fam, F)[i] == 5
    f = mx.random_complex_grid(dom, mx.seeded_rng(8))
    g = mx.random_complex_grid(dom, mx.seeded_rng(9))
    both = mx.GridFunction(dom, f.values + g.values)
    assert np.allclose(mx.apply_linearized(fam, both),
                       mx.apply_linearized(fam, f) + mx.apply_linearized(fam, g))


def test_linearized_below_maximal_exhaustive(f3):
    fam = mx.linearize("refined", f3, rng=mx.seeded_rng(5))
    dom = h1(f3)
    for i in range(27):
        F = mx.GridFunction.delta(dom, i)
        assert np.all(np.abs(mx.apply_linearized(fam, F))
                      <= mx.refined_max_op(F) + 1e-12)


# -- index tables ------------------------------------------------------------------


def _c_ordered(table):
    """A C-ordered np.intp copy: a gather from it sums each line along a
    contiguous axis, the order the line kernel reproduces.  A gather from
    the x-major refined view would sum in another order."""
    return np.ascontiguousarray(table, dtype=np.intp)


@pytest.mark.parametrize("q", [4, 5, 7, 25, 27])
def test_gathered_tables_are_narrow_or_native_width_and_read_only(q):
    f = Field(q)
    rtable, htable = mx.refined_incidence(f)[1], mx.heis1_incidence(f)[1]
    # the H_1 tables are the narrowest dtype that holds q^3 - 1, and one
    # x-major buffer: every column table[..., x] is a contiguous slab
    assert rtable.dtype == np.min_scalar_type(q**3 - 1)
    assert rtable.dtype == (np.uint8 if q < 7 else np.uint16)
    assert htable.dtype == rtable.dtype
    assert np.shares_memory(htable, rtable)
    for table in (rtable, htable):
        assert not table.flags.writeable
        for x in (0, q - 1):
            assert table[..., x].flags.c_contiguous
    # the planar table, the U-table index, a family's point_idx and the
    # rank-n direction tables stay np.intp
    native = [mx.affine_incidence(f, 2)[1],
              field_table(f, "u-plane-index", fr._u_plane_index)]
    for kind in ("planar", "refined"):
        native.append(mx.linearize(kind, f, rng=mx.seeded_rng(q)).point_idx)
    for table in native:
        assert table.dtype == np.intp
        assert not table.flags.writeable
    for n in (1, 2):
        v = hz.enumerate_projective_directions(f, n)[-1]
        assert hz.line_table_for_direction(f, v).dtype == np.intp
    # the F_q^3 table stores no indices: a block or a stack of blocks is
    # built np.intp when read, and the sequence takes no assignment
    f3_blocks = mx.affine_incidence(f, 3)[1]
    assert f3_blocks[0].dtype == f3_blocks[-2:].dtype == np.intp
    with pytest.raises(TypeError):
        f3_blocks[0] = f3_blocks[0]


@pytest.mark.parametrize("q", [25, 27])
def test_column_and_predicates_equal_the_whole_gather(q):
    # is_full_refined_kakeya and omega_partition AND mask.take over the q
    # columns; the reference gathers the whole C-ordered table at once
    f = Field(q)
    dom = h1(f)
    table = _c_ordered(mx.refined_incidence(f)[1])
    rng = mx.seeded_rng(q, 29)
    # one line of every refined direction, a line of half of them, and
    # the first set less the first, a middle and the last point of the
    # lines of its first three directions
    every = table[np.arange(len(table)), rng.integers(q, size=len(table))]
    half = every[rng.random(len(table)) < 0.5]
    sets = [cn.PointSet(dom, every.ravel()), cn.PointSet(dom, half.ravel())]
    dropped = every[[0, 1, 2], [0, q // 2, q - 1]]
    sets.append(cn.PointSet.from_mask(
        dom, sets[0].mask & ~np.isin(np.arange(q**3), dropped)))
    for ps in sets:
        contained = ps.mask[table].all(axis=2).any(axis=1)
        assert cn.is_full_refined_kakeya(ps)[0] == contained.all()
        assert np.array_equal(cn.omega_partition(ps).omega1,
                              np.flatnonzero(contained))
    assert cn.is_full_refined_kakeya(sets[0])[0]
    assert not cn.is_full_refined_kakeya(sets[1])[0]
    assert not np.isin([0, 1, 2], cn.omega_partition(sets[2]).omega1).any()


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_narrow_f3_table_equals_the_native_width_build(q):
    # the F_q^3 table keeps no narrow copy: block i is built by
    # _coset_table when read, and a slice stacks its blocks
    f = Field(q)
    dirs, blocks = mx.affine_incidence(f, 3)
    assert len(dirs) == len(blocks) == q * q + q + 1
    assert blocks.shape == (len(dirs), q * q, q)
    for v, block in zip(dirs, blocks):
        assert block.dtype == np.intp
        assert np.array_equal(block, hz._coset_table(f, v))
    for rows in (slice(0, 3), slice(-2, None), slice(1, 12, 5),
                 slice(4, 4)):
        stack = blocks[rows]
        want = [hz._coset_table(f, v) for v in dirs[rows]]
        assert stack.dtype == np.intp
        assert stack.shape == (len(want), q * q, q)
        assert all(np.array_equal(a, b) for a, b in zip(stack, want))


class _RecordedTakes(np.ndarray):
    """An array that records the bytes of every take from it, or from an
    array made from it (the kernel's cast to the dtype sum gives)."""

    def __array_finalize__(self, obj):
        self.takes = getattr(obj, "takes", None)

    def take(self, indices, *args, **kw):
        out = np.asarray(super().take(indices, *args, **kw))
        self.takes.append(out.nbytes)
        return out


def _recorded(values):
    rec = np.asarray(values).view(_RecordedTakes)
    rec.takes = []
    return rec


@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32])
def test_block_gather_equals_the_whole_gather(monkeypatch, q, small):
    # the kernel keeps eight running sums from q = 8 on, one below, and
    # the column in flight
    live = 9 if q >= 8 else 2
    # a small block splits the heis1 table two rows at a time, and the
    # refined table into blocks of 2q rows, an uneven count at even q
    block_bytes = live * 8 * 2 * q * q + 8 if small else mx.GATHER_BYTES
    monkeypatch.setattr(mx, "GATHER_BYTES", block_bytes)
    f = Field(q, modulus=[1, 0, 1, 0, 0, 1]) if q == 32 else Field(q)
    rng = mx.seeded_rng(q, 23)
    # bools and narrow integers add in the dtype sum promotes them to, so a
    # 0/1 table counts points rather than OR-ing them
    h1_inputs = [np.abs(mx.random_complex_grid(h1(f), rng).values)] + [
        rng.integers(0, 2, q**3).astype(dtype)
        for dtype in (np.int64, bool, np.int32, np.float32)]
    plane_inputs = [np.abs(mx.random_complex_grid(
        mx.Domain.affine(f, 2), rng).values),
        rng.integers(0, 2, q * q).astype(np.int64)]
    tables = [(mx.refined_incidence(f)[1], h1_inputs),
              (mx.heis1_incidence(f)[1], h1_inputs),
              (mx.affine_incidence(f, 2)[1], plane_inputs)]
    for table, inputs in tables:
        for absvals in inputs:
            whole = absvals[_c_ordered(table)].sum(axis=2)
            rec = _recorded(absvals)
            got = mx._line_sums(rec, table)
            assert got.dtype == whole.dtype
            assert got.tobytes() == whole.tobytes()
            # one take per column of each block, each block's live sums
            # within the bound
            assert len(rec.takes) % q == 0
            assert live * max(rec.takes) <= block_bytes
            if live * whole.nbytes <= block_bytes:  # one block
                assert len(rec.takes) == q
            else:
                assert len(rec.takes) > q
    for kind, dom in (("refined", h1(f)), ("planar", mx.Domain.affine(f, 2))):
        F = mx.random_complex_grid(dom, rng)
        table = mx._candidate_tables(kind, f)[1]
        choice = np.abs(F.values)[_c_ordered(table)].sum(axis=2).argmax(axis=1)
        fam = mx.linearize(kind, f, for_function=F)
        assert np.array_equal(fam.point_idx,
                              table[np.arange(len(table)), choice])


class _RecordedBlocks:
    """An F_q^d block sequence that records the rows of every stack read."""

    def __init__(self, blocks):
        self.blocks, self.shape, self.rows = blocks, blocks.shape, []

    def __getitem__(self, rows):
        out = self.blocks[rows]
        self.rows.append(len(out))
        return out


@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_f3_max_op_equals_the_whole_table_gather(monkeypatch, q, small):
    # a row of a stacked block costs its running sums, the column in
    # flight and its q^2 x q indices
    live = 9 if q >= 8 else 2
    row_bytes = (live + q) * q * q * 8
    if small:  # three rows a block
        monkeypatch.setattr(mx, "GATHER_BYTES", 3 * row_bytes + 8)
    f = Field(q)
    dom = mx.Domain.affine(f, 3)
    blocks = mx.affine_incidence(f, 3)[1]
    table = blocks[:]
    rng = mx.seeded_rng(q, 31)
    for F in (mx.random_complex_grid(dom, rng),
              mx.GridFunction(dom, rng.integers(0, 2, q**3))):
        absvals = np.abs(F.values)
        sums = absvals[table].sum(axis=2)
        got = mx.affine_max_op(F)
        assert got.dtype == sums.dtype
        assert got.tobytes() == sums.max(axis=1).tobytes()
        rec = _RecordedBlocks(blocks)
        assert mx._line_sums(absvals, rec).tobytes() == sums.tobytes()
        assert sum(rec.rows) == len(blocks)
        assert max(rec.rows) * row_bytes <= mx.GATHER_BYTES
        if small:
            assert max(rec.rows) == 3


# -- TT* and operator norms ------------------------------------------------------


def test_ttstar_spectrum_q3(f3):
    eigs = mx.ttstar_spectrum(mx.linearize("planar", f3, rng=mx.seeded_rng(1)))
    assert np.allclose(eigs, [6, 2, 2, 2], atol=1e-9)


def test_ttstar_spectrum_q7(f7):
    eigs = mx.ttstar_spectrum(mx.linearize("planar", f7, rng=mx.seeded_rng(2)))
    assert np.allclose(eigs, [14] + [6] * 7, atol=1e-9)


def test_ttstar_top_eigenvalue_simple(f5):
    eigs = mx.ttstar_spectrum(mx.linearize("planar", f5, rng=mx.seeded_rng(3)))
    assert np.isclose(eigs[0], 10) and eigs[1] < 10 - 1e-6


def test_ttstar_independent_of_family(f7):
    base = mx.ttstar_spectrum(mx.linearize("planar", f7))
    for seed in range(10):
        fam = mx.linearize("planar", f7, rng=mx.seeded_rng(seed))
        eigs = mx.ttstar_spectrum(fam)
        assert np.allclose(eigs, base, atol=1e-9)


def test_ttstar_rejects_non_planar(f3):
    with pytest.raises(DomainError):
        mx.ttstar_spectrum(mx.linearize("refined", f3))


def _gram_by_membership(fam):
    # the per-point loop family_gram replaced: each pair of lines through a
    # point adds one to their entry
    m = len(fam)
    gram = np.zeros((m, m), dtype=np.int64)
    membership = {}
    for i in range(m):
        for p in fam.point_idx[i]:
            membership.setdefault(int(p), []).append(i)
    for members in membership.values():
        for i in members:
            for j in members:
                gram[i, j] += 1
    return gram


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
@pytest.mark.parametrize("kind", ["planar", "refined"])
def test_family_gram_matches_membership_loop(kind, q):
    f = Field(q)
    # the origin family (every line through one point) and two random ones
    for rng in (None, mx.seeded_rng(q, 1), mx.seeded_rng(q, 2)):
        fam = mx.linearize(kind, f, rng=rng)
        gram = mx.family_gram(fam)
        assert gram.dtype == np.int64
        assert np.array_equal(gram, _gram_by_membership(fam))


def _dense_sigma_max(fam):
    # independent oracle: dense 0/1 incidence matrix, full SVD
    m = len(fam)
    a = np.zeros((m, fam.domain.size))
    for i in range(m):
        for p in fam.point_idx[i]:
            a[i, int(p)] += 1
    return float(np.linalg.svd(a, compute_uv=False)[0])


def test_l2_norm_planar_sqrt_2q(f5):
    fam = mx.linearize("planar", f5, rng=mx.seeded_rng(4))
    assert mx.l2_operator_norm(fam) == pytest.approx(math.sqrt(10), rel=1e-9)


@pytest.mark.parametrize("kind,seed", [("planar", 0), ("refined", 1)])
def test_l2_norm_against_dense_svd_oracle(f5, kind, seed):
    fam = mx.linearize(kind, f5, rng=mx.seeded_rng(seed))
    assert mx.l2_operator_norm(fam) == pytest.approx(_dense_sigma_max(fam),
                                                     rel=1e-9)


def test_refined_family_norm_bracket(f5):
    # constant vector forces sigma >= sqrt(q+1); Theorem-level bound 5 sqrt q
    for seed in range(5):
        fam = mx.linearize("refined", f5, rng=mx.seeded_rng(seed))
        nrm = mx.l2_operator_norm(fam)
        assert math.sqrt(6) - 1e-9 <= nrm <= 5 * math.sqrt(5) + 1e-9


# -- bound verification ----------------------------------------------------------


def test_verify_bound_diag_u2(f7):
    spec = mx.BoundSpec("heis-diag", "heis", mx.exponent(2),
                        mx.exponent(2), math.sqrt(2), Fraction(1, 2))
    for trial in range(50):
        F = mx.random_complex_grid(h1(f7), mx.seeded_rng(10, trial))
        assert mx.verify_bound(spec, F).holds


def test_verify_bound_rd_l2(f5):
    spec = mx.BoundSpec("rd-l2", "refined", mx.exponent(2),
                        mx.exponent(2), 5.0, Fraction(1, 2))
    for trial in range(50):
        F = mx.random_complex_grid(h1(f5), mx.seeded_rng(11, trial))
        rep = mx.verify_bound(spec, F)
        assert rep.holds and rep.lhs <= rep.rhs


def test_verify_bound_rd_l1(f5):
    spec = mx.BoundSpec("rd-l1", "refined", mx.exponent(1),
                        mx.exponent(1), 6.0, Fraction(0))
    for trial in range(20):
        F = mx.random_complex_grid(h1(f5), mx.seeded_rng(12, trial))
        assert mx.verify_bound(spec, F).holds


def test_verify_bound_zero_function(f3):
    spec = mx.BoundSpec("rd-l2", "refined", mx.exponent(2),
                        mx.exponent(2), 5.0, Fraction(1, 2))
    rep = mx.verify_bound(spec, mx.GridFunction.zeros(h1(f3)))
    assert rep.holds


def test_verdict_at_the_boundary():
    def holds(lhs, rhs, sense, tol=0.0, premise=True):
        rep = mx.VerifyReport("b", 3, 1, 2, 2, lhs, rhs, sense, tol, premise)
        assert rep.holds == mx.verdict(rep)
        return mx.verdict(rep)

    for tol in (0.0, 1e-9, 2.0**-20):
        # the exact boundary holds; one float step past it fails.  le:
        # lhs = rhs (1 + tol); ge: lhs (1 + tol) = rhs; eq: lhs - rhs is
        # exact near rhs = 7, so its boundary is tol * 7 rounded down to
        # the float grid at 7, on either side
        near = (7.0 * tol) // math.ulp(7.0) * math.ulp(7.0)
        for sense, lhs, rhs, outward in (
                ("le", 7.0 * (1 + tol), 7.0, math.inf),
                ("ge", 7.0, 7.0 * (1 + tol), -math.inf),
                ("eq", 7.0 + near, 7.0, math.inf),
                ("eq", 7.0 - near, 7.0, -math.inf)):
            assert holds(lhs, rhs, sense, tol)
            assert not holds(math.nextafter(lhs, outward), rhs, sense, tol)
    # rhs = 0: only lhs = 0 holds, in every sense that compares
        for sense in ("le", "eq"):
            assert holds(0.0, 0.0, sense, tol)
            assert not holds(5e-324, 0.0, sense, tol)
        assert holds(0.0, 0.0, "ge", tol) and holds(1.0, 0.0, "ge", tol)
        # a false premise fails whatever lhs and rhs are; sense None
        # compares nothing
        for sense in ("le", "ge", "eq", None):
            for lhs, r in ((0.0, 0.0), (1.0, 7.0), (7.0, 1.0)):
                assert not holds(lhs, r, sense, tol, premise=False)
        assert holds(7.0, 1.0, None, tol) and holds(1.0, 7.0, None, tol)
    with pytest.raises(ValueError, match="unknown sense 'lt'"):
        mx.verdict(mx.VerifyReport("b", 3, 1, 2, 2, 1.0, 7.0, "lt"))
    # ratio: lhs / rhs, and 1 or inf where rhs = 0
    assert mx.VerifyReport("b", 3, 1, 2, 2, 3.0, 2.0).ratio == 1.5
    assert mx.VerifyReport("b", 3, 1, 2, 2, 0.0, 0.0).ratio == 1.0
    assert mx.VerifyReport("b", 3, 1, 2, 2, 1.0, 0.0).ratio == math.inf


def test_verify_report_is_slotted_and_holds_no_verdict():
    rep = mx.VerifyReport("b", 3, 1, 2, 2, 1.0, 2.0)
    assert not hasattr(rep, "__dict__")
    assert "holds" not in mx.VerifyReport.__slots__
    assert (rep.sense, rep.tol, rep.premise) == ("le", 0.0, True)


@pytest.mark.parametrize("q", [5, 9])
def test_verify_bound_memo_matches_fresh_inputs(q):
    fld = Field(q)
    rng = mx.seeded_rng(30, q)
    inputs = {"heis": mx.random_complex_grid(h1(fld), rng),
              "refined": mx.random_complex_grid(h1(fld), rng),
              "affine": mx.random_complex_grid(mx.Domain.affine(fld, 2), rng)}
    for spec in mx.bound_catalog(q) + mx.offdiag_catalog():
        F = inputs[spec.operator]
        shared = mx.verify_bound(spec, F)
        fresh = mx.verify_bound(spec, mx.GridFunction(F.domain, F.values))
        assert (shared.lhs, shared.rhs, shared.holds) == \
            (fresh.lhs, fresh.rhs, fresh.holds), spec.name


def count_memo_builds(monkeypatch):
    """A list that records (function, key) for every memo entry built."""
    builds = []
    memo = mx.GridFunction.memo

    def counting_memo(self, key, compute):
        def counted():
            builds.append((self, key))
            return compute()
        return memo(self, key, counted)

    monkeypatch.setattr(mx.GridFunction, "memo", counting_memo)
    return builds


@pytest.mark.parametrize("q", [5, 8])
def test_absolute_values_are_built_once_per_input(monkeypatch, q):
    fld = Field(q)
    builds = count_memo_builds(monkeypatch)
    rng = mx.seeded_rng(32, q)
    F = mx.random_complex_grid(h1(fld), rng)
    G = mx.random_complex_grid(mx.Domain.affine(fld, 2), rng)
    inputs = {"heis": F, "refined": F, "affine": G}
    for spec in mx.bound_catalog(q):
        mx.verify_bound(spec, inputs[spec.operator])
    fam = mx.linearize("refined", fld, for_function=F)
    mx.linearize("planar", fld, for_function=G)
    for H in (F, G):
        assert sum(1 for h, key in builds if h is H and key == "abs") == 1
        assert H.abs().tobytes() == np.abs(H.values).tobytes()
        assert not H.abs().flags.writeable
    # the operators and the maximizing family read |F|: compare with the
    # C-ordered gather of np.abs of the values
    gathers = {"heis": mx.heis1_incidence(fld)[1],
               "refined": mx.refined_incidence(fld)[1],
               "affine": mx.affine_incidence(fld, 2)[1]}
    for name, op in mx._OPERATORS.items():
        H = inputs[name]
        sums = np.abs(H.values)[_c_ordered(gathers[name])].sum(axis=2)
        assert op(H).tobytes() == sums.max(axis=1).tobytes()
        if name == "refined":
            table = gathers[name]
            want = table[np.arange(len(table)), sums.argmax(axis=1)]
            assert np.array_equal(fam.point_idx, want)
    # an integer input keeps an integer |F|
    assert mx.GridFunction.delta(h1(fld)).abs().dtype == np.int64


def test_random_complex_grid_is_the_ziggurat_draw(f5):
    for dom, key in ((h1(f5), (3, 5, 0)), (mx.Domain.affine(f5, 2), (9,)),
                     (mx.Domain.heisenberg(Field(3), 2), (1, 2, 3))):
        F = mx.random_complex_grid(dom, mx.seeded_rng(*key))
        want = mx.seeded_rng(*key).standard_normal(2 * dom.size)
        assert F.values.dtype == np.complex128
        assert F.values.tobytes() == want.view(np.complex128).tobytes()
        assert not F.values.flags.writeable


def test_random_complex_grid_is_standard_complex_gaussian():
    # q = 27: N = 19,683 entries, each part N(0, 1) and |z|^2 = 2 Exp(1)
    F = mx.random_complex_grid(h1(Field(27)), mx.seeded_rng(2026, 27))
    z = F.values
    n = z.size
    for part in (z.real, z.imag):
        assert abs(part.mean()) <= 4 * part.std() / math.sqrt(n)
    sq = np.abs(z) ** 2
    assert abs(sq.mean() - 2) <= 4 * sq.std() / math.sqrt(n)
    assert abs(np.corrcoef(z.real, z.imag)[0, 1]) <= 4 / math.sqrt(n)


def test_grid_function_norm_is_memoized_per_exponent(f5):
    F = mx.random_complex_grid(h1(f5), mx.seeded_rng(31))
    assert F.norm(2) == mx.lp_norm(F.values, 2)
    assert F.norm(Fraction(2)) == F.norm(2)
    assert F.norm("inf") == float(np.abs(F.values).max())
    assert F.memo("k", lambda: object()) is F.memo("k", lambda: object())


def test_bound_catalog_constants(f5):
    names = {s.name: s for s in mx.bound_catalog(5)}
    assert names["planar-l1"].constant == 6
    assert names["planar-l2"].constant == pytest.approx(math.sqrt(2))
    assert names["rd-l2-sharp"].constant == 5.0
    assert names["rd-diag-u=2"].constant == pytest.approx(5.0)
    # C_u at u=1 is the endpoint constant 2 (from q+1 <= 2q)
    assert names["rd-diag-u=1"].constant == pytest.approx(2.0)


def test_rd_upper_constant_regions():
    assert mx.rd_upper_constant(2, 2) == pytest.approx(5.0)
    assert mx.rd_upper_constant(1, 1) == pytest.approx(2.0)
    assert mx.rd_upper_constant(1, INF) == pytest.approx(1.0)
    assert mx.rd_upper_constant(INF, INF) == pytest.approx(1.0)
    assert mx.rd_upper_constant(Fraction(3, 2), 3) == pytest.approx(
        5.0 ** (2 / 3))


# -- grid JSON -------------------------------------------------------------------


def test_grid_json_roundtrip(f5):
    F = mx.random_complex_grid(h1(f5), mx.seeded_rng(13))
    doc = json.loads(json.dumps(docs.grid_to_json(F)))
    G = mx.grid_from_json(doc)
    assert G.domain == F.domain
    assert np.array_equal(G.values, F.values)  # bit-exact through repr


@settings(max_examples=30, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e12, allow_nan=False,
                                   allow_infinity=False),
                min_size=8, max_size=8))
def test_grid_json_roundtrip_property(vals):
    dom = mx.Domain.affine(Field(2), 3)
    F = mx.GridFunction(dom, np.array(vals, dtype=np.complex128))
    back = mx.grid_from_json(json.loads(json.dumps(docs.grid_to_json(F))))
    assert np.array_equal(back.values, F.values)


def test_grid_json_extension_field():
    f9 = Field(9)
    F = mx.GridFunction.delta(mx.Domain.heisenberg(f9, 1))
    doc = docs.grid_to_json(F)
    assert doc["modulus"] == [1, 0, 1]
    G = mx.grid_from_json(doc)
    assert G.field == f9


def test_grid_json_rejects_wrong_count(f5):
    doc = docs.grid_to_json(mx.GridFunction.delta(h1(f5)))
    doc["values"] = doc["values"][:-1]
    with pytest.raises(DomainError):
        mx.grid_from_json(doc)


def test_grid_json_rejects_bad_domain(f5):
    doc = docs.grid_to_json(mx.GridFunction.delta(h1(f5)))
    doc["domain"] = "projective"
    with pytest.raises(DomainError):
        mx.grid_from_json(doc)


@pytest.mark.parametrize("edit", [
    {"q": "x"},
    {"values": [[1.0]] + [[0.0, 0.0]] * 124},
    {"n": "one"},
    {"q": 1e400},
    {"n": 1e400},
])
def test_grid_json_value_errors_are_domain_errors(f5, edit):
    doc = docs.grid_to_json(mx.GridFunction.delta(h1(f5)))
    doc.update(edit)
    with pytest.raises(DomainError, match="malformed"):
        mx.grid_from_json(doc)


def test_grid_json_overflowing_modulus_is_a_domain_error():
    doc = docs.grid_to_json(mx.GridFunction.delta(h1(Field(9))))
    doc["modulus"] = [1e400, 0, 1]
    with pytest.raises(DomainError, match="malformed"):
        mx.grid_from_json(doc)


@pytest.mark.parametrize("make", [
    lambda f: mx.Domain.heisenberg(f, 0),
    lambda f: mx.Domain.heisenberg(f, -1),
    lambda f: mx.Domain.affine(f, 0),
])
def test_domain_rejects_nonpositive_rank(f3, make):
    with pytest.raises(DomainError):
        make(f3)


@pytest.mark.parametrize("d,match", [
    (True, "must be an integer"), (1.5, "must be an integer"),
    (2.0, "must be an integer"), ("2", "must be an integer"),
    (0, ">= 1"), (-1, ">= 1"),
])
def test_affine_dimension_goes_through_the_rank_check(f3, d, match):
    # True would give a domain of size 3 and 1.5 one of size 5.196
    with pytest.raises(DomainError, match=match):
        mx.Domain.affine(f3, d)


def test_affine_dimension_comes_back_as_an_int(f3):
    dom = mx.Domain.affine(f3, np.int64(3))
    assert type(dom.n) is int and dom.n == 3
    assert type(dom.size) is int and dom.size == 27


@pytest.mark.parametrize("make", [
    lambda: mx.Domain.heisenberg(Field(2), 10**11),
    lambda: mx.Domain.affine(Field(2), 10**11),
    lambda: mx.Domain.heisenberg(Field(16), 3),
    lambda: mx.Domain.affine(Field(31), 6),
    lambda: mx.Domain.affine(Field(2), 26),
])
def test_domain_refuses_more_points_than_the_desk_scale(make):
    with pytest.raises(DomainError, match="desk scale"):
        make()


def test_domain_cap_admits_h2_at_the_largest_field():
    from kakeyalab.field import MAX_POINTS, MAX_Q
    f32 = Field(MAX_Q, modulus=[1, 0, 1, 0, 0, 1])  # x^5 + x^2 + 1
    assert mx.Domain.heisenberg(f32, 2).size == MAX_POINTS
    assert mx.Domain.affine(f32, 5).size == MAX_POINTS
    assert mx.Domain.affine(Field(2), 25).size == 2**25
    assert mx.Domain.heisenberg(Field(9), 3).size == 9**7


def test_grid_function_validates_shape(f3):
    with pytest.raises(DomainError):
        mx.GridFunction(h1(f3), np.zeros(26))
    with pytest.raises(DomainError):
        mx.GridFunction(h1(f3), np.full(27, np.nan))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e300,
                                   2.0**63, 2**63, -2**63 - 1,
                                   complex(math.inf, 0)])
def test_constant_refuses_non_finite_and_unrepresentable_values(f3, value):
    # a DomainError (exit 2 at the CLI), never an OverflowError, a
    # ValueError or a silent wrap to int64
    with pytest.raises(DomainError):
        mx.GridFunction.constant(h1(f3), value)


@pytest.mark.parametrize("value,dtype", [
    (3, np.int64), (3.0, np.int64), (-2**63, np.int64),
    (2**63 - 1, np.int64), (True, np.int64), (0.5, np.complex128),
    (1 + 2j, np.complex128)])
def test_constant_is_exact_for_integral_values(f3, value, dtype):
    F = mx.GridFunction.constant(h1(f3), value)
    assert F.values.dtype == dtype
    assert np.all(F.values == value)

