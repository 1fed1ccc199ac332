import numpy as np
import pytest

from kakeyalab.field import DomainError, Field
from kakeyalab import heisenberg as hz
from kakeyalab import maximal as mx
from kakeyalab import fourier as fr

import oracle as ol
from test_field import ALL_Q


@pytest.fixture(scope="module")
def f7():
    return Field(7)


def h1(field):
    return mx.Domain.heisenberg(field, 1)


def random_f(field, *key):
    return mx.random_complex_grid(h1(field), mx.seeded_rng(*key))


# -- central transform ---------------------------------------------------------


def test_central_fourier_of_delta(f7):
    tab = fr.central_fourier(mx.GridFunction.delta(h1(f7)))
    assert np.allclose(tab.table[0, 0, :], 1.0)
    rest = tab.table.copy()
    rest[0, 0, :] = 0
    assert np.abs(rest).max() == 0


def test_central_fourier_kills_constant_fibers(f7):
    # f independent of t: only the zero frequency survives
    vals = np.repeat(np.arange(49.0), 7)
    tab = fr.central_fourier(mx.GridFunction(h1(f7), vals))
    assert np.abs(tab.table[:, :, 1:]).max() < 1e-12


def test_inversion(f7):
    f = random_f(f7, 0)
    back = ol.inverse_central_fourier(fr.central_fourier(f))
    assert np.abs(back.values - f.values).max() < 1e-9


def test_plancherel_100_random(f7):
    for trial in range(100):
        f = random_f(f7, 1, trial)
        assert fr.central_fourier(f).plancherel_defect(f) < 1e-9


def test_transform_definition_matches_direct_sum():
    # spot-check the definition f^(x,y;xi) = sum_t f(x,y,t) chi(-xi t)
    f5 = Field(5)
    ar = ol.arithmetic(f5)
    f = random_f(f5, 2)
    tab = fr.central_fourier(f)
    vals = f.values.reshape(5, 5, 5)
    for (x, y, xi) in ((0, 0, 0), (1, 2, 3), (4, 4, 4), (2, 0, 1)):
        direct = sum(vals[x, y, t] * np.conj(ar.chi(ar.mul(xi, t)))
                     for t in range(5))
        assert abs(tab.table[x, y, xi] - direct) < 1e-12


# -- frequency components --------------------------------------------------------


def test_decomposition_identity_all_families(f7):
    f = random_f(f7, 3)
    for fam in (mx.linearize("refined", f7),
                mx.linearize("refined", f7, rng=mx.seeded_rng(9)),
                mx.linearize("refined", f7, for_function=f)):
        assert fr.decomposition_defect(f, fam) < 1e-9


def test_zero_component_is_planar_average(f7):
    # (T_0 f)(omega) = (1/q) sum over l_omega of the t-fiber sums
    f = random_f(f7, 4)
    fam = mx.linearize("refined", f7)
    t0 = ol.t_xi_component(f, 0, fam)
    raw = f.values.reshape(49, 7).sum(axis=1)  # g_0: plain t-fiber sums
    for i, rep in enumerate(fam.directions):
        line = ol.planar_line_of(ol.RefinedDirection(f7, rep))
        expect = sum(raw[ol.affine_point_index(f7, p)]
                     for p in line.points) / 7
        assert abs(t0[i] - expect) < 1e-9


def test_delta_component_sum_is_membership(f7):
    d0 = mx.GridFunction.delta(h1(f7))
    fam = mx.linearize("refined", f7, rng=mx.seeded_rng(1))
    total = fr.t_components(d0, fam).sum(axis=0)
    member = (fam.point_idx == 0).any(axis=1)
    assert np.allclose(total, member.astype(float), atol=1e-9)


def test_normal_form_factorization(f7):
    # (T_xi f)(omega) = (1/q) chi(xi tau_omega) U_xi(m, gamma)
    ar = ol.arithmetic(f7)
    f = random_f(f7, 5)
    fam = mx.linearize("refined", f7, rng=mx.seeded_rng(2))
    for xi in (1, 3, 6):
        tx = ol.t_xi_component(f, xi, fam)
        ut = fr.u_tables(f, xi)
        for i, rep in enumerate(fam.directions):
            om = ol.RefinedDirection(f7, rep)
            chart = om.chart()
            base = ol.point_from_index(f7, 1, int(fam.point_idx[i, 0]))
            tau = ol.HorizontalLine(base, om.projective()).tau()
            phase = ar.chi(ar.mul(xi, tau))
            if chart[0] == "slope":
                expect = phase * ut.u[chart[1], chart[2]] / 7
            else:
                expect = phase * ut.u_inf[chart[1]] / 7
            assert abs(tx[i] - expect) < 1e-10


# -- U tables ---------------------------------------------------------------------


def test_u_tables_delta(f7):
    d0 = mx.GridFunction.delta(h1(f7))
    for xi in range(1, 7):
        ut = fr.u_tables(d0, xi)
        assert np.allclose(ut.u[:, 0], 1.0)
        assert np.abs(ut.u[:, 1:]).max() < 1e-12
        assert (np.abs(ut.u) ** 2).sum() == pytest.approx(7.0)


def test_u_tables_reject_zero_frequency(f7):
    with pytest.raises(DomainError):
        fr.u_tables(mx.GridFunction.delta(h1(f7)), 0)


def test_u_tables_match_direct_definition():
    f5 = Field(5)
    ar = ol.arithmetic(f5)
    f = random_f(f5, 6)
    tab = fr.central_fourier(f)
    xi = 2
    ut = fr.u_tables(f, xi)
    for m in range(5):
        for g in range(5):
            direct = sum(tab.table[x, ar.sub(ar.mul(m, x), g), xi]
                         * ar.chi(ar.mul(ar.mul(xi, g), x))
                         for x in range(5))
            assert abs(ut.u[m, g] - direct) < 1e-12
    for g in range(5):
        direct = sum(tab.table[g, y, xi] * ar.chi(ar.mul(ar.mul(xi, g), y))
                     for y in range(5))
        assert abs(ut.u_inf[g] - direct) < 1e-12


@pytest.mark.parametrize("q,xi", [(16, 1), (16, 11), (27, 2), (27, 19)])
def test_u_tables_match_direct_definition_prime_power(q, xi):
    # the cached index and phase tables against the definition, where field
    # multiplication is not multiplication mod q
    fld = Field(q)
    ar = ol.arithmetic(fld)
    f = random_f(fld, 7, q)
    tab = fr.central_fourier(f)
    ut = fr.u_tables(f, xi)
    for m in range(q):
        for g in range(q):
            direct = sum(tab.table[x, ar.sub(ar.mul(m, x), g), xi]
                         * ar.chi(ar.mul(ar.mul(xi, g), x))
                         for x in range(q))
            assert abs(ut.u[m, g] - direct) < 1e-9
    for g in range(q):
        direct = sum(tab.table[g, y, xi] * ar.chi(ar.mul(ar.mul(xi, g), y))
                     for y in range(q))
        assert abs(ut.u_inf[g] - direct) < 1e-9


@pytest.mark.parametrize("q", [3, 16, 27])
def test_u_tables_bits_match_c_ordered_gather(q):
    # bit for bit against a C-ordered gather built from the definition; the
    # layout matters because key_counting_check sums u in memory order
    fld = Field(q)
    ar = ol.arithmetic(fld)
    f = random_f(fld, 8, q)
    tab = fr.central_fourier(f)
    index = np.array([[[x * q + ar.sub(ar.mul(m, x), g) for x in range(q)]
                       for g in range(q)] for m in range(q)])
    for xi in range(1, q):
        phase = np.array([[ar.chi(ar.mul(ar.mul(xi, g), x))
                           for x in range(q)] for g in range(q)])
        plane = np.ascontiguousarray(tab.table[:, :, xi]).reshape(-1)
        want = (plane[index] * phase[None, :, :]).sum(axis=2)
        got = fr.u_tables(f, xi).u
        assert np.array_equal(got, want)
        assert (np.abs(got) ** 2).sum() == (np.abs(want) ** 2).sum()


def test_key_counting_delta(f7):
    d0 = mx.GridFunction.delta(h1(f7))
    for xi in range(1, 7):
        r1, r2 = fr.key_counting_check(d0, xi)
        assert r1.holds and r2.holds
        assert r1.lhs == pytest.approx(7.0)      # q <= 2q * 1
        assert r1.rhs == pytest.approx(14.0)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_key_counting_random(q):
    fld = Field(q)
    trials = 200 if q <= 7 else 60
    for trial in range(trials):
        f = random_f(fld, 7, q, trial)
        for xi in range(1, q):
            r1, r2 = fr.key_counting_check(f, xi)
            assert r1.holds and r2.holds


def test_key_counting_single_fiber_support():
    # f supported on one t-fiber: f^(x,y;xi) = f(x,y,t0) chi(-xi t0), so the
    # counting inequality reduces to an exact planar character computation
    f5 = Field(5)
    rng = mx.seeded_rng(8)
    plane = (rng.random((5, 5)) + 1j * rng.random((5, 5)))
    vals = np.zeros((5, 5, 5), dtype=complex)
    vals[:, :, 2] = plane
    f = mx.GridFunction(h1(f5), vals.reshape(-1))
    tab = fr.central_fourier(f)
    for xi in range(1, 5):
        assert np.allclose(np.abs(tab.table[:, :, xi]), np.abs(plane))
        r1, r2 = fr.key_counting_check(f, xi)
        assert r1.holds and r2.holds


# -- quadratic fiber counts --------------------------------------------------------


def test_fiber_count_examples():
    f5 = Field(5)
    counts = fr.quadratic_fiber_count(f5, 1, 0)  # x^2
    assert counts[0] == 1
    assert counts[4] == 2  # {2, 3}
    assert sum(counts) == 5


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
def test_fiber_counts_at_most_two_exhaustive(q):
    fld = Field(q)
    for xi in range(1, q):
        for rho in range(q):
            counts = fr.quadratic_fiber_count(fld, xi, rho)
            assert max(counts) <= 2
            assert sum(counts) == q


def test_fiber_count_rejects_zero_xi():
    with pytest.raises(DomainError):
        fr.quadratic_fiber_count(Field(5), 0, 1)


def test_g_rho_square_sum_identity(f7):
    # sum_rho |G_rho(x)|^2 = q sum_y |f^(x,y;xi)|^2 for every x
    f = random_f(f7, 9)
    tab = fr.central_fourier(f)
    for xi in (1, 4):
        g = np.stack([ol.g_rho(f, xi, rho) for rho in range(7)])
        lhs = (np.abs(g) ** 2).sum(axis=0)
        rhs = 7 * (np.abs(tab.table[:, :, xi]) ** 2).sum(axis=1)
        assert np.allclose(lhs, rhs, rtol=1e-9)


# -- split bounds -------------------------------------------------------------------


def test_split_bounds_delta(f7):
    d0 = mx.GridFunction.delta(h1(f7))
    fam = mx.linearize("refined", f7, for_function=d0)
    r0, rrest = fr.split_bound_check(d0, fam)
    assert r0.holds and rrest.holds
    assert r0.lhs < 0.5 * r0.rhs  # large slack for a point mass


def test_split_bounds_constant_kills_nonzero_frequencies(f7):
    c = mx.GridFunction.constant(h1(f7))
    fam = mx.linearize("refined", f7)
    comps = fr.t_components(c, fam)
    assert np.abs(comps[1:]).max() < 1e-10
    r0, rrest = fr.split_bound_check(c, fam)
    assert r0.holds and rrest.holds and rrest.lhs < 1e-9


def test_split_bounds_random_q11():
    f11 = Field(11)
    for trial in range(100):
        f = random_f(f11, 10, trial)
        fam = mx.linearize("refined", f11, for_function=f)
        r0, rrest = fr.split_bound_check(f, fam)
        assert r0.holds and rrest.holds


# -- shared tables and components ---------------------------------------------


def assert_components_factor(f, fam):
    # row 0 bit for bit against the definition; row xi >= 1 bit for bit
    # against chi(xi tau) U_xi / q, and within 1e-13 of its maximum against
    # the definition, which sums in another order
    q = f.field.q
    comps = fr.t_components(f, fam)
    assert np.array_equal(comps[0], ol.t_xi_component(f, 0, fam))
    chi = fr.chi_matrix(f.field)
    tau = ol._family_plane_and_t(fam)[1][:, 0]
    for xi in range(1, q):
        ut = fr.u_tables(f, xi)
        u = np.concatenate([ut.u.reshape(-1), ut.u_inf])
        assert np.array_equal(comps[xi], chi[xi, tau] * u / q)
        want = ol.t_xi_component(f, xi, fam)
        assert np.abs(comps[xi] - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("q", [5, 16, 27])
def test_t_components_equal_per_frequency_oracle(q):
    fld = Field(q)
    f = random_f(fld, 20, q)
    assert_components_factor(f, mx.linearize("refined", fld, for_function=f))
    assert_components_factor(f, mx.linearize("refined", fld))


@pytest.mark.parametrize("q", ALL_Q)
def test_frequency_components_factor_through_u_tables(q):
    fld = Field(q)
    f = random_f(fld, 22, q)
    for fam in (mx.linearize("refined", fld, for_function=f),
                mx.linearize("refined", fld, rng=mx.seeded_rng(23, q)),
                mx.linearize("refined", fld)):
        assert_components_factor(f, fam)


def test_u_rows_built_once_per_input(f7, monkeypatch):
    # t_components and all q - 1 u_tables calls read one build of the rows
    asked = []
    table = fr.field_table

    def counting_table(fld, name, build):
        asked.append(name)
        return table(fld, name, build)

    monkeypatch.setattr(fr, "field_table", counting_table)
    f = random_f(f7, 24)
    fr.t_components(f, mx.linearize("refined", f7, for_function=f))
    uts = [fr.u_tables(f, xi) for xi in range(1, 7)]
    assert asked.count("u-plane-index") == 1
    assert "u-phases" not in asked
    rows = fr._u_rows(f)
    for ut in uts:
        assert np.shares_memory(ut.u, rows) and np.shares_memory(ut.u_inf, rows)
        assert not ut.u.flags.writeable and not ut.u_inf.flags.writeable


def test_t_components_reject_a_family_off_the_normal_form(f7):
    f = random_f(f7, 25)
    fam = mx.linearize("refined", f7, rng=mx.seeded_rng(26))
    swapped = fam.point_idx.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    bad = mx.LineFamily("refined", f7, fam.directions, swapped, fam.domain)
    with pytest.raises(DomainError):
        fr.t_components(f, bad)
    with pytest.raises(DomainError):
        fr.t_components(f, mx.linearize("planar", f7))
    assert np.array_equal(fr.t_components(f, fam)[0],
                          ol.t_xi_component(f, 0, fam))


@pytest.mark.parametrize("q", [4, 5])
def test_fourier_gathers_use_native_width_indices(q):
    f = Field(q)
    index = fr.field_table(f, "u-plane-index", fr._u_plane_index)
    assert index.dtype == np.intp and not index.flags.writeable
    fam = mx.linearize("refined", f, rng=mx.seeded_rng(q))
    g = mx.GridFunction.delta(h1(f))
    assert fr._family_tau(g, fam).dtype == np.intp


def test_table_and_components_are_shared_per_input(f7):
    f = random_f(f7, 21)
    tab = fr.central_fourier(f)
    assert fr.central_fourier(f) is tab
    assert not tab.table.flags.writeable
    fam = mx.linearize("refined", f7, for_function=f)
    comps = fr.t_components(f, fam)
    assert fr.t_components(f, fam) is comps
    assert not comps.flags.writeable
    other = mx.linearize("refined", f7)
    assert fr.t_components(f, other) is not comps
    assert fr.t_components(f, fam) is comps
    # a fresh copy of the input gets its own, equal, table
    copy = mx.GridFunction(f.domain, f.values)
    assert fr.central_fourier(copy) is not tab
    assert np.array_equal(fr.central_fourier(copy).table, tab.table)
