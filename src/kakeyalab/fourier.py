"""Central-variable Fourier apparatus on H_1(F_q).

Transforms only the t variable: f^(x, y; xi) = sum_t f(x,y,t) chi(-xi t).
A linearization T then splits exactly as T = sum_xi T_xi, the nonzero
frequencies factor through the U tables, and the whole l2 theory reduces
to quadratic fiber counting.
"""

from __future__ import annotations

import math

import numpy as np

from .field import DomainError, field_table
from .maximal import (Domain, GridFunction, VerifyReport, affine_incidence,
                      apply_linearized, lp_norm, REL_TOL)


def chi_matrix(field):
    """The q x q table chi(i*j); symmetric, cached per field."""
    return field_table(field, "chi", lambda f: f.np_chi[f.np_mul])


def _u_plane_index(field):
    """Flat [x, y] plane index of the point (x, mx - g), indexed [m, g, x].

    These are the planar lines of direction [1:m], the first q blocks of the
    affine table, whose row -g starts at (0, -g).  The copy is C-ordered:
    u_tables sums the gather along x, and its bits depend on the layout.
    """
    _, table = affine_incidence(field, 2)
    return np.ascontiguousarray(table[:field.q, field.np_neg])


def _u_phases(field):
    """chi(xi g x) indexed [xi, g, x]."""
    return chi_matrix(field)[field.np_mul]


class CentralFourierTable:
    """f^(x, y; xi) as a dense read-only (q, q, q) complex table [x, y, xi]."""

    __slots__ = ("field", "table")

    def __init__(self, field, table):
        self.field = field
        self.table = table

    def plancherel_defect(self, F):
        """Relative gap in sum |f^|^2 = q |f|_2^2."""
        lhs = float((np.abs(self.table) ** 2).sum())
        rhs = self.field.q * F.norm(2) ** 2
        scale = max(lhs, rhs, 1e-300)
        return abs(lhs - rhs) / scale


def _require_h1(F):
    if F.domain.kind != "heisenberg" or F.domain.n != 1:
        raise DomainError("central Fourier transform is defined on H_1")


def _transform(F):
    _require_h1(F)
    q = F.field.q
    vals = np.asarray(F.values, dtype=np.complex128).reshape(q, q, q)
    # contract t against chi(-xi t): vals[x,y,t] @ conj(chi)[t,xi]
    table = vals @ np.conj(chi_matrix(F.field))
    table.flags.writeable = False   # shared through F's memo
    return CentralFourierTable(F.field, table)


def central_fourier(F):
    """Transform the central variable of an H_1 grid function.

    The table is memoized on F, like every quantity derived from it below.
    """
    return F.memo("central-fourier", lambda: _transform(F))


def _planes(F):
    """The (q, q*q) array whose row xi is f^(., .; xi) flattened.

    A read-only C-ordered copy memoized on F: u_tables sums its gather in
    memory order, so the bits depend on the layout.
    """
    def build():
        q = F.field.q
        planes = np.ascontiguousarray(
            central_fourier(F).table.reshape(q * q, q).T)
        planes.flags.writeable = False
        return planes
    return F.memo("fourier-planes", build)


def inverse_central_fourier(tab):
    """f(x,y,t) = (1/q) sum_xi f^(x,y;xi) chi(xi t)."""
    q = tab.field.q
    vals = (tab.table @ chi_matrix(tab.field)) / q
    return GridFunction(Domain.heisenberg(tab.field, 1), vals.reshape(-1))


def _family_plane_and_t(family):
    if family.kind != "refined":
        raise DomainError("frequency components need a refined line family")
    q = family.field.q
    return family.point_idx // q, family.point_idx % q


def t_xi_component(f, xi, family):
    """(T_xi f)(omega) = (1/q) sum over L_omega of f^(x,y;xi) chi(xi t)."""
    field = f.field
    q = field.q
    xi = field.coerce_index(xi)
    xy_idx, t_idx = _family_plane_and_t(family)
    plane = central_fourier(f).table[:, :, xi].reshape(-1)
    phases = field.np_chi[field.np_mul[xi][t_idx]]
    return (plane[xy_idx] * phases).sum(axis=1) / q


def t_components(f, family):
    """All frequency components at once: array of shape (q, #D_1).

    Row xi equals t_xi_component(f, xi, family) bit for bit.  The result is
    read-only and memoized on f per family.
    """
    def build():
        q = f.field.q
        xy_idx, t_idx = _family_plane_and_t(family)
        chi = chi_matrix(f.field)
        planes = _planes(f)
        comps = np.empty((q, len(family)), dtype=np.complex128)
        for xi in range(q):
            comps[xi] = (planes[xi][xy_idx] * chi[xi][t_idx]).sum(axis=1) / q
        comps.flags.writeable = False
        return comps
    return f.memo(("t-components", family), build)


class UTable:
    """The normal-form character sums U_xi(m, gamma) and U_xi^inf(gamma)."""

    __slots__ = ("field", "xi", "u", "u_inf")

    def __init__(self, field, xi, u, u_inf):
        self.field = field
        self.xi = xi
        self.u = u          # (q, q) indexed [m, gamma]
        self.u_inf = u_inf  # (q,) indexed [gamma]


def u_tables(f, xi):
    """U_xi(m,g) = sum_x f^(x, mx-g; xi) chi(xi g x); xi must be nonzero."""
    field = f.field
    xi = field.coerce_index(xi)
    if xi == 0:
        raise DomainError("U tables are defined for nonzero xi")
    q = field.q
    index = field_table(field, "u-plane-index", _u_plane_index)
    phase = field_table(field, "u-phases", _u_phases)[xi]       # [g, x]
    plane = _planes(f)[xi]                                      # [x*q + y]
    u = (plane[index] * phase[None, :, :]).sum(axis=2)
    # U_inf(g) = sum_y f^(g, y; xi) chi(xi g y); same phase table with y for x
    u_inf = (plane.reshape(q, q) * phase).sum(axis=1)
    return UTable(field, xi, u, u_inf)


def key_counting_check(f, xi, tol=REL_TOL):
    """The two counting inequalities behind the sharp l2 bound."""
    field = f.field
    xi = field.coerce_index(xi)
    ut = u_tables(f, xi)
    plane_sq = float((np.abs(central_fourier(f).table[:, :, xi]) ** 2).sum())
    q = field.q
    lhs_u = float((np.abs(ut.u) ** 2).sum())
    lhs_inf = float((np.abs(ut.u_inf) ** 2).sum())
    rep_u = VerifyReport("fourier-key-nonvertical", q, 1, 2, 2,
                         lhs_u, 2 * q * plane_sq,
                         lhs_u <= 2 * q * plane_sq * (1 + tol) + 1e-12)
    rep_inf = VerifyReport("fourier-key-vertical", q, 1, 2, 2,
                           lhs_inf, q * plane_sq,
                           lhs_inf <= q * plane_sq * (1 + tol) + 1e-12)
    return rep_u, rep_inf


def quadratic_fiber_count(field, xi, rho):
    """Fiber sizes of Q_rho(x) = (xi x - rho) x: a list over t, each <= 2."""
    xi = field.coerce_index(xi)
    rho = field.coerce_index(rho)
    if xi == 0:
        raise DomainError("Q_rho needs nonzero xi")
    counts = [0] * field.q
    for x in range(field.q):
        t = field.mul(field.sub(field.mul(xi, x), rho), x)
        counts[t] += 1
    return counts


def g_rho(f, xi, rho):
    """G_rho(x) = sum_y f^(x,y;xi) chi(-(xi x - rho) y)."""
    field = f.field
    xi = field.coerce_index(xi)
    rho = field.coerce_index(rho)
    q = field.q
    xs = np.arange(q, dtype=np.int64)
    coeff = field.np_sub.astype(np.int64)[field.np_mul[xi][xs], rho]
    phases = np.conj(field.np_chi[field.np_mul.astype(np.int64)[coeff[:, None], xs[None, :]]])
    return (central_fourier(f).table[:, :, xi] * phases).sum(axis=1)


def split_bound_check(f, family, tol=REL_TOL):
    """|T_0 f|_2 <= sqrt(2q) |f|_2 and |T_{/=0} f|_2 <= sqrt(5q) |f|_2."""
    fnorm = f.norm(2)
    q = f.field.q
    comps = t_components(f, family)
    lhs0 = lp_norm(comps[0], 2)
    lhs_rest = lp_norm(comps[1:].sum(axis=0), 2)
    rhs0 = math.sqrt(2 * q) * fnorm
    rhs_rest = math.sqrt(5 * q) * fnorm
    rep0 = VerifyReport("fourier-split-zero", q, 1, 2, 2, lhs0, rhs0,
                        lhs0 <= rhs0 * (1 + tol) + 1e-12)
    rep_rest = VerifyReport("fourier-split-nonzero", q, 1, 2, 2,
                            lhs_rest, rhs_rest,
                            lhs_rest <= rhs_rest * (1 + tol) + 1e-12)
    return rep0, rep_rest


def decomposition_defect(f, family):
    """Relative gap between T f and sum_xi T_xi f on the family."""
    direct = apply_linearized(family, f)
    summed = t_components(f, family).sum(axis=0)
    scale = max(float(np.abs(direct).max()), float(np.abs(summed).max()), 1e-300)
    return float(np.abs(direct - summed).max()) / scale
