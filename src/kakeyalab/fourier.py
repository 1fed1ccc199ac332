"""Central-variable Fourier apparatus on H_1(F_q).

Transforms only the t variable: f^(x, y; xi) = sum_t f(x,y,t) chi(-xi t).
A linearization T splits exactly as T = sum_xi T_xi, each T_xi is read off
the U tables of the input, built once, and the whole l2 theory reduces to
quadratic fiber counting.
"""

from __future__ import annotations

import math

import numpy as np

from .field import DomainError, field_table
from .maximal import (VerifyReport, apply_linearized, lp_norm,
                      refined_incidence, REL_TOL)


def chi_matrix(field):
    """The q x q table chi(i*j); symmetric, cached per field."""
    return field_table(field, "chi", lambda f: f.np_chi[f.np_mul])


def _u_plane_index(field):
    """Flat plane index x*q + (m*x - g) of the point (x, mx - g) on the line
    of direction [1:m] through (0, -g), as a C-ordered np.intp table
    indexed [m, g, x]."""
    m, g, x = np.ogrid[:field.q, :field.q, :field.q]
    return x * field.q + field.np_sub[field.np_mul[m, x], g]


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


def _u_rows(F):
    """Read-only (q, q*q + q) array memoized on F: row xi holds U_xi(m, g) at
    m*q + g, then U_xi^inf(g) at q*q + g, as enumerate_refined_directions.

    The sums run in memory order over a C-ordered copy of the planes, so
    the bits depend on the layout.
    """
    def build():
        field, q = F.field, F.field.q
        index = field_table(field, "u-plane-index", _u_plane_index)
        chi = chi_matrix(field)
        planes = np.ascontiguousarray(  # row xi: f^(., .; xi) flattened
            central_fourier(F).table.reshape(q * q, q).T)
        rows = np.empty((q, q * q + q), dtype=np.complex128)
        gathered = np.empty((q, q, q), dtype=np.complex128)  # [m, g, x]
        for xi, (plane, row) in enumerate(zip(planes, rows)):
            phase = chi[field.np_mul[xi]]  # chi(xi g x) indexed [g, x]
            # every index is in range: "clip" lets take fill out unbuffered
            np.take(plane, index, out=gathered, mode="clip")
            np.multiply(gathered, phase, out=gathered)
            gathered.sum(axis=2, out=row[:q * q].reshape(q, q))
            # U_inf(g) = sum_y f^(g, y; xi) chi(xi g y): the phase with y for x
            row[q * q:] = (plane.reshape(q, q) * phase).sum(axis=1)
        rows.flags.writeable = False
        return rows
    return F.memo("u-rows", build)


def _family_tau(f, family):
    """tau_i per row i: row tau_i of block i of refined_incidence, or raise."""
    _, table = refined_incidence(f.field)
    tau = family.point_idx[:, 0] % f.field.q
    if family.domain != f.domain or len(tau) != len(table) or not \
            np.array_equal(family.point_idx, table[np.arange(len(tau)), tau]):
        raise DomainError("each row i must be a line of refined direction i")
    return tau


def t_components(f, family):
    """All frequency components at once: array of shape (q, #D_1).

    Row xi is (T_xi f)(omega) = (1/q) sum over L_omega of f^(x,y;xi) chi(xi t)
    = chi(xi tau) U_xi / q, as chi(xi (tau + g x)) = chi(xi tau) chi(xi g x) on
    L_{[1:m:g],tau} = {(x, mx-g, tau+gx)}, and likewise on L_{[0:1:g],tau}.
    The result is read-only and memoized on f per family.
    """
    def build():
        tau = _family_tau(f, family)    # checked before any U row is built
        comps = chi_matrix(f.field)[:, tau] * _u_rows(f) / f.field.q
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
    """U_xi(m,g) = sum_x f^(x, mx-g; xi) chi(xi g x), read-only; xi nonzero."""
    field = f.field
    xi = field.coerce_index(xi)
    if xi == 0:
        raise DomainError("U tables are defined for nonzero xi")
    row, q = _u_rows(f)[xi], field.q                      # views of one row
    return UTable(field, xi, row[:q * q].reshape(q, q), row[q * q:])


def _key_sums(f):
    """Read-only (q, 3) array memoized on f: row xi holds sum |U_xi|^2,
    sum |U_xi^inf|^2 and sum |f^(., .; xi)|^2, for every xi in one pass.

    Each sum runs over its own contiguous row, a U row part or a C-ordered
    copy of the plane f^(., .; xi), so it has the bits of the same sum
    taken on that one table alone.
    """
    def build():
        q = f.field.q
        rows = np.abs(_u_rows(f)) ** 2
        planes = np.ascontiguousarray(  # row xi: |f^(., .; xi)|^2 flattened
            (np.abs(central_fourier(f).table) ** 2).reshape(q * q, q).T)
        sums = np.stack([rows[:, :q * q].sum(axis=1),
                         rows[:, q * q:].sum(axis=1), planes.sum(axis=1)],
                        axis=1)
        sums.flags.writeable = False
        return sums
    return f.memo("key-sums", build)


def key_counting_check(f, xi, tol=REL_TOL):
    """The two counting inequalities behind the sharp l2 bound:
    sum |U_xi|^2 <= 2q sum |f^(., .; xi)|^2 and sum |U_xi^inf|^2 <= q times
    the same; xi nonzero.  The sums of every xi come from one pass over
    the input (_key_sums)."""
    field = f.field
    xi = field.coerce_index(xi)
    u_tables(f, xi)                                 # raises for xi = 0
    lhs_u, lhs_inf, plane_sq = map(float, _key_sums(f)[xi])
    q = field.q
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
    x = np.arange(field.q)
    t = field.np_mul[field.np_sub[field.np_mul[xi, x], rho], x]
    return np.bincount(t, minlength=field.q).tolist()


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
    """Relative gap of T f from sum_xi chi(xi tau) U_xi / q on the family."""
    direct = apply_linearized(family, f)
    summed = t_components(f, family).sum(axis=0)
    scale = max(float(np.abs(direct).max()), float(np.abs(summed).max()), 1e-300)
    return float(np.abs(direct - summed).max()) / scale
