"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math
import time
from fractions import Fraction

import numpy as np

from kakeyalab.field import Field
from kakeyalab import heisenberg as hz
from kakeyalab import maximal as mx
from kakeyalab import fourier as fr
from kakeyalab import constructions as cn
from kakeyalab import cli

import oracle as ol

QS = (3, 5, 7, 9, 11, 13)
INF = math.inf

_FIELDS = {}


def field(q):
    if q not in _FIELDS:
        _FIELDS[q] = Field(q)
    return _FIELDS[q]


def outcome(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_ttstar_spectrum():
    # warm the field/incidence caches; the timed budget is the computation
    for q in QS:
        mx.affine_incidence(field(q), 2)
    start = time.perf_counter()
    ok = True
    for q in QS:
        expected = np.array([2 * q] + [q - 1] * q, dtype=float)
        for trial in range(20):
            fam = mx.linearize("planar", field(q),
                               rng=mx.seeded_rng(trial))
            eigs = mx.ttstar_spectrum(fam)
            if np.abs(eigs - expected).max() > 1e-8:
                ok = False
    elapsed = time.perf_counter() - start
    outcome(1, f"ttstar-spectrum ({elapsed:.2f}s)", ok and elapsed < 1.0)


def test_criterion_2_planar_l2_sharp_norm():
    ok = True
    for q in QS:
        fld = field(q)
        target = math.sqrt(2 * q)
        fams = [mx.linearize("planar", fld)]
        fams += [mx.linearize("planar", fld, rng=mx.seeded_rng(t))
                 for t in range(20)]
        g = mx.random_complex_grid(mx.Domain.affine(fld, 2),
                                   mx.seeded_rng(2, q))
        fams.append(mx.linearize("planar", fld, for_function=g))
        for fam in fams:
            sigma = mx.l2_operator_norm(fam)
            if abs(sigma - target) > 1e-8 * target:
                ok = False
    outcome(2, "planar-opnorm-sqrt2q", ok)


def test_criterion_3_rd_l2_theorem_bound():
    start = time.perf_counter()
    ok = True
    for q in QS:
        fld = field(q)
        dom = mx.Domain.heisenberg(fld, 1)
        bound = 5.0 * math.sqrt(q)
        for trial in range(200):
            F = mx.random_complex_grid(dom, mx.seeded_rng(3, q, trial))
            lhs = mx.lp_norm(mx.refined_max_op(F), 2)
            if lhs > bound * F.norm(2) * (1 + 1e-9):
                ok = False
        delta_ratio = mx.lp_norm(
            mx.refined_max_op(mx.GridFunction.delta(dom)), 2)
        if not (abs(delta_ratio - math.sqrt(q + 1)) < 1e-9
                and delta_ratio >= math.sqrt(q)):
            ok = False
    elapsed = time.perf_counter() - start
    outcome(3, f"rd-l2-five-sqrt-q ({elapsed:.2f}s)", ok and elapsed < 10.0)


def test_criterion_4_fourier_apparatus():
    ok = True
    for q in QS:
        fld = field(q)
        dom = mx.Domain.heisenberg(fld, 1)
        for trial in range(100):
            f = mx.random_complex_grid(dom, mx.seeded_rng(4, q, trial))
            fam = mx.linearize("refined", fld, for_function=f)
            if fr.central_fourier(f).plancherel_defect(f) > 1e-9:
                ok = False
            if fr.decomposition_defect(f, fam) > 1e-9:
                ok = False
            for xi in range(1, q):
                r1, r2 = fr.key_counting_check(f, xi)
                if not (r1.holds and r2.holds):
                    ok = False
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
        fld = field(q)
        for xi in range(1, q):
            for rho in range(q):
                if max(fr.quadratic_fiber_count(fld, xi, rho)) > 2:
                    ok = False
    outcome(4, "fourier-decomposition-plancherel-counting", ok)


def test_criterion_5_exponent_formulas():
    ok = True
    # exact integer certificates at q in {3, 5, 7, 11} for every term
    for q in (3, 5, 7, 11):
        fld = field(q)
        for operator, n, kind, pairs in cli.LOWER_BOUND_PLAN:
            for u, v in pairs:
                rep = cn.lower_bound_ratio(kind, fld, u, v, n=n,
                                           operator=operator)
                if not rep.cert_holds:
                    ok = False
    # closed-form evaluations pinned by the statement
    ok &= mx.exponent_A(1, 2, 2) == Fraction(1, 2)
    ok &= mx.exponent_A(1, INF, 1) == 2
    ok &= mx.exponent_A(2, 4, 4) == Fraction(3, 4)
    ok &= mx.exponent_Ard(3, 3) == Fraction(2, 3)
    # exact exponents at q in {3, 5, 7, 9, 11, 13, 25}, rank 2 at q <= 9
    cfg = cli.SuiteConfig(fields=tuple(map(field, (3, 5, 7, 9, 11, 13, 25))))
    for row in cli.suite_exponents(cfg):
        if not row["holds"]:
            ok = False
    outcome(5, "exponent-term-certificates-and-exact-exponents", ok)


def test_criterion_6_upper_bound_suite():
    cfg = cli.SuiteConfig(fields=tuple(map(field, QS)),
                          suites=("diag", "offdiag"), seed=0, trials=8)
    rows = cli.suite_diag(cfg) + cli.suite_offdiag(cfg)
    ok = bool(rows) and all(r["holds"] for r in rows)
    # the paper's explicit constants appear in the catalog
    consts = {s.name: s.constant for s in mx.bound_catalog(7)}
    consts.update({s.name: s.constant for s in mx.offdiag_catalog()})
    ok &= abs(consts["planar-l2"] - math.sqrt(2)) < 1e-12
    ok &= abs(consts["heis-steep-(2,1)"] - 2.0) < 1e-12
    ok &= abs(consts["heis-upperleft-(2,1)"] - 2 * math.sqrt(2)) < 1e-12
    ok &= abs(consts["rd-diag-u=2"] - 5.0) < 1e-12
    outcome(6, "upper-bound-lemma-suite", ok)


def test_criterion_7_section_11_separations():
    ok = True
    for q in (5, 7, 9, 11, 13):
        fld = field(q)
        dirs = ol.enumerate_refined_directions(fld, 1)
        for om0 in (dirs[0], dirs[len(dirs) // 2], dirs[-1]):
            e1 = cn.example_affine_not_refined(fld, om0.rep)
            affine1, _ = cn.is_affine_kakeya(cn.as_affine_set(e1))
            refined1, _ = cn.is_full_refined_kakeya(e1)
            witness_ok = not any(
                ol.contains_line(e1, L)
                for L in ol.lines_with_refined_direction(om0))
            if not (affine1 and not refined1 and witness_ok):
                ok = False
        e2 = cn.example_refined_not_affine(fld)
        refined2, _ = cn.is_full_refined_kakeya(e2)
        affine2, wit2 = cn.is_affine_kakeya(cn.as_affine_set(e2))
        if not (refined2 and not affine2 and wit2 == (0, 0, 1)):
            ok = False
        if int(cn.vertical_fiber_sizes(e2).max()) > (q + 3) // 2:
            ok = False
        para = cn.extremal_set("paraboloid", fld).indicator()
        m2g = mx.affine_max_op(mx.project_aggregate(para, 1))
        mh = mx.heis_max_op(para)
        if not (m2g.min() == q and m2g.max() == q and mh.max() <= 2):
            ok = False
    outcome(7, "section-11-separations-and-paraboloid", ok)


def test_criterion_8_size_and_moment_reports():
    ok = True
    cfg = cli.SuiteConfig(fields=(field(5), field(7)),
                          suites=("kakeya-bounds",), seed=0, trials=5)
    rows = cli.suite_kakeya_bounds(cfg)
    ok &= bool(rows) and all(r["holds"] for r in rows)
    # the (2,2) report uses exactly |E| >= m^2 |Omega| / (25 q)
    for q in (5, 7):
        fld = field(q)
        dirs = hz.enumerate_refined_directions(fld, 1)
        full = cn.PointSet.full(mx.Domain.heisenberg(fld, 1))
        rep = cn.kakeya_bound_report(full, np.arange(len(dirs)), q, 2, 2)
        ok &= rep.holds
        ok &= abs(rep.rhs - q**2 * len(dirs) / (25 * q)) < 1e-9
        for s in (2, 3):
            for ps in (cn.extremal_set("single-line", fld),
                       cn.extremal_set("bush", fld),
                       cn.example_refined_not_affine(fld), full):
                if not cn.moment_report(ps, s).holds:
                    ok = False
    outcome(8, "kakeya-size-and-moment-bounds", ok)


def test_criterion_9_census():
    ok = True
    for q in (3, 5, 7):
        fld = field(q)
        for n in (1, 2):
            rec = hz.census(fld, n)  # raises if enumeration != formulas
            num_proj = (q ** (2 * n) - 1) // (q - 1)
            ok &= rec.lines == q ** (2 * n) * num_proj
            ok &= rec.lines_per_refined_direction == q ** (2 * n - 1)
            ok &= rec.lines_per_point == num_proj
            ok &= rec.refined_directions == q * num_proj
            bush = cn.extremal_set("bush", fld, n)
            ok &= len(bush) == q ** (2 * n)
        ok &= hz.census(fld, 1).lines == q * q * (q + 1)
        ok &= hz.census(fld, 1).lines_per_refined_direction == q
        ok &= hz.census(fld, 1).lines_per_point == q + 1
        ok &= hz.census(fld, 1).refined_directions == q * q + q
    outcome(9, "census-closed-forms", ok)
