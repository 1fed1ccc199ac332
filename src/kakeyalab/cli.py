"""Command-line harness: verification suites across q, CSV/JSON reports.

Commands: census, verify, maxop, examples.  Identical config and
seed produce byte-identical CSV output; exit status is 0 when every
checked bound holds, 1 when at least one fails, 2 on bad configuration or
input and on a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import pickle
import subprocess
import sys
import threading
from collections import Counter
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import DomainError, Field
from . import heisenberg as hz
from . import maximal as mx
from . import fourier as fr
from . import constructions as cn

DEFAULT_QS = (3, 5, 7, 9, 11, 13)
BIG_QS = (16, 25, 27)

CSV_HEADER = ("suite", "bound", "q", "n", "u", "v", "lhs", "rhs", "ratio",
              "holds", "seed", "trial")

ALL_SUITES = ("census", "planar-l2", "ttstar", "diag", "offdiag", "rd-l2",
              "fourier", "exponents", "lowerbounds", "examples",
              "kakeya-bounds", "moments")


@dataclass
class SuiteConfig:
    fields: tuple = ()      # built once (_config_from); a task takes one
    suites: tuple = ALL_SUITES
    seed: int = 0
    trials: int = None      # None: per-suite default
    tol: float = 1e-9
    out: str = None
    dump_fourier: str = None

    def ntrials(self, default):
        return default if self.trials is None else self.trials


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def make_row(suite, bound, q, n, u, v, lhs, rhs, holds, trial=""):
    if rhs:
        ratio = lhs / rhs
    else:
        ratio = math.inf if lhs else 1.0
    return {
        "suite": suite, "bound": bound, "q": q, "n": n,
        "u": str(u), "v": str(v),
        "lhs": lhs, "rhs": rhs, "ratio": ratio, "holds": holds,
        "seed": "", "trial": trial,
    }


def report_row(suite, rep, trial=""):
    return make_row(suite, rep.name, rep.q, rep.n, rep.u, rep.v,
                    rep.lhs, rep.rhs, rep.holds, trial)


def rows_to_csv(rows, header=True):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([_fmt(r[k]) for k in CSV_HEADER])
    return buf.getvalue()


def _rng(cfg, suite, q, trial):
    """The generator of one random draw; no two draws share a key."""
    return mx.seeded_rng(cfg.seed, ALL_SUITES.index(suite), q, trial)


# ---------------------------------------------------------------------------
# suites: suite_X(cfg, fld) returns the rows of the one field fld, a field
# of cfg.fields; cfg is the run's whole config


def suite_census(cfg, fld):
    rows = []
    q = fld.q
    for n in (1, 2):
        if n >= 2 and q > 7:
            continue  # enumeration of all lines gets large
        try:
            rec = hz.census(fld, n)
            pairs = [
                ("points", rec.points), ("proj-dirs", rec.proj_directions),
                ("refined-dirs", rec.refined_directions),
                ("lines", rec.lines),
                ("lines-per-dir", rec.lines_per_direction),
                ("lines-per-refined-dir", rec.lines_per_refined_direction),
                ("lines-per-point", rec.lines_per_point),
            ]
            for name, val in pairs:
                rows.append(make_row("census", f"census-{name}", q, n,
                                     "", "", val, val, True))
        except AssertionError as exc:
            rows.append(make_row("census", f"census-mismatch:{exc}", q, n,
                                 "", "", 0.0, 0.0, False))
    return rows


def suite_planar_l2(cfg, fld):
    """Every planar linearization has operator norm exactly sqrt(2q)."""
    rows = []
    q = fld.q
    target = math.sqrt(2 * q)
    fams = [("default", mx.linearize("planar", fld))]
    trials = cfg.ntrials(20)
    for trial in range(trials):
        rng = _rng(cfg, "planar-l2", q, trial)
        fams.append((trial, mx.linearize("planar", fld, rng=rng)))
    # the maximizing input takes the key after the last trial's
    g = mx.random_complex_grid(mx.Domain.affine(fld, 2),
                               _rng(cfg, "planar-l2", q, trials))
    fams.append(("maximizing", mx.linearize("planar", fld, for_function=g)))
    for tag, fam in fams:
        sigma = mx.l2_operator_norm(fam)
        holds = abs(sigma - target) <= 1e-8 * target
        rows.append(make_row("planar-l2", "planar-opnorm-sqrt2q", q, 1,
                             2, 2, sigma, target, holds, trial=tag))
    return rows


def suite_ttstar(cfg, fld):
    """TT* eigenvalues are {2q} + {q-1} x q for every planar family."""
    rows = []
    q = fld.q
    expected = np.array([2 * q] + [q - 1] * q, dtype=np.float64)
    for trial in range(cfg.ntrials(20)):
        fam = mx.linearize("planar", fld,
                           rng=_rng(cfg, "ttstar", q, trial))
        eigs = mx.ttstar_spectrum(fam)
        dev = float(np.abs(eigs - expected).max())
        rows.append(make_row("ttstar", "ttstar-two-eigenvalues", q, 1,
                             2, 2, dev, 1e-8, dev <= 1e-8, trial=trial))
    return rows


def _structured_h1(fld):
    kinds = [("delta", "point-mass"), ("line", "single-line"),
             ("bush", "bush"), ("constant", "constant")]
    if fld.q % 2:
        kinds.append(("paraboloid", "paraboloid"))
    return [(label, cn.extremal_set(kind, fld).indicator())
            for label, kind in kinds]


def _bound_rows(cfg, suite, fld, specs, trials):
    """Every spec on its operator's inputs: the structured ones, then one
    random grid per trial; rows spec by spec, input by input.

    A trial's grids are drawn from its generator in the order heis,
    refined, affine, each only if some spec reads its operator (offdiag's
    specs read only heis, which is drawn first, so its grid is the same),
    and go through every spec of their operator before the next trial's
    are drawn, so one trial's inputs are alive at a time.
    """
    dom_h = mx.Domain.heisenberg(fld, 1)
    dom_a = mx.Domain.affine(fld, 2)
    structured = _structured_h1(fld)
    fixed = {"heis": structured, "refined": structured,
             "affine": [("plane-ones", mx.GridFunction.constant(dom_a)),
                        ("plane-delta", mx.GridFunction.delta(dom_a))]}
    drawn = [(operator, dom) for operator, dom in
             (("heis", dom_h), ("refined", dom_h), ("affine", dom_a))
             if any(spec.operator == operator for spec in specs)]
    cells = [[] for _ in specs]  # the rows of specs[i], input by input

    def check(operator, tag, F):
        for spec, cell in zip(specs, cells):
            if spec.operator == operator:
                rep = mx.verify_bound(spec, F, tol=cfg.tol)
                cell.append(report_row(suite, rep, trial=tag))

    for operator, inputs in fixed.items():
        for tag, F in inputs:
            check(operator, tag, F)
    for trial in range(trials):
        rng = _rng(cfg, suite, fld.q, trial)
        for operator, dom in drawn:
            check(operator, trial, mx.random_complex_grid(dom, rng))
    return [row for cell in cells for row in cell]


def suite_diag(cfg, fld):
    specs = [s for s in mx.bound_catalog(fld.q)
             if s.name != "rd-l2-sharp"]
    return _bound_rows(cfg, "diag", fld, specs, cfg.ntrials(25))


def suite_offdiag(cfg, fld):
    return _bound_rows(cfg, "offdiag", fld, mx.offdiag_catalog(),
                       cfg.ntrials(10))


def suite_rd_l2(cfg, fld):
    """Theorem-grade l2 bound: 5 sqrt(q), plus the delta sharpness witness."""
    rows = []
    q = fld.q
    dom = mx.Domain.heisenberg(fld, 1)
    spec = next(s for s in mx.bound_catalog(q)
                if s.name == "rd-l2-sharp")
    worst = 0.0
    for trial in range(cfg.ntrials(200)):
        F = mx.random_complex_grid(dom, _rng(cfg, "rd-l2", q, trial))
        rep = mx.verify_bound(spec, F, tol=cfg.tol)
        worst = max(worst, rep.lhs / (math.sqrt(q) * F.norm(2)))
        rows.append(report_row("rd-l2", rep, trial=trial))
    rows.append(make_row("rd-l2", "rd-l2-max-observed-ratio", q, 1, 2, 2,
                         worst, 5.0, worst <= 5.0))
    delta_ratio = mx.lp_norm(mx.refined_max_op(
        mx.GridFunction.delta(dom)), 2)
    rows.append(make_row("rd-l2", "rd-l2-delta-sharpness", q, 1, 2, 2,
                         delta_ratio, math.sqrt(q),
                         delta_ratio >= math.sqrt(q)))
    return rows


def suite_fourier(cfg, fld):
    """Per random input: defect sizes, worst-over-xi counting ratios, splits."""
    rows = []
    q = fld.q
    dom = mx.Domain.heisenberg(fld, 1)
    for trial in range(cfg.ntrials(100)):
        f = mx.random_complex_grid(dom, _rng(cfg, "fourier", q, trial))
        fam = mx.linearize("refined", fld, for_function=f)
        pl = fr.central_fourier(f).plancherel_defect(f)
        rows.append(make_row("fourier", "plancherel-defect", q, 1, 2, 2,
                             pl, cfg.tol, pl <= cfg.tol, trial=trial))
        dc = fr.decomposition_defect(f, fam)
        rows.append(make_row("fourier", "decomposition-defect", q, 1,
                             "", "", dc, cfg.tol, dc <= cfg.tol,
                             trial=trial))
        key_nv = key_v = 0.0
        for xi in range(1, q):
            r1, r2 = fr.key_counting_check(f, xi, tol=cfg.tol)
            key_nv = max(key_nv, r1.lhs / r1.rhs)
            key_v = max(key_v, r2.lhs / r2.rhs)
        for name, val in (("key-nonvertical", key_nv),
                          ("key-vertical", key_v)):
            rows.append(make_row("fourier", f"fourier-{name}", q, 1, 2, 2,
                                 val, 1.0, val <= 1.0 + cfg.tol,
                                 trial=trial))
        for rep in fr.split_bound_check(f, fam, tol=cfg.tol):
            rows.append(report_row("fourier", rep, trial=trial))
        if (trial == 0 and cfg.dump_fourier is not None
                and fld is cfg.fields[-1]):
            _dump_fourier(cfg.dump_fourier, f)
    fiber_max = 0
    for xi in range(1, q):
        for rho in range(q):
            fiber_max = max(fiber_max,
                            max(fr.quadratic_fiber_count(fld, xi, rho)))
    rows.append(make_row("fourier", "quadratic-fiber-count", q, 1, "", "",
                         fiber_max, 2, fiber_max <= 2))
    return rows


def _dump_fourier(path, f):
    q = f.field.q
    doc = {
        "q": q,
        "central": [[[z.real, z.imag] for z in row]
                    for plane in fr.central_fourier(f).table for row in plane],
    }
    uts = {}
    for xi in range(1, q):
        ut = fr.u_tables(f, xi)
        uts[str(xi)] = {
            "u": [[[z.real, z.imag] for z in row] for row in ut.u],
            "u_inf": [[z.real, z.imag] for z in ut.u_inf],
        }
    doc["u_tables"] = uts
    with open(path, "w") as fh:
        json.dump(doc, fh)


LOWER_BOUND_PLAN = (
    # operator, n, kind, (u, v) pairs
    ("heis", 1, "point-mass", ((1, 1), (2, 2), (2, 1))),
    ("heis", 1, "single-line", ((2, 2), ("inf", 1), (4, 4))),
    ("heis", 1, "bush", (("inf", 1), (4, 2), ("inf", "inf"), (2, 2))),
    ("heis", 2, "point-mass", ((1, 1), (2, 2), (4, 4))),
    ("heis", 2, "single-line", ((2, 2), ("inf", 1), (4, 4))),
    ("heis", 2, "bush", (("inf", 1), (4, 4), ("inf", "inf"))),
    ("refined", 1, "point-mass", ((1, 1), (2, 2), (3, 1))),
    ("refined", 1, "single-line", ((2, 2), ("inf", "inf"), (4, 4))),
    ("refined", 1, "two-lines-blocking", ((2, 2), (1, 1), (2, 4))),
    ("refined", 1, "constant", ((3, 3), ("inf", 1), (2, 2))),
)


def suite_lowerbounds(cfg, fld):
    """Exact integer certificates for every exponent-formula term."""
    rows = []
    q = fld.q
    for operator, n, kind, pairs in LOWER_BOUND_PLAN:
        if n == 2 and q > 7:
            continue
        for u, v in pairs:
            rep = cn.lower_bound_ratio(kind, fld, u, v, n=n,
                                       operator=operator)
            rhs = rep.certified_constant * mx.q_pow(q, rep.term)
            holds = rep.cert_holds and rep.ratio >= rhs / (1 + cfg.tol)
            rows.append(make_row(
                "lowerbounds", f"{operator}-{kind}-term", q, n,
                rep.u, rep.v, rep.ratio, rhs, holds))
    return rows


SLOPE_PLAN = (
    # label, operator, n, kind, u, v; rank 2 runs at q <= 9
    ("heis1-point-mass", "heis", 1, "point-mass", 2, 1),
    ("heis1-single-line", "heis", 1, "single-line", 4, 4),
    ("heis1-bush", "heis", 1, "bush", 2, 2),
    ("heis1-bush-l1", "heis", 1, "bush", "inf", 1),
    ("heis2-point-mass", "heis", 2, "point-mass", 4, 4),
    ("heis2-single-line", "heis", 2, "single-line", 4, 4),
    ("heis2-bush", "heis", 2, "bush", 4, 4),
    ("rd-point-mass", "refined", 1, "point-mass", 2, 2),
    ("rd-single-line", "refined", 1, "single-line", 2, 2),
    ("rd-blocking", "refined", 1, "two-lines-blocking", 2, 2),
    ("rd-constant", "refined", 1, "constant", 3, 3),
)


def suite_exponents(cfg, fld):
    """Per entry and field: the certified ratio, and its exact exponent.

    The exponent row holds iff the operator-value histogram equals its
    closed form (cn.EXTREMAL_PROFILES) at q and the closed form's leading
    degree in q equals the term exactly.
    """
    rows = []
    for label, operator, n, kind, u, v in SLOPE_PLAN:
        if n == 2 and fld.q > 9:
            continue
        rep = cn.lower_bound_ratio(kind, fld, u, v, n=n, operator=operator)
        rows.append(make_row("exponents", f"{label}-ratio", fld.q, n,
                             rep.u, rep.v, rep.ratio,
                             mx.q_pow(fld.q, rep.term), rep.cert_holds))
        opvals, support = cn._extremal_op_values(kind, fld, n, operator)
        exact = (Counter(opvals.tolist()), support) == cn.profile_at(
            operator, kind, n, fld.q)
        degree = cn.profile_degree(operator, kind, n, rep.u, rep.v)
        rows.append(make_row("exponents", f"{label}-exponent", fld.q, n,
                             rep.u, rep.v, degree, rep.term,
                             exact and degree == rep.term))
    return rows


def suite_examples(cfg, fld):
    rows = []
    q = fld.q
    dirs = hz.enumerate_refined_directions(fld, 1)
    om0 = dirs[len(dirs) // 2]
    e1 = cn.example_affine_not_refined(fld, om0)
    aff1, _ = cn.is_affine_kakeya(cn.as_affine_set(e1))
    ref1, wit1 = cn.is_full_refined_kakeya(e1)
    om0_lines = hz.lines_with_refined_direction(fld, om0)
    om0_missing = not e1.mask[om0_lines].all(axis=1).any()
    rows.append(make_row("examples", "ex-affine-not-refined", q, 1, "", "",
                         float(aff1 and not ref1 and om0_missing), 1.0,
                         aff1 and not ref1 and om0_missing,
                         trial=hz.direction_label(om0)))
    rows.append(make_row("examples", "ex-affine-not-refined-size", q, 1,
                         "", "", len(e1), q**3 - q, len(e1) == q**3 - q))

    rep = cn.lower_bound_ratio("constant", fld, 3, 3, operator="refined")
    rows.append(make_row("examples", "ex-l3-sharpness", q, 1, 3, 3,
                         rep.ratio, mx.q_pow(q, Fraction(2, 3)),
                         rep.cert_holds))

    if q % 2 and q > 3:
        e2 = cn.example_refined_not_affine(fld)
        aff2, wit2 = cn.is_affine_kakeya(cn.as_affine_set(e2))
        ref2, _ = cn.is_full_refined_kakeya(e2)
        ok = ref2 and not aff2 and wit2 == (0, 0, 1)
        rows.append(make_row("examples", "ex-refined-not-affine", q, 1,
                             "", "", float(ok), 1.0, ok,
                             trial="None" if wit2 is None
                             else hz.direction_label(wit2)))
        fiber = int(cn.vertical_fiber_sizes(e2).max())
        rows.append(make_row("examples", "ex-refined-fiber-bound", q, 1,
                             "", "", fiber, (q + 3) // 2,
                             fiber <= (q + 3) // 2))

    if q % 2:
        para = cn.extremal_set("paraboloid", fld).indicator()
        g = mx.project_aggregate(para, 1)
        m2g = mx.affine_max_op(g)
        mh = mx.heis_max_op(para)
        rows.append(make_row("examples", "paraboloid-projected-max", q, 1,
                             1, "", float(m2g.min()), float(q),
                             bool(m2g.min() == q and m2g.max() == q)))
        rows.append(make_row("examples", "paraboloid-heis-max", q, 1,
                             "", "", float(mh.max()), 2.0,
                             bool(mh.max() <= 2)))
    return rows


def suite_kakeya_bounds(cfg, fld):
    rows = []
    q = fld.q
    dom = mx.Domain.heisenberg(fld, 1)
    _, lines = mx.refined_incidence(fld)
    every = np.arange(len(lines))
    cases = [("full-space", cn.PointSet.full(dom), every, q)]
    if q % 2 and q > 3:
        e2 = cn.example_refined_not_affine(fld)
        cases.append(("refined-kakeya-set", e2, every, q))
    for trial in range(cfg.ntrials(5)):
        rng = _rng(cfg, "kakeya-bounds", q, trial)
        chosen = [int(i) for i in
                  rng.choice(len(lines), size=q + 1, replace=False)]
        m_target = q // 2 + 1
        idx = set()
        for i in chosen:
            # m_target points of the line L_{omega,tau}, tau at random
            pts = lines[i, int(rng.integers(q))]
            take = rng.choice(q, size=m_target, replace=False)
            idx.update(int(pts[j]) for j in take)
        ps = cn.PointSet(dom, idx)
        mvals = mx.refined_max_op(ps.indicator())
        m = int(min(mvals[i] for i in chosen))
        cases.append((f"planted-{trial}", ps, chosen, m))
    for tag, ps, omega, m in cases:
        for u, v in ((2, 2), (2, 4), (3, 3)):
            rep = cn.kakeya_bound_report(ps, omega, m, u, v, tol=cfg.tol)
            rows.append(report_row("kakeya-bounds", rep, trial=tag))
    return rows


def suite_moments(cfg, fld):
    rows = []
    q = fld.q
    dom = mx.Domain.heisenberg(fld, 1)
    sets = [("line", cn.extremal_set("single-line", fld)),
            ("bush", cn.extremal_set("bush", fld)),
            ("full", cn.PointSet.full(dom)),
            ("blocking", cn.extremal_set("two-lines-blocking", fld))]
    if q % 2 and q > 3:
        sets.append(("refined-kakeya", cn.example_refined_not_affine(fld)))
    for tag, ps in sets:
        for s in (2, 3):
            rep = cn.moment_report(ps, s, tol=cfg.tol)
            rows.append(report_row("moments", rep, trial=tag))
    return rows


SUITES = {
    "census": suite_census,
    "planar-l2": suite_planar_l2,
    "ttstar": suite_ttstar,
    "diag": suite_diag,
    "offdiag": suite_offdiag,
    "rd-l2": suite_rd_l2,
    "fourier": suite_fourier,
    "exponents": suite_exponents,
    "lowerbounds": suite_lowerbounds,
    "examples": suite_examples,
    "kakeya-bounds": suite_kakeya_bounds,
    "moments": suite_moments,
}


@contextmanager
def _out_writer(path, kept):
    """write(text): text goes to the file at path, if any, flushed, and is
    appended to the list kept, if that is not None.

    The file is opened on entry, before the run computes anything, so an
    unwritable path exits 2 at once.  A run that leaves by an exception
    (status 2, or an error) removes the file it opened, with whatever rows
    it already holds, so no partial CSV is left where a report is expected.
    """
    fh = open(path, "w") if path is not None else None

    def write(text):
        if fh is not None:
            fh.write(text)
            fh.flush()
        if kept is not None:
            kept.append(text)

    try:
        with fh or nullcontext():
            yield write
    except BaseException:
        if path is not None and os.path.isfile(path):
            os.remove(path)
        raise


def _task_digest(cfg, name, i):
    """One task's rows as run_suite keeps them: (CSV text without header,
    row count, rows that hold, VIOLATED lines).  The task runs suite name
    on the run's field cfg.fields[i], with the run's whole config, so the
    suite itself can tell the run's last field (suite_fourier's
    --dump-fourier).  A VIOLATED line is its row's CSV line.  The seed is
    stamped on the rows, and the row dicts die when this returns, so one
    task's rows are alive at a time per process."""
    rows = SUITES[name](cfg, cfg.fields[i])
    violated = []
    held = 0
    for r in rows:
        r["seed"] = cfg.seed
        if r["holds"]:
            held += 1
        else:
            violated.append(rows_to_csv([r], header=False).removesuffix("\n"))
    return rows_to_csv(rows, header=False), len(rows), held, violated


@dataclass
class RunReport:
    """A run's outcome: its exit status, CSV text and verdict counts."""

    status: int
    csv: str = ""   # the header and every row, if kept; empty on status 2
    checks: int = 0
    held: int = 0


# What a helper interpreter runs; _Pool puts the directory that holds the
# package first on its PYTHONPATH, so it imports the parent's copy.
_HELPER = "from kakeyalab.cli import _serve; _serve()"


def _cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _serve():
    """A helper's loop: read the run's config fields from stdin, then run
    each task named there, a (suite name, field index) pair, and write
    back its digest, or the DomainError or OSError it raised, until stdin
    closes.  The first message written says that the imports are done."""
    inp, out = sys.stdin.buffer, sys.stdout.buffer
    cfg = SuiteConfig(**pickle.load(inp))
    result = None
    while True:
        pickle.dump(result, out)
        out.flush()
        try:
            name, i = pickle.load(inp)
        except EOFError:
            return
        try:
            result = _task_digest(cfg, name, i)
        except (DomainError, OSError) as exc:
            result = exc


class _Pool:
    """The tasks of one run, on this process and on helper interpreters.

    A task is a suite name and an index into cfg.fields: one task per
    suite and field.  A helper imports the package afresh, so it takes only
    tasks whose SUITES entry is code from this file; a task of a replaced
    entry (a test double, a tracer's wrapper) runs here, and so does a task
    whose helper dies without a result.

    Tasks are handed out in suite order, each suite's fields largest q
    first: cost grows with q, so the small fields fill the tail.  This
    process and up to min(CPUs - 1, suites - 1) helpers take them; only
    suites of code from this file count after the first.  With no helper
    started, this process takes them in output order instead, so no
    finished task waits for an earlier one.  Results leave in output
    order, suite order then the run's field order, on this process's
    thread: a finished task's result is kept only until every task before
    it in output order has left, and is dropped then.  Helper threads only
    store results.  A DomainError or OSError in the task at
    output position i stops the hand-out of every task after i, and run()
    raises the exception of the first failing task in output order, as a
    serial run does.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.tasks = []     # (suite name, field index), in output order
        self.portable = []  # per task: a helper may run it
        self.pending = []   # output positions not yet handed out, in order
        nfields = len(cfg.fields)
        largest_first = sorted(range(nfields), key=lambda i: -cfg.fields[i].q)
        movable = []        # per suite: its SUITES entry is code from here
        for name in cfg.suites:
            code = getattr(SUITES[name], "__code__", None)
            movable.append(code is not None and code.co_filename == __file__)
            self.pending += [len(self.tasks) + i for i in largest_first]
            self.tasks += [(name, i) for i in range(nfields)]
            self.portable += [movable[-1]] * nfields
        self.spare = sum(movable[1:])  # the most helpers the suites can use
        # per task: its digest or exception, until it leaves run()
        self.results = [None] * len(self.tasks)
        self.stop = len(self.tasks)  # no task from here on is handed out
        self.cond = threading.Condition()

    def _take(self, helper):
        """The first pending task before stop that the taker may run, moved
        out of pending (under cond); None if there is none.  Hand-out order
        is not output order, so a task at or after stop is skipped."""
        for i in self.pending:
            if i < self.stop and (self.portable[i] or not helper):
                self.pending.remove(i)
                return i
        return None

    def _finish(self, i, result):
        """Keep task i's result (under cond)."""
        self.results[i] = result
        if isinstance(result, Exception):
            self.stop = min(self.stop, i)
        self.cond.notify_all()

    def _feed(self, proc, config):
        """Hand tasks to one helper until none is left that it may run."""
        i = None
        try:
            proc.stdin.write(config)
            proc.stdin.flush()
            pickle.load(proc.stdout)  # its imports are done
            while True:
                with self.cond:
                    i = self._take(helper=True)
                if i is None:
                    return
                pickle.dump(self.tasks[i], proc.stdin)
                proc.stdin.flush()
                result = pickle.load(proc.stdout)
                with self.cond:
                    self._finish(i, result)
                i = None
        except (OSError, EOFError, pickle.UnpicklingError):
            pass  # the helper died, or run() killed it
        finally:
            if i is not None:  # it holds task i: this process runs it next
                with self.cond:
                    self.portable[i] = False
                    self.pending.insert(0, i)
                    self.cond.notify_all()

    def run(self, emit):
        """Run every task and call emit(digest) on each task's digest in
        output order, as soon as every task before it has been emitted;
        raise the exception of the first failing task after the digests
        before it."""
        cfg = self.cfg
        # plain fields: under `python -m`, SuiteConfig is __main__'s class,
        # which a helper cannot unpickle
        config = pickle.dumps(vars(cfg))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # this process takes the first task before any helper is ready
        helpers = min(_cpus() - 1, self.spare)
        procs, threads = [], []
        try:
            for _ in range(helpers):
                try:  # a new session: Ctrl-C reaches this process alone
                    proc = subprocess.Popen(
                        [sys.executable, "-c", _HELPER], env=env,
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                        start_new_session=True)
                except OSError:  # no process to spare: fewer helpers
                    break
                procs.append(proc)
                threads.append(threading.Thread(
                    target=self._feed, args=(proc, config), daemon=True))
                threads[-1].start()
            if not procs:  # alone, no task waits in memory for an earlier one
                self.pending.sort()
            for done in range(len(self.tasks)):
                while True:
                    with self.cond:
                        result = self.results[done]
                        if result is not None:
                            self.results[done] = None
                            break
                        i = self._take(helper=False)
                        if i is None:
                            # a helper holds task done: wait for any result
                            self.cond.wait()
                            continue
                    try:
                        result = _task_digest(cfg, *self.tasks[i])
                    except (DomainError, OSError) as exc:
                        result = exc
                    with self.cond:
                        self._finish(i, result)
                if isinstance(result, Exception):
                    raise result
                emit(result)
        finally:
            # a helper still booting, idle, or running a task after a
            # failing one is not waited for
            for proc in procs:
                proc.kill()
            for thread in threads:
                thread.join()
            for proc in procs:
                for pipe in (proc.stdin, proc.stdout):
                    with suppress(OSError):  # data left buffered for it
                        pipe.close()
                proc.wait()


def run_suite(cfg, keep=False):
    """Run the configured suites; returns their RunReport.

    The suites run in parallel as (suite, field) tasks (_Pool); each task
    leaves as its digest (_task_digest), in output order, suite order then
    the run's field order, so every byte is the one a serial run writes.
    The CSV header, then each digest's text as soon as every task before it
    has left, goes to cfg.out, which is opened before the first task runs
    (_out_writer), and the text is dropped; only the counts and the
    VIOLATED lines are kept.  The report holds the CSV text only without
    cfg.out, or with keep.  The VIOLATED lines go to stderr, in row order,
    once every task has run.  A status-2 run leaves no file at cfg.out.  A
    run whose first failing task raised OSError raises it.
    """
    for name in cfg.suites:
        if name not in SUITES:
            print(f"unknown suite: {name}", file=sys.stderr)
            return RunReport(2)
    kept = [] if keep or cfg.out is None else None
    report = RunReport(0)
    violated = []

    def tally(digest):
        text, n, h, v = digest
        write(text)
        report.checks += n
        report.held += h
        violated.extend(v)

    try:
        with _out_writer(cfg.out, kept) as write:
            write(rows_to_csv(()))
            _Pool(cfg).run(tally)
            for line in violated:
                print("VIOLATED: " + line, file=sys.stderr)
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return RunReport(2)
    report.status = 1 if violated else 0
    if kept is not None:
        report.csv = "".join(kept)
    return report


# ---------------------------------------------------------------------------
# grid files


def load_grid(path):
    """The grid in the file at path; DomainError unless it is UTF-8 JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad bytes, deep nesting
            raise DomainError(f"{path} is not a JSON document: {exc}") \
                from exc
    return mx.grid_from_json(doc)


# ---------------------------------------------------------------------------
# commands


def _parse_qs(text):
    try:
        qs = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad q list {text!r}") from exc
    repeated = sorted({q for q in qs if qs.count(q) > 1})
    if repeated:  # each suite would run twice on the same field
        raise DomainError(f"q list {text!r} repeats q = "
                          f"{', '.join(map(str, repeated))}")
    return qs


def _add_common(parser):
    parser.add_argument("--q", default=None, help="comma-separated field sizes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--modulus", default=None,
                        help="comma-separated modulus coefficients c0,c1,...")
    parser.add_argument("--dump-fourier", default=None,
                        help="JSON dump path for the Fourier tables")
    parser.add_argument("--big", action="store_true",
                        help="extend the q list with 16, 25, 27")


def _config_from(args, default_qs=DEFAULT_QS, suites=ALL_SUITES):
    """The run's configuration, every field built once before any suite
    runs, so that a bad q or modulus raises DomainError whatever the suite.

    fields: the --q list, --modulus applied to its single q, then the q
    values --big adds.
    """
    qs = _parse_qs(args.q) if args.q is not None else tuple(default_qs)
    if args.trials is not None and args.trials < 1:
        raise DomainError("--trials must be at least 1")
    if args.seed < 0:
        raise DomainError("--seed must be at least 0")
    if not 0 <= args.tol < math.inf:  # nan fails both comparisons
        raise DomainError("--tol must be finite and at least 0")
    for flag, path in (("--out", args.out),
                       ("--dump-fourier", args.dump_fourier)):
        if path == "":  # an empty path is not an absent one
            raise DomainError(f"{flag} needs a path")
    if args.modulus is not None:
        try:
            modulus = tuple(int(c) for c in args.modulus.split(","))
        except ValueError as exc:
            raise DomainError(f"bad modulus {args.modulus!r}") from exc
        if len(qs) != 1:
            raise DomainError("--modulus needs a single q")
        fields = (Field(qs[0], modulus=modulus),)
    else:
        fields = tuple(map(Field, qs))
    if args.big:
        fields += tuple(Field(q) for q in BIG_QS if q not in qs)
    return SuiteConfig(fields=fields, suites=suites,
                       seed=args.seed, trials=args.trials, tol=args.tol,
                       out=args.out, dump_fourier=args.dump_fourier)


def _emit(text):
    """Write text to stdout; a reader that stops early (`| head -1`) only
    ends the output, so the exit status still reports the checks."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the rest goes to os.devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_suite(args):
    """census and examples: run the one suite the subparser binds and print
    its CSV."""
    cfg = _config_from(args, default_qs=args.default_qs, suites=(args.suite,))
    report = run_suite(cfg, keep=True)  # printed, with or without --out
    _emit(report.csv)
    return report.status


def cmd_verify(args):
    suites = ALL_SUITES if args.suite is None else tuple(args.suite.split(","))
    cfg = _config_from(args, suites=suites)
    report = run_suite(cfg)
    if report.status == 2:  # bad config: the error is on stderr, stdout empty
        return 2
    qs = [f.q for f in cfg.fields]
    _emit(f"{report.held}/{report.checks} checks hold across q={qs}\n")
    if cfg.out is None:
        _emit(report.csv)
    return report.status


def cmd_maxop(args):
    F = load_grid(args.infile)
    if args.op == "affine":
        vals = mx.affine_max_op(F)
        dirs = hz.enumerate_directions(F.field, F.domain.n)
    elif args.op == "heis":
        vals = mx.heis_max_op(F)
        dirs = hz.enumerate_projective_directions(F.field, F.domain.n)
    else:  # argparse admits only the three operators
        vals = mx.refined_max_op(F)
        dirs = hz.enumerate_refined_directions(F.field, F.domain.n)
    doc = {"operator": args.op, "q": F.field.q,
           "directions": dirs.tolist(),
           "values": [float(x) for x in vals]}
    text = json.dumps(doc)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        _emit(text + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kakeya",
        description="Brute-force verification of horizontal Kakeya maximal "
                    "operator bounds over finite Heisenberg groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="enumeration vs closed-form counts")
    _add_common(p)
    p.set_defaults(fn=cmd_suite, suite="census", default_qs=DEFAULT_QS)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default=None,
                   help=f"comma-separated subset of {','.join(ALL_SUITES)}")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("maxop", help="apply a maximal operator to a grid file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--op", choices=("affine", "heis", "refined"),
                   default="refined")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_maxop)

    p = sub.add_parser("examples", help="run the separating-example checks")
    _add_common(p)
    p.set_defaults(fn=cmd_suite, suite="examples",
                   default_qs=(5, 7, 9, 11, 13))

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an --in file unread, an --out file unwritten
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
