"""Grid functions, the Kakeya maximal operators, norms, and bound checking.

Operator evaluation is table-driven: for each field we build, once, the
point-index incidence arrays of every line family and evaluate operators as
vectorized gather/sum/max passes.  Every table comes from the one coset
builder in heisenberg.py, affine and horizontal lines alike.  Line sums on
integer-valued inputs stay exact integers; only norms and q^alpha move to
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import DomainError, Field, field_table
from . import heisenberg as hz

INF = math.inf
REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# exponents


def exponent(u):
    """An exponent in [1, infinity]: an exact Fraction, or math.inf.

    Reads a Fraction, a Python or numpy integer (bools refused, as in
    Field.coerce_index and heisenberg.check_dimension), a float (to the
    nearest fraction with denominator at most 10^6) or a string: "inf",
    "infty", "oo" or a fraction such as "3/2".  Every refusal, NaN and -inf
    included, is a DomainError.
    """
    if isinstance(u, bool) or not isinstance(
            u, (str, float, int, np.integer, Fraction)):
        raise DomainError(f"cannot read exponent from {u!r}")
    if u == INF or (isinstance(u, str) and u in ("inf", "infty", "oo")):
        return INF
    try:
        if isinstance(u, float):
            value = Fraction(u).limit_denominator(10**6)
        else:
            value = Fraction(int(u) if isinstance(u, np.integer) else u)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot read exponent from {u!r}") from exc
    if value < 1:
        raise DomainError(f"exponent must be >= 1, got {value}")
    return value


def recip(u):
    """1/u as an exact Fraction, with 1/inf = 0."""
    u = exponent(u)
    return Fraction(0) if u == INF else 1 / u


# The terms of the two growth exponents, each forced by the extremal
# function it is keyed by (constructions.lower_bound_ratio certifies it);
# ru = 1/u and rv = 1/v.
_HEIS_TERMS = {
    "point-mass": lambda n, ru, rv: (2 * n - 1) * rv,
    "single-line": lambda n, ru, rv: 1 - ru,
    "bush": lambda n, ru, rv: 1 + (2 * n - 1) * rv - 2 * n * ru,
}

_REFINED_TERMS = {
    "point-mass": lambda n, ru, rv: rv,
    "single-line": lambda n, ru, rv: 1 - ru,
    "two-lines-blocking": lambda n, ru, rv: 2 * rv - ru,
    "constant": lambda n, ru, rv: 1 + 2 * rv - 3 * ru,
}


# |g|^u needs no rescaling while u*|log2 max|g|| + log2(#entries) is below
# this: the sum cannot overflow, and terms that underflow fall below the
# last bit of the sum.
_POW_RANGE_LOG2 = 960


def lp_norm(values, u, axis=None):
    """(sum |g|^u)^(1/u) on a flat table; max for u = infinity.

    With an axis, the norm of every slice along it, as an array.
    """
    uu = float(exponent(u))
    a = np.abs(np.asarray(values, dtype=np.complex128))
    if a.size == 0:
        return 0.0
    if uu == INF:
        out = a.max(axis)
    elif uu == 1:
        out = a.sum(axis)
    else:
        amax = a.max(axis)
        count = a.size if axis is None else a.shape[axis]
        # u*|log2 amax| + log2(count) > _POW_RANGE_LOG2, solved for amax
        limit = 2.0 ** ((_POW_RANGE_LOG2 - math.log2(count)) / uu)
        rescale = (amax > limit) | ((amax > 0) & (amax < 1 / limit))
        scale = 1.0
        if rescale.any():
            scale = np.where(rescale, amax, 1.0)
            a = a / (scale if axis is None else np.expand_dims(scale, axis))
        if uu == 2:
            out = np.sqrt((a * a).sum(axis)) * scale
        else:
            out = (a**uu).sum(axis) ** (1.0 / uu) * scale
    return float(out) if axis is None else out


def q_pow(q, alpha):
    """q^alpha in double precision, alpha rational."""
    return math.exp(float(alpha) * math.log(q))


def exponent_A(n, u, v):
    """Growth exponent of the horizontal operator: the max of its terms."""
    ru, rv = recip(u), recip(v)
    return max(term(n, ru, rv) for term in _HEIS_TERMS.values())


def exponent_Ard(u, v):
    """Growth exponent of the refined-direction operator (n=1): the max of
    its terms."""
    ru, rv = recip(u), recip(v)
    return max(term(1, ru, rv) for term in _REFINED_TERMS.values())


def rd_diag_constant(u):
    """C_u of the refined diagonal bound: interpolation of 2q and 5 sqrt(q)."""
    ru = recip(u)
    if ru >= Fraction(1, 2):
        theta = float(2 * (1 - ru))
        return 2.0 ** (1 - theta) * 5.0**theta
    return 5.0 ** float(2 * ru)


def rd_upper_constant(u, v):
    """Constant C_{u,v} of the refined mixed-norm upper bound at (u, v)."""
    ru, rv = recip(u), recip(v)
    if ru >= Fraction(1, 2):  # 1 <= u <= 2
        if rv >= ru:          # v <= u
            return rd_diag_constant(u) * 2.0 ** float(rv - ru)
        if rv >= 1 - ru:      # u <= v <= u/(u-1)
            return 2.0 ** float(rv - 1 + ru) * 5.0 ** float(2 * (1 - ru))
        return 5.0 ** float(2 * (1 - ru))
    if rv <= ru:              # u <= v
        return 5.0 ** float(2 * ru)
    return 2.0 ** float(rv - ru) * 5.0 ** float(2 * ru)


# ---------------------------------------------------------------------------
# domains and grid functions


@dataclass(frozen=True)
class Domain:
    """Where a grid function lives: H_n(F_q) or F_q^d."""

    kind: str  # 'heisenberg' | 'affine'
    field: Field
    n: int = 1  # group rank for heisenberg, ambient dimension for affine

    @classmethod
    def heisenberg(cls, field, n=1):
        return cls("heisenberg", field, hz.check_rank(field, n))

    @classmethod
    def affine(cls, field, d):
        return cls("affine", field,
                   hz.check_dimension(field, d, "affine dimension"))

    @property
    def size(self):
        if self.kind == "heisenberg":
            return self.field.q ** (2 * self.n + 1)
        return self.field.q**self.n


class GridFunction:
    """A dense complex (or integer) table over a Domain's point enumeration.

    The values are read-only, so quantities derived from them (operator
    values, norms, the central Fourier table) are memoized per instance and
    freed with it.
    """

    __slots__ = ("domain", "values", "_memo")

    def __init__(self, domain, values):
        values = np.asarray(values)
        if values.shape != (domain.size,):
            raise DomainError(
                f"value table has {values.shape}, expected ({domain.size},)")
        if not np.all(np.isfinite(values)):
            raise DomainError("grid values must be finite")
        values = values.copy()
        values.flags.writeable = False
        self.domain = domain
        self.values = values
        self._memo = {}

    @classmethod
    def zeros(cls, domain, dtype=np.complex128):
        return cls(domain, np.zeros(domain.size, dtype=dtype))

    @classmethod
    def constant(cls, domain, value=1):
        """int64 for an integral value, complex otherwise; a value that is
        not finite, or integral but outside int64, is a DomainError."""
        exact = isinstance(value, int) or (isinstance(value, float)
                                           and value.is_integer())
        if exact and not -2**63 <= value < 2**63:
            raise DomainError(f"constant {value!r} does not fit in int64")
        dtype = np.int64 if exact else np.complex128
        return cls(domain, np.full(domain.size, value, dtype=dtype))

    @classmethod
    def delta(cls, domain, index=0):
        vals = np.zeros(domain.size, dtype=np.int64)
        vals[hz.check_point_index(domain.size, index)] = 1
        return cls(domain, vals)

    def memo(self, key, compute):
        """compute(), evaluated once per key for this function."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def norm(self, u):
        u = exponent(u)
        return self.memo(("norm", u), lambda: lp_norm(self.values, u))

    @property
    def field(self):
        return self.domain.field

    def __repr__(self):
        return f"GridFunction({self.domain.kind}, q={self.field.q}, n={self.domain.n})"


def random_complex_grid(domain, rng):
    """Independent complex Gaussian entries via Box-Muller: real and
    imaginary parts independent N(0, 1), so E|z|^2 = 2."""
    n = domain.size
    u1 = rng.random(n)
    u2 = rng.random(n)
    radii = np.sqrt(-2.0 * np.log1p(-u1))
    vals = radii * np.exp(2j * np.pi * u2)
    return GridFunction(domain, vals)


def seeded_rng(*key):
    """A PCG64 generator keyed deterministically by a tuple of ints."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


# ---------------------------------------------------------------------------
# incidence tables


def affine_incidence(field, d):
    """(directions, (#dirs, q^{d-1}, q) point-index table).

    Each direction's block holds its parallel lines in transversal order.
    The planar table (d = 2) is an np.intp array; the U-table index
    (fourier._u_plane_index) is a closed form of its first q blocks.  From
    d = 3 on the table is a _CosetBlocks, which builds a block when it is
    read: the F_q^3 table has q^2 (q^2+q+1) q entries (15M at q = 27), and
    its readers, the set predicates and affine_max_op, need a block or a
    few at a time, so the cache keeps only the direction array.
    """
    return field_table(field, ("affine-incidence", d),
                       lambda f: _build_affine(f, d))


def _build_affine(field, d):
    dirs = hz.enumerate_directions(field, d)
    blocks = _CosetBlocks(field, dirs)
    return dirs, (blocks[:] if d == 2 else blocks)


class _CosetBlocks:
    """The affine lines of F_q^d as a read-only sequence of direction blocks,
    shape (#dirs, q^{d-1}, q): blocks[i] is direction i's np.intp block from
    heisenberg._coset_table, and blocks[i:j] the stack of blocks i to j-1.
    Each read builds what it returns; nothing table-sized is kept."""

    __slots__ = ("_field", "_dirs")

    def __init__(self, field, dirs):
        self._field, self._dirs = field, dirs

    @property
    def shape(self):
        (m, d), q = self._dirs.shape, self._field.q
        return m, q ** (d - 1), q

    def __len__(self):
        return len(self._dirs)

    def __getitem__(self, i):
        if not isinstance(i, slice):
            return hz._coset_table(self._field, self._dirs[i])
        rows = range(*i.indices(len(self)))
        out = np.empty((len(rows),) + self.shape[1:], dtype=np.intp)
        for k, j in enumerate(rows):
            out[k] = self[j]
        return out


def heis1_incidence(field):
    """(directions, (q+1, q^2, q) point-index table) for H_1.

    The q^2 lines of direction [a:b] are exactly the refined lines of
    [a:b:c] over all c, so this is a reshape view of the refined table.
    """
    return field_table(field, "heis1-incidence", _build_heis1)


def _build_heis1(field):
    q = field.q
    _, rtable = refined_incidence(field)
    return (hz.enumerate_projective_directions(field, 1),
            rtable.reshape(q + 1, q * q, q))


def refined_incidence(field):
    """(refined directions, (q^2+q, q, q) point-index table) for H_1.

    Row (omega, tau) holds the normal-form line L_{omega,tau}; block omega
    is heisenberg.lines_with_refined_direction(field, omega).  The table is
    a view [omega, tau, x] of one x-major buffer [x, omega, tau], so column
    table[..., x] of every block of rows is contiguous, and its dtype is the
    narrowest that holds q^3 - 1: uint8 for q <= 5, uint16 for 7 <= q <=
    MAX_Q, a quarter of the np.intp bytes from q = 7 on.
    """
    return field_table(field, "refined-incidence", _build_refined)


def _build_refined(field):
    q = field.q
    dirs = hz.enumerate_refined_directions(field, 1)
    columns = np.empty((q, len(dirs), q), dtype=np.min_scalar_type(q**3 - 1))
    for i, v in enumerate(hz.enumerate_projective_directions(field, 1)):
        columns[:, i * q:(i + 1) * q] = \
            hz._refined_blocks(field, v).transpose(2, 0, 1)
    columns.flags.writeable = False
    return dirs, columns.transpose(1, 2, 0)


# The most bytes (2^17 float64 values) that one block of _line_sums keeps
# live: its running sums, the column being added and, for a table built on
# reading (_CosetBlocks), the block's stacked indices.
GATHER_BYTES = 1 << 20


def _line_sums(absvals, table):
    """The sum of absvals over each line of an (m, lines, q) index table.

    A block of direction rows at a time, column x of the block is gathered
    with absvals.take, and the q columns are added in the order numpy's
    add.reduce sums a contiguous axis of at most 128 terms: eight running
    sums over the columns, then ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
    the remaining q % 8 columns one at a time; below q = 8, one running
    sum.  So every sum has the bits of absvals[t].sum(axis=2) for a
    C-ordered copy t of the table.  A block's running sums, the column in
    flight and, when slicing builds the block, its indices stay within
    GATHER_BYTES unless one row alone is larger.
    """
    m, lines, q = table.shape
    # the dtype sum gives: int64 for bools and narrower integers
    absvals = absvals.astype(absvals[:0].sum().dtype, copy=False)
    width = 8 if q >= 8 else 1
    head = q - q % width
    row_bytes = (width + 1) * lines * absvals.itemsize
    if not isinstance(table, np.ndarray):  # a slice is a new stacked block
        row_bytes += lines * q * np.dtype(np.intp).itemsize
    rows = max(1, GATHER_BYTES // row_bytes)
    out = np.empty((m, lines), dtype=absvals.dtype)
    for i in range(0, m, rows):
        block = table[i:i + rows]
        sums = [absvals.take(block[..., x]) for x in range(width)]
        for x in range(width, head):
            sums[x % width] += absvals.take(block[..., x])
        if width == 8:  # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), in place
            for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6),
                         (0, 4)):
                sums[a] += sums[b]
        for x in range(head, q):
            sums[0] += absvals.take(block[..., x])
        out[i:i + rows] = sums[0]
    return out


def _max_over_table(absvals, table):
    return _line_sums(absvals, table).max(axis=1)


# ---------------------------------------------------------------------------
# operators


def affine_max_op(f):
    """Per direction of P^{d-1}, the max over parallel lines of sum |f|."""
    if f.domain.kind != "affine" or f.domain.n < 2:
        raise DomainError("affine maximal operator needs F_q^d with d >= 2")
    _, table = affine_incidence(f.field, f.domain.n)
    return _max_over_table(np.abs(f.values), table)


def heis_max_op(F):
    """The horizontal maximal operator on P^{2n-1}: max over cosets."""
    if F.domain.kind != "heisenberg":
        raise DomainError("heisenberg maximal operator needs an H_n function")
    absvals = np.abs(F.values)
    if F.domain.n == 1:
        _, table = heis1_incidence(F.field)
        return _max_over_table(absvals, table)
    return heis_max_op_many(F.field, F.domain.n, absvals[None, :])[0]


def heis_max_op_many(field, n, absrows):
    """Batched horizontal maximal operator for rank n >= 2.

    absrows has shape (k, q^{2n+1}); returns (k, #directions) in the dtype
    of the line sums, so an integer input gives integer values as at n = 1.
    """
    dirs = hz.enumerate_projective_directions(field, n)
    out = np.empty((absrows.shape[0], len(dirs)),
                   dtype=absrows[:, :1].sum(axis=1).dtype)
    for di, v in enumerate(dirs):
        table = hz.line_table_for_direction(field, v)
        out[:, di] = absrows.take(table, axis=1).sum(axis=2).max(axis=1)
    return out


def refined_max_op(F):
    """The refined-direction maximal operator on D_1."""
    if F.domain.kind != "heisenberg" or F.domain.n != 1:
        raise DomainError("refined operator is defined on H_1")
    _, table = refined_incidence(F.field)
    return _max_over_table(np.abs(F.values), table)


def project_aggregate(F, u):
    """G(x, y) = the l^u norm of the t-fiber of |F|; same u-norm, dominating."""
    if F.domain.kind != "heisenberg":
        raise DomainError("project_aggregate needs an H_n function")
    g = lp_norm(F.values.reshape(-1, F.field.q), u, axis=1)
    return GridFunction(Domain.affine(F.field, 2 * F.domain.n), g)


# ---------------------------------------------------------------------------
# linearizations


class LineFamily:
    """One chosen line per (refined) direction: the linear operator T.

    Row i of the point-index table holds the q points of the line chosen
    for directions[i], in parameter order; directions is the enumeration
    array of the family's kind.
    """

    __slots__ = ("kind", "field", "directions", "point_idx", "domain")

    def __init__(self, kind, field, directions, point_idx, domain):
        self.kind = kind
        self.field = field
        self.directions = directions
        self.point_idx = np.array(point_idx, dtype=np.intp)
        if self.point_idx.shape != (len(self.directions), field.q):
            raise DomainError("one q-point line per index is required")
        self.point_idx.flags.writeable = False  # t_components memoizes on it
        self.domain = domain

    def __len__(self):
        return len(self.directions)


def _candidate_tables(kind, field):
    """(directions, (m, lines, q) index table, domain) per family kind."""
    if kind == "planar":
        dirs, table = affine_incidence(field, 2)
        return dirs, table, Domain.affine(field, 2)
    if kind == "refined":
        dirs, table = refined_incidence(field)
        return dirs, table, Domain.heisenberg(field, 1)
    raise DomainError(f"unknown linearization kind {kind!r}")


def linearize(kind, field, *, for_function=None, rng=None):
    """Fix one line per index.

    At most one chooser applies: for_function picks the maximizing line per
    index (ties broken by enumeration order), rng (a numpy Generator) draws
    a random family.  With no chooser the first line in enumeration order
    is taken (it passes through the origin).
    """
    if for_function is not None and rng is not None:
        raise DomainError("pick at most one chooser")
    dirs, table, domain = _candidate_tables(kind, field)
    if for_function is not None:
        if for_function.domain != domain:
            raise DomainError("function domain does not match the family")
        sums = _line_sums(np.abs(for_function.values), table)
        choice = sums.argmax(axis=1)  # first maximum: enumeration-order ties
    elif rng is not None:
        choice = rng.integers(table.shape[1], size=table.shape[0])
    else:
        choice = np.zeros(table.shape[0], dtype=np.int64)
    point_idx = table[np.arange(table.shape[0]), choice]
    return LineFamily(kind, field, dirs, point_idx, domain)


def apply_linearized(family, f):
    """(Tf)(index) = the exact line sum; linear, complex allowed."""
    if f.domain != family.domain:
        raise DomainError("function domain does not match the family")
    return f.values[family.point_idx].sum(axis=1)


def family_gram(family):
    """Exact integer Gram matrix TT*: pairwise line intersection counts.

    It is the int64 product M M^T of the 0/1 line-point incidence matrix M.
    Row i of M is the indicator of line i's q points, so (M M^T)[j, i] is
    the sum of M[j] over those points: one gather of M's columns at the
    family's index table, summed along the line.
    """
    m = len(family)
    incidence = np.zeros((m, family.domain.size), dtype=bool)
    incidence[np.arange(m)[:, None], family.point_idx] = True
    return incidence[:, family.point_idx].sum(axis=2, dtype=np.int64)


def ttstar_spectrum(family):
    """Eigenvalues of TT*, descending; always {2q} + {q-1} x q.

    TT* is the (q+1) x (q+1) matrix of |l_v ∩ l_v'|, defined for planar
    families only.
    """
    if family.kind != "planar":
        raise DomainError("TT* spectrum is defined for planar families")
    gram = family_gram(family).astype(np.float64)
    return np.sort(np.linalg.eigvalsh(gram))[::-1]


def l2_operator_norm(family):
    """Largest singular value of T via the exact integer Gram matrix."""
    gram = family_gram(family).astype(np.float64)
    top = float(np.linalg.eigvalsh(gram)[-1])
    return math.sqrt(max(top, 0.0))


# ---------------------------------------------------------------------------
# bound specs and verification


_OPERATORS = {
    "affine": affine_max_op,
    "heis": heis_max_op,
    "refined": refined_max_op,
}


@dataclass(frozen=True)
class BoundSpec:
    """A named inequality |op F|_v <= constant * q^alpha * |F|_u."""

    name: str
    operator: str  # 'affine' | 'heis' | 'refined'
    u: Fraction | float   # an exponent(): a Fraction, or math.inf
    v: Fraction | float
    constant: float
    alpha: Fraction


@dataclass
class VerifyReport:
    """Outcome of checking one inequality on one input."""

    name: str
    q: int
    n: int
    u: Fraction | float   # an exponent(): a Fraction, or math.inf
    v: Fraction | float
    lhs: float
    rhs: float
    holds: bool
    sense: str = "le"  # 'le': lhs <= rhs must hold; 'ge': lhs >= rhs
    constant_used: float = float("nan")


def verify_bound(spec, F, tol=REL_TOL):
    """Evaluate the operator, compare norms, and report.

    Operator values and norms come from F's memo, so checking many specs
    on one input evaluates each operator and each norm once.
    """
    op = _OPERATORS[spec.operator]
    opvals = F.memo(op, lambda: op(F))
    lhs = lp_norm(opvals, spec.v)
    rhs = spec.constant * q_pow(F.field.q, spec.alpha) * F.norm(spec.u)
    holds = lhs <= rhs * (1 + tol) if rhs else lhs == 0
    return VerifyReport(spec.name, F.field.q, F.domain.n, spec.u, spec.v,
                        lhs, rhs, holds, constant_used=spec.constant)


def bound_catalog(q):
    """The named upper bounds checked by the verification suites.

    Endpoint and diagonal bounds always apply; the off-diagonal region
    bounds are instantiated at sample (u, v) pairs inside their regions.
    """
    sqrt2 = math.sqrt(2.0)
    endpoints = (
        ("planar-l1", "affine", 1, 1, q + 1, 0),
        ("planar-l2", "affine", 2, 2, sqrt2, Fraction(1, 2)),
        ("planar-linf", "affine", INF, INF, 1.0, 1),
        ("rd-1-to-inf", "refined", 1, INF, 1.0, 0),
        ("rd-inf-to-inf", "refined", INF, INF, 1.0, 1),
        ("rd-1-to-1", "refined", 1, 1, q + 1, 0),
        ("rd-l2-sharp", "refined", 2, 2, 5.0, Fraction(1, 2)),
    )
    specs = [BoundSpec(name, op, exponent(u), exponent(v), c, Fraction(a))
             for name, op, u, v, c, a in endpoints]
    for u in (1, Fraction(3, 2), 2, 3, 4, INF):
        u = exponent(u)
        tau = exponent_A(1, u, u)  # tau_2(u): 1/u for u <= 2, else 1 - 1/u
        specs.append(BoundSpec(f"planar-diag-u={u}", "affine", u, u,
                               sqrt2, tau))
        specs.append(BoundSpec(f"heis-diag-u={u}", "heis", u, u, sqrt2, tau))
        specs.append(BoundSpec(f"rd-diag-u={u}", "refined", u, u,
                               rd_diag_constant(u), tau))
    return specs


def offdiag_catalog():
    """Sample (u, v) instances of the off-diagonal region bounds.

    Each region's bound has the growth exponent A(1, u, v) at its samples.
    """
    sqrt2 = math.sqrt(2.0)
    regions = (
        # region, constant, sample (u, v) pairs inside it
        # upper left: 2 <= u <= inf, 1 <= v <= u
        ("upperleft", 2 * sqrt2,
         ((2, 1), (4, 2), (INF, 1), (INF, 2), (3, 3))),
        # flat: 2 <= u <= v
        ("flat", sqrt2, ((2, 3), (2, INF), (3, 4), (4, INF))),
        # dual flat: u <= 2, v >= u/(u-1)
        ("dualflat", sqrt2,
         ((2, 2), (Fraction(3, 2), 3), (Fraction(3, 2), INF),
          (Fraction(4, 3), 4))),
        # steep: 1 <= v <= u <= 2
        ("steep", 2.0,
         ((2, 1), (Fraction(3, 2), 1), (2, Fraction(3, 2)), (1, 1))),
        # middle: u <= 2, u <= v <= u/(u-1)
        ("middle", 2 * sqrt2,
         ((Fraction(3, 2), 2), (Fraction(4, 3), 3), (1, 2), (1, INF))),
    )
    specs = []
    for region, constant, pairs in regions:
        for u, v in pairs:
            u, v = exponent(u), exponent(v)
            specs.append(BoundSpec(f"heis-{region}-({u},{v})", "heis", u, v,
                                   constant, exponent_A(1, u, v)))
    return specs


# ---------------------------------------------------------------------------
# JSON documents


def _json_int(value, what):
    """value itself if it is a JSON integer; DomainError for anything else,
    bools and integral floats such as 3.0 included."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"malformed document: {what} must be an integer, "
                          f"got {value!r}")
    return value


def domain_from_json(doc):
    """The Domain a grid-function or point-set document names.

    q, n (heisenberg), d (affine) and the modulus coefficients must be
    integers; the field checks q against MAX_Q before building anything.
    """
    try:
        kind = doc["domain"]
        modulus = doc.get("modulus")
        if modulus is not None:
            modulus = [_json_int(c, "a modulus coefficient") for c in modulus]
        fld = Field(_json_int(doc["q"], "q"), modulus=modulus)
        if kind == "heisenberg":
            return Domain.heisenberg(fld, _json_int(doc.get("n", 1), "n"))
        if kind == "affine":
            return Domain.affine(fld, _json_int(doc["d"], "d"))
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed document: {exc}") from exc
    raise DomainError(f"unknown domain kind {kind!r}")


def grid_from_json(doc):
    domain = domain_from_json(doc)
    try:
        values = np.array([complex(re, im) for re, im in doc["values"]],
                          dtype=np.complex128)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed grid-function document: {exc}") from exc
    return GridFunction(domain, values)
