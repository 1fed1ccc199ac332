import cmath
import math
import os
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kakeyalab
from kakeyalab import cli
from kakeyalab import constructions as cn
from kakeyalab import field as fd
from kakeyalab import fourier as fr
from kakeyalab import heisenberg as hz
from kakeyalab import maximal as mx
from kakeyalab.field import BUILTIN_MODULI, DomainError, Field

import oracle as ol

ALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


@pytest.fixture(scope="module")
def fields():
    return {q: Field(q) for q in ALL_Q}


def test_prime_field_arithmetic():
    f = Field(5)
    assert f.np_add[3, 4] == 2
    assert f.np_inv[2] == 3
    assert f.np_mul[2, f.np_inv[2]] == 1


def test_extension_multiplication_forced_by_modulus():
    # q=9 with modulus x^2 + 1: the generator squares to -1 = 2
    f = Field(9)
    x = 3  # coefficient vector (0, 1)
    assert f.np_mul[x, x] == ol.arithmetic(f).mul(x, x) == 2


def test_inversion_of_zero_rejected():
    ar = ol.arithmetic(Field(7))
    with pytest.raises(DomainError):
        ar.inv(0)
    with pytest.raises(DomainError):
        ar.pow(0, -1)


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_exhaustive(fields, q):
    f = fields[q]
    add, mul = f.np_add, f.np_mul
    rng = range(q)
    for a in rng:
        assert mul[a, f.np_inv[a]] == 1 if a else True
        for b in rng:
            assert add[a, b] == add[b, a]
            assert mul[a, b] == mul[b, a]
            for c in rng:
                assert add[add[a, b], c] == add[a, add[b, c]]
                assert mul[mul[a, b], c] == mul[a, mul[b, c]]
                assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]


@pytest.mark.parametrize("q,modulus", [
    *(pytest.param(q, None, id=str(q)) for q in ALL_Q),
    pytest.param(9, (2, 1, 1), id="9-other-modulus"),
])
def test_tables_match_polynomial_arithmetic(q, modulus):
    # element by element against arithmetic mod the modulus, which reads
    # none of the tables it is compared with
    f = Field(q, modulus=modulus)
    ar = ol.arithmetic(f)
    assert f.np_add.tolist() == ar.add_table
    assert f.np_sub.tolist() == ar.sub_table
    assert f.np_mul.tolist() == ar.mul_table
    assert f.np_neg.tolist() == ar.neg_table
    assert f.np_inv.tolist() == [0] + [ar.inv(a) for a in range(1, q)]
    assert f.np_trace.tolist() == [ar.trace_int(a) for a in range(q)]


def test_field_is_its_tables():
    # the scalar arithmetic is the oracle's; the package keeps the tables
    for name in ("add", "sub", "mul", "neg", "inv", "pow", "trace_int", "chi",
                 "is_square", "squares", "_pow_int", "_squares"):
        assert not hasattr(Field(9), name), name
    for name in ("g_rho", "inverse_central_fourier", "t_xi_component",
                 "grid_to_json", "domain_to_json", "pointset_to_json",
                 "pointset_from_json"):
        assert not any(hasattr(mod, name) for mod in (
            kakeyalab, fr, mx, cn)), name
    assert not hasattr(cn.PointSet, "complement")


@pytest.mark.parametrize("q", ALL_Q)
def test_inverses_and_negation(fields, q):
    f = fields[q]
    for a in range(q):
        assert f.np_add[a, f.np_neg[a]] == 0
        if a:
            assert f.np_mul[a, f.np_inv[a]] == 1


def test_trace_is_identity_on_prime_fields():
    assert Field(13).np_trace.tolist() == list(range(13))


def test_trace_q4_zero():
    assert Field(4).np_trace[0] == 0


def test_trace_q9_against_power_oracle():
    # oracle: Tr(x) = x + x^3 by direct power evaluation
    f = Field(9)
    ar = ol.arithmetic(f)
    for a in range(9):
        oracle = ar.add(a, ar.mul(a, ar.mul(a, a)))
        assert f.np_trace[a] == oracle
        assert oracle < 3  # lands in the prime subfield


@pytest.mark.parametrize("q", ALL_Q)
def test_trace_additive_and_into_prime_subfield(fields, q):
    f = fields[q]
    trace = f.np_trace
    for a in range(q):
        assert trace[a] < f.p
        for b in range(q):
            assert trace[f.np_add[a, b]] == (trace[a] + trace[b]) % f.p


def test_character_basics():
    chi = Field(5).np_chi
    assert chi[0] == 1
    assert cmath.isclose(chi[1], cmath.exp(2j * cmath.pi / 5))
    assert abs(chi.sum()) < 1e-12


@pytest.mark.parametrize("q", ALL_Q)
def test_character_orthogonality(fields, q):
    # sum_x chi(ax) = q if a = 0 else 0
    f = fields[q]
    for a in range(q):
        s = sum(f.np_chi[f.np_mul[a, x]] for x in range(q))
        target = q if a == 0 else 0
        assert abs(s - target) < 1e-9


@pytest.mark.parametrize("q", ALL_Q)
def test_character_is_multiplicative_in_addition(fields, q):
    f = fields[q]
    chi = f.np_chi
    for a in range(q):
        for b in range(q):
            assert cmath.isclose(chi[f.np_add[a, b]], chi[a] * chi[b],
                                 abs_tol=1e-12)


def test_squares_q5():
    ar = ol.arithmetic(Field(5))
    assert ar.squares() == {0, 1, 4}
    assert not ar.is_square(2)
    assert ar.is_square(0)


def test_square_count_q7():
    ar = ol.arithmetic(Field(7))
    assert sum(ar.is_square(i) for i in range(7)) == 4  # (q+1)/2


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_square_classes_partition(fields, q):
    ar = ol.arithmetic(fields[q])
    squares = [i for i in range(1, q) if ar.is_square(i)]
    nonsquares = [i for i in range(1, q) if not ar.is_square(i)]
    assert len(squares) == len(nonsquares) == (q - 1) // 2


def test_is_square_rejected_for_even_q():
    with pytest.raises(DomainError):
        ol.arithmetic(Field(4)).is_square(1)


def test_builtin_moduli_are_verified_not_trusted():
    for q, (p, k, modulus) in BUILTIN_MODULI.items():
        f = Field(q)
        assert f.p == p and f.k == k and f.modulus == modulus


def test_reducible_modulus_rejected():
    with pytest.raises(DomainError):
        Field(9, modulus=(1, 1, 1))  # x^2+x+1 has the root 1 over F_3
    with pytest.raises(DomainError):
        Field(16, modulus=(1, 0, 0, 0, 1))  # x^4+1 = (x+1)^4 over F_2


def test_non_prime_power_rejected():
    with pytest.raises(DomainError):
        Field(6)
    with pytest.raises(DomainError):
        Field(12)


@pytest.mark.parametrize("q", [37, 64, 1000003, 1000000000039])
def test_field_above_the_desk_scale_rejected(q):
    # refused before trial division (1000000000039 is prime) or allocation
    assert fd.MAX_Q == 32
    with pytest.raises(DomainError, match="desk scale"):
        Field(q)


def test_explicit_modulus_accepted():
    # x^2 + x + 2 is irreducible over F_3 (no roots)
    f = Field(9, modulus=(2, 1, 1))
    x = 3
    assert f.np_mul[x, x] == f.np_add[f.np_neg[2], f.np_neg[x]]  # -x - 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 8, 9, 13]), st.data())
def test_subtraction_and_division_roundtrip(q, data):
    f = Field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    assert f.np_sub[f.np_add[a, b], b] == a
    if b:
        assert f.np_mul[f.np_mul[a, b], f.np_inv[b]] == a


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([7, 9, 16]), st.data())
def test_frobenius_fixes_trace(q, data):
    # Tr(x^p) = Tr(x): the trace is Frobenius-invariant
    f = Field(q)
    a = data.draw(st.integers(0, q - 1))
    assert f.np_trace[ol.arithmetic(f).pow(a, f.p)] == f.np_trace[a]


# -- the per-field table cache ---------------------------------------------


def _fill_every_table(fld):
    mx.affine_incidence(fld, 2)
    mx.affine_incidence(fld, 3)
    mx.heis1_incidence(fld)
    hz.line_table_for_direction(fld, (0, 1, 0, 0))
    fr.u_tables(mx.GridFunction.delta(mx.Domain.heisenberg(fld, 1)), 1)
    cn.lower_bound_ratio("bush", fld, 2, 2, operator="heis")


def test_every_cached_array_is_read_only():
    _fill_every_table(Field(3))
    arrays = [part for value in fd._FIELD_TABLES.values()
              for part in (value if isinstance(value, tuple) else (value,))
              if isinstance(part, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        mx.refined_incidence(Field(3))[1][0, 0, 0] = 0


def test_equal_fields_share_entries():
    a, b = Field(5), Field(5)
    assert a is not b
    assert mx.refined_incidence(a) is mx.refined_incidence(b)
    assert fr.chi_matrix(a) is fr.chi_matrix(b)
    assert mx.affine_incidence(a, 3) is mx.affine_incidence(b, 3)
    assert cn._extremal_op_values("bush", a, 1, "refined") \
        is cn._extremal_op_values("bush", b, 1, "refined")


def test_other_modulus_gets_its_own_entries():
    builtin, other = Field(9), Field(9, modulus=(2, 1, 1))
    assert builtin != other
    for fld in (builtin, other):
        assert np.array_equal(fr.chi_matrix(fld), fld.np_chi[fld.np_mul])
        dirs, table = mx.affine_incidence(fld, 2)
        for v, block in zip(dirs, table):
            assert sorted(map(tuple, block.tolist())) == sorted(
                ln.point_indices
                for ln in ol.affine_lines_with_direction(fld, 2, v))
    assert fr.chi_matrix(builtin) is not fr.chi_matrix(other)
    assert not np.array_equal(fr.chi_matrix(builtin), fr.chi_matrix(other))


@pytest.fixture
def cache(monkeypatch):
    """An empty table cache for one test; the module's own comes back after."""
    monkeypatch.setattr(fd, "_FIELD_TABLES", OrderedDict())
    return fd._FIELD_TABLES


def _entries_of(fld):
    return {key: value for (f, key), value in fd._FIELD_TABLES.items()
            if f == fld}


def _read(part):
    """An array, or the stack of an F_q^d block sequence, as (dtype, shape,
    bytes); any other part as itself."""
    if isinstance(part, mx._CosetBlocks):
        part = part[:]
    if isinstance(part, np.ndarray):
        return part.dtype, part.shape, part.tobytes()
    return part


def _snapshot(entries):
    """Per key, the value with every part read by _read."""
    return {key: [_read(a)
                  for a in (value if isinstance(value, tuple) else (value,))]
            for key, value in entries.items()}


def _zeros(nbytes):
    return lambda f: np.zeros(nbytes, dtype=np.uint8)


def test_evicted_entries_are_rebuilt_with_identical_bytes(cache, monkeypatch):
    f3 = Field(3)
    _fill_every_table(f3)
    before = _snapshot(_entries_of(f3))
    assert {k if isinstance(k, str) else k[0] for k in before} == {
        "affine-incidence", "heis1-incidence", "refined-incidence", "chi",
        "u-plane-index", "u-phases", "extremal-op-values"}
    monkeypatch.setattr(fd, "TABLE_BUDGET", 0)
    fr.chi_matrix(Field(5))  # a build for another field drops every entry
    assert not _entries_of(f3)
    _fill_every_table(f3)
    assert _snapshot(_entries_of(f3)) == before


def test_a_build_never_evicts_its_own_fields_entries(cache, monkeypatch):
    monkeypatch.setattr(fd, "TABLE_BUDGET", 0)
    fr.chi_matrix(Field(7))
    f5 = Field(5)
    _fill_every_table(f5)  # nested builds (heis1 reads refined) included
    assert list(_entries_of(f5)) == [key for _, key in cache]
    # as in the examples suite: the refined checks of e1 and e2 and the
    # build between them share one refined table
    table = mx.refined_incidence(f5)[1]
    cn.lower_bound_ratio("constant", f5, 3, 3, operator="refined")
    assert mx.refined_incidence(f5)[1] is table


def test_the_f3_entry_holds_only_its_directions(cache):
    f27 = Field(27)
    dirs, blocks = mx.affine_incidence(f27, 3)
    assert fd.table_bytes(_entries_of(f27).values()) == dirs.nbytes
    assert len(blocks) == len(dirs) == 27**2 + 27 + 1


def test_a_build_leaves_at_most_the_budget_besides_its_field(cache,
                                                             monkeypatch):
    budget = 10_000
    monkeypatch.setattr(fd, "TABLE_BUDGET", budget)

    def build_of(nbytes, view):
        def build(f):
            # other fields' entries were dropped before the build began
            assert fd.table_bytes(value for (g, _), value in cache.items()
                                  if g != f) <= budget
            if view:  # a view of another entry, built by a nested build
                return fd.field_table(f, 0, build_of(nbytes, False))[:10]
            return np.zeros(nbytes, dtype=np.uint8)
        return build

    fields = [Field(q) for q in (2, 3, 4, 5, 7)]
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(400):
        fld = fields[rng.integers(len(fields))]
        key = int(rng.integers(8))
        build = build_of(int(rng.integers(1, 6000)), key == 7)
        missing = (fld, key) not in cache
        fd.field_table(fld, key, build)
        if missing:
            own = fd.table_bytes(_entries_of(fld).values())
            assert fd.table_bytes(cache.values()) <= budget + own


def test_hits_refresh_entries_and_views_count_their_root_once(cache,
                                                             monkeypatch):
    f3, f5, f7 = Field(3), Field(5), Field(7)
    base = fd.field_table(f3, "base", _zeros(1000))
    view = fd.field_table(f3, "view", lambda f: base.reshape(10, 100))
    assert fd.table_bytes(cache.values()) == 1000
    fd.field_table(f5, "t", _zeros(1000))
    assert fd.field_table(f3, "base", None) is base  # a hit: now most recent
    monkeypatch.setattr(fd, "TABLE_BUDGET", 1999)
    fd.field_table(f7, "t", _zeros(1000))
    # the view goes first but frees nothing, then f5's entry
    assert list(cache) == [(f3, "base"), (f7, "t")]
    assert fd.table_bytes([view]) == 1000  # a view keeps its root counted


def test_h1_tables_of_every_default_and_big_field_fit_the_budget(
        cache, monkeypatch, tmp_path):
    evict = fd._evict_for
    dropped = []

    def counting_evict(field):
        before = len(cache)
        evict(field)
        dropped.append(before - len(cache))

    monkeypatch.setattr(fd, "_evict_for", counting_evict)
    # one CPU: every suite runs in this process, against this cache
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli.main(["verify", "--big", "--trials", "1", "--suite",
                     "planar-l2,ttstar,diag,offdiag,rd-l2,fourier",
                     "--out", str(tmp_path / "h1.csv")]) == 0
    assert dropped and not any(dropped)
    assert {f.q for f, _ in cache} == set(cli.DEFAULT_QS + cli.BIG_QS)
    assert fd.table_bytes(cache.values()) <= fd.TABLE_BUDGET


@pytest.mark.parametrize("bad", [1.9, 0.5, 4.0, True, False, np.bool_(True),
                                 "3", None])
def test_coerce_index_rejects_non_integers(bad):
    with pytest.raises(DomainError):
        Field(5).coerce_index(bad)


def test_coerce_index_accepts_python_and_numpy_integers():
    f5 = Field(5)
    for good in (3, np.int64(3), np.int16(3), np.uint8(3)):
        i = f5.coerce_index(good)
        assert i == 3 and type(i) is int
    with pytest.raises(DomainError):
        f5.coerce_index(np.int64(5))
    with pytest.raises(DomainError):   # once read as the point (1, 0, 4)
        ol.HPoint(f5, 1.9, 0.5, 4.99)


_INTEGERS = st.integers(-40, 40)
_SCALARS = st.one_of(
    _INTEGERS, _INTEGERS.map(np.int64), _INTEGERS.map(np.int16),
    st.integers(0, 40).map(np.uint8), st.booleans(), st.booleans().map(np.bool_),
    st.floats(), st.fractions(), st.none(), st.text(max_size=6),
    st.sampled_from(["inf", "-inf", " inf", "nan", "oo", "3/2", "1/0", "7"]))


@settings(max_examples=300, deadline=None)
@given(_SCALARS)
def test_scalar_checkers_share_one_contract(x):
    # bools refused, Python and numpy integers read by value, and every
    # refusal a DomainError, whichever checker reads x
    f5 = Field(5)
    checkers = {
        "exponent": (mx.exponent, lambda i: i >= 1, Fraction),
        "dimension": (lambda d: hz.check_dimension(f5, d, "dimension"),
                      lambda i: 1 <= i and 5 ** i <= fd.MAX_POINTS, int),
        "index": (f5.coerce_index, lambda i: 0 <= i < 5, int),
    }
    for name, (check, valid, kind) in checkers.items():
        try:
            got = check(x)
        except DomainError:
            got = None
        if isinstance(x, (bool, np.bool_)):
            assert got is None, name
        elif isinstance(x, (int, np.integer)):
            want = kind(int(x)) if valid(int(x)) else None
            assert got == want and type(got) is type(want), name
        elif name == "exponent":
            assert got is None or got == math.inf or got >= 1
        else:
            assert got is None, name
