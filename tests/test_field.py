import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kakeyalab import constructions as cn
from kakeyalab import field as fd
from kakeyalab import fourier as fr
from kakeyalab import heisenberg as hz
from kakeyalab import maximal as mx
from kakeyalab.field import BUILTIN_MODULI, DomainError, Field

ALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


@pytest.fixture(scope="module")
def fields():
    return {q: Field(q) for q in ALL_Q}


def test_prime_field_arithmetic():
    f = Field(5)
    assert f.add(3, 4) == 2
    assert f.inv(2) == 3
    assert (f(3) + f(4)).index == 2
    assert (f(2) * f(2).inverse()).index == 1


def test_extension_multiplication_forced_by_modulus():
    # q=9 with modulus x^2 + 1: the generator squares to -1 = 2
    f = Field(9)
    x = f.element(3)  # coefficient vector (0, 1)
    assert (x * x).index == 2


def test_inversion_of_zero_rejected():
    f = Field(7)
    with pytest.raises(DomainError):
        f.inv(0)
    with pytest.raises(DomainError):
        f.zero.inverse()


def test_mixing_fields_rejected():
    a = Field(5)(2)
    b = Field(7)(2)
    with pytest.raises(DomainError):
        a + b


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_exhaustive(fields, q):
    f = fields[q]
    add, mul = f.np_add, f.np_mul
    rng = range(q)
    for a in rng:
        assert mul[a, f.inv(a)] == 1 if a else True
        for b in rng:
            assert add[a, b] == add[b, a]
            assert mul[a, b] == mul[b, a]
            for c in rng:
                assert add[add[a, b], c] == add[a, add[b, c]]
                assert mul[mul[a, b], c] == mul[a, mul[b, c]]
                assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]


@pytest.mark.parametrize("q", ALL_Q)
def test_inverses_and_negation(fields, q):
    f = fields[q]
    for a in range(q):
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_trace_is_identity_on_prime_fields():
    f = Field(13)
    for a in range(13):
        assert f.trace_int(a) == a


def test_trace_q4_zero():
    assert Field(4).trace_int(0) == 0


def test_trace_q9_against_power_oracle():
    # oracle: Tr(x) = x + x^3 by direct power evaluation
    f = Field(9)
    for a in range(9):
        x = f(a)
        oracle = x + x * x * x
        assert f.trace_int(a) == oracle.index
        assert oracle.index < 3  # lands in the prime subfield


@pytest.mark.parametrize("q", ALL_Q)
def test_trace_additive_and_into_prime_subfield(fields, q):
    f = fields[q]
    for a in range(q):
        assert f.trace_int(a) < f.p
        for b in range(q):
            assert f.trace_int(f.add(a, b)) == \
                (f.trace_int(a) + f.trace_int(b)) % f.p


def test_character_basics():
    f = Field(5)
    assert f.chi(0) == 1
    assert cmath.isclose(f.chi(1), cmath.exp(2j * cmath.pi / 5))
    assert abs(sum(f.chi(i) for i in range(5))) < 1e-12


@pytest.mark.parametrize("q", ALL_Q)
def test_character_orthogonality(fields, q):
    # sum_x chi(ax) = q if a = 0 else 0
    f = fields[q]
    for a in range(q):
        s = sum(f.chi(f.mul(a, x)) for x in range(q))
        target = q if a == 0 else 0
        assert abs(s - target) < 1e-9


@pytest.mark.parametrize("q", ALL_Q)
def test_character_is_multiplicative_in_addition(fields, q):
    f = fields[q]
    for a in range(q):
        for b in range(q):
            assert cmath.isclose(f.chi(f.add(a, b)), f.chi(a) * f.chi(b),
                                 abs_tol=1e-12)


def test_squares_q5():
    f = Field(5)
    assert f.squares() == {0, 1, 4}
    assert not f.is_square(2)
    assert f.is_square(0)


def test_square_count_q7():
    f = Field(7)
    assert sum(f.is_square(i) for i in range(7)) == 4  # (q+1)/2


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_square_classes_partition(fields, q):
    f = fields[q]
    squares = [i for i in range(1, q) if f.is_square(i)]
    nonsquares = [i for i in range(1, q) if not f.is_square(i)]
    assert len(squares) == len(nonsquares) == (q - 1) // 2


def test_is_square_rejected_for_even_q():
    with pytest.raises(DomainError):
        Field(4).is_square(1)


def test_enumeration():
    assert [e.index for e in Field(3).elements()] == [0, 1, 2]
    assert len(Field(4).elements()) == 4
    assert len(Field(27).elements()) == 27


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


def test_explicit_modulus_accepted():
    # x^2 + x + 2 is irreducible over F_3 (no roots)
    f = Field(9, modulus=(2, 1, 1))
    x = f(3)
    assert (x * x).index == f.add(f.neg(2), f.neg(3))  # x^2 = -x - 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 8, 9, 13]), st.data())
def test_subtraction_and_division_roundtrip(q, data):
    f = Field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    assert f.sub(f.add(a, b), b) == a
    if b:
        assert f.mul(f.mul(a, b), f.inv(b)) == a


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([7, 9, 16]), st.data())
def test_frobenius_fixes_trace(q, data):
    # Tr(x^p) = Tr(x): the trace is Frobenius-invariant
    f = Field(q)
    a = data.draw(st.integers(0, q - 1))
    assert f.trace_int(f.pow(a, f.p)) == f.trace_int(a)


# -- the per-field table cache ---------------------------------------------


def _fill_every_table(fld):
    mx.affine_incidence(fld, 2)
    mx.affine_incidence(fld, 3)
    mx.heis1_incidence(fld)
    hz.line_table_for_direction(fld, 2,
                                hz.ProjectiveDirection(fld, (0, 1, 0, 0)))
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
                for ln in hz.affine_lines_with_direction(fld, 2, v))
    assert fr.chi_matrix(builtin) is not fr.chi_matrix(other)
    assert not np.array_equal(fr.chi_matrix(builtin), fr.chi_matrix(other))
