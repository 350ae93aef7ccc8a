"""Octonion algebra laws, table invariants, and serialization."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trioct import (
    COMPLEX,
    INT,
    MULTIPLICATION_TABLE,
    Octonion,
    RATIONAL,
    VariantError,
    basis_product,
    format_scalar,
)
from trioct.octonion import _WIDE, MultiplicationTable, _pair_plan

E = [Octonion.basis(i) for i in range(8)]

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
roctonions = st.builds(lambda cs: Octonion(cs), st.tuples(*[rationals] * 8))


def test_table_identity_row_and_column():
    for j in range(8):
        assert MULTIPLICATION_TABLE.sign[0][j] == 1
        assert MULTIPLICATION_TABLE.index[0][j] == j
        assert MULTIPLICATION_TABLE.sign[j][0] == 1
        assert MULTIPLICATION_TABLE.index[j][0] == j


def test_table_imaginary_squares():
    for i in range(1, 8):
        assert basis_product(i, i) == (-1, 0)


def test_table_anticommutativity():
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            si, ki = basis_product(i, j)
            sj, kj = basis_product(j, i)
            assert ki == kj
            assert si == -sj


def test_table_rows_are_signed_permutations():
    for i in range(8):
        assert sorted(MULTIPLICATION_TABLE.index[i]) == list(range(8))


def test_basis_product_examples():
    assert E[1] * E[2] == E[3]
    assert E[2] * E[4] == E[6]
    assert E[1] * E[6] == -E[7]
    assert E[4] * E[5] == E[1]


def test_identity_element():
    p = Octonion((3, -1, 4, 1, -5, 9, 2, -6))
    assert E[0] * p == p
    assert p * E[0] == p


def test_non_associativity_witness():
    assert (E[1] * E[2]) * E[4] == E[7]
    assert E[1] * (E[2] * E[4]) == -E[7]
    assert (E[1] * E[2]) * E[4] != E[1] * (E[2] * E[4])


def test_add_sub():
    assert (E[1] + E[2]) + (E[1] - E[2]) == E[1] * 2
    p = Octonion((3, -1, 4, 1, -5, 9, 2, -6))
    assert p - p == Octonion.zero()


def test_add_consecutive_sequence_lifts():
    # tribonacci terms 0..8 from the recurrence: 0 1 1 2 4 7 13 24 44
    terms = [0, 1, 1]
    while len(terms) < 9:
        terms.append(terms[-1] + terms[-2] + terms[-3])
    lift0 = Octonion(tuple(terms[0:8]))
    lift1 = Octonion(tuple(terms[1:9]))
    assert lift0 + lift1 == Octonion((1, 2, 3, 6, 11, 20, 37, 68))


def test_variant_mixing_rejected():
    p = Octonion((1,) * 8)
    q = Octonion((Fraction(1),) * 8)
    with pytest.raises(VariantError):
        p + q
    with pytest.raises(VariantError):
        p * q
    with pytest.raises(VariantError):
        p * Fraction(1, 2)
    with pytest.raises(VariantError):
        Octonion((1, 1, 1, 1, 1, 1, 1, Fraction(1)))


def test_floats_rejected():
    with pytest.raises(VariantError):
        Octonion((1.5,) * 8)


def test_conjugation_examples():
    assert E[0].conjugate() == E[0]
    p = Octonion((1, 2, 0, 0, 0, 0, 0, -3))
    assert p.conjugate() == Octonion((1, -2, 0, 0, 0, 0, 0, 3))
    p = E[0] + E[1]
    q = E[2] + E[4]
    assert (p * q).conjugate() == q.conjugate() * p.conjugate()


def test_norm_sq_examples():
    assert E[5].norm_sq() == 1
    assert Octonion.zero().norm_sq() == 0
    assert Octonion((0, 1, 1, 2, 4, 7, 13, 24)).norm_sq() == 816


def test_norm_sq_rejects_nonreal_complex():
    p = Octonion((1 + 1j,) + (0j,) * 7)
    with pytest.raises(ValueError):
        p.norm_sq()


def test_serialization():
    assert tuple(map(format_scalar, Octonion((0, 1, -2, 3, 4, 5, 6, 7)).components)) == (
        "0", "1", "-2", "3", "4", "5", "6", "7",
    )
    o = Octonion((Fraction(1, 2),) + (Fraction(0),) * 7)
    assert format_scalar(o.components[0]) == "1/2"
    o = Octonion((1.5 - 2j,) + (0j,) * 7)
    assert format_scalar(o.components[0]) == "1.5-2i"


def test_conversions():
    p = Octonion((1, 2, 3, 4, 5, 6, 7, 8))
    assert p.as_rational() == Octonion(tuple(Fraction(k) for k in range(1, 9)))
    assert p.as_complex().components[0] == 1 + 0j
    with pytest.raises(VariantError):
        Octonion((1j,) * 8).as_rational()


def test_alternative_laws_on_all_basis_pairs():
    for i in range(8):
        for j in range(8):
            p, q = E[i], E[j]
            assert p * (p * q) == (p * p) * q
            assert (p * q) * q == p * (q * q)
            assert (p * q) * p == p * (q * p)


@given(roctonions, roctonions)
@settings(max_examples=60, deadline=None)
def test_norm_multiplicativity(p, q):
    assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()


@given(roctonions, roctonions)
@settings(max_examples=60, deadline=None)
def test_alternativity(p, q):
    assert p * (p * q) == (p * p) * q
    assert (p * q) * q == p * (q * q)
    assert (p * q) * p == p * (q * p)


@given(roctonions, roctonions)
@settings(max_examples=60, deadline=None)
def test_conjugation_properties(p, q):
    assert p.conjugate().conjugate() == p
    assert (p + q).conjugate() == p.conjugate() + q.conjugate()
    assert (p * q).conjugate() == q.conjugate() * p.conjugate()


@given(roctonions)
@settings(max_examples=60, deadline=None)
def test_conjugate_product_is_norm(p):
    expected = Octonion.from_scalar(p.norm_sq())
    assert p * p.conjugate() == expected
    assert p.conjugate() * p == expected


def _expand_product(p, q):
    """Sum of a_i * b_j * sign * e_k over all 64 basis pairs, row by row."""
    acc = list(Octonion.zero(p.variant))
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            sign, k = basis_product(i, j)
            acc[k] = acc[k] + a * b if sign > 0 else acc[k] - a * b
    return acc


def _exact_form(value):
    if isinstance(value, complex):
        return type(value), value.real.hex(), value.imag.hex()
    if isinstance(value, Fraction):
        return type(value), value.numerator, value.denominator
    return type(value), value


def _octonions(zero, scalars):
    # zeros drawn often, so sparse operands and skipped terms are covered
    return st.builds(Octonion, st.tuples(*[st.one_of(st.just(zero), scalars)] * 8))


def _pairs(zero, scalars):
    octonions = _octonions(zero, scalars)
    return st.tuples(octonions, octonions)


_WIDE_INTS = st.integers(-(2**3000), 2**3000)
_SIGNED_ZEROS = st.sampled_from([complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)])
_NEG_MIXED = Octonion(tuple(Fraction(-k, d) for k, d in enumerate((1, 2, 3, 5, 7, 11, 12, 30))))
# widest components just below and exactly at the bound that selects the 36-product plan
_BELOW_CUTOFF = Octonion(tuple((-1) ** k * (_WIDE - 1 - k) for k in range(8)))
_AT_CUTOFF = Octonion((0, 5, -_WIDE, 0, 1, -7, 3, _WIDE // 2))
_WIDE_OPERAND = Octonion(tuple((-1) ** (k // 3) * (3 ** 1900 + k * 7 ** 500) for k in range(8)))


@given(
    st.one_of(
        _pairs(0, st.integers()),
        _pairs(0, _WIDE_INTS),
        st.tuples(_octonions(0, _WIDE_INTS), _octonions(0, st.integers(-9, 9))),
        _pairs(
            Fraction(0),
            st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)),
        ),
        _pairs(Fraction(0), st.builds(Fraction, _WIDE_INTS, st.integers(1, 10**6))),
        _pairs(
            0j,
            st.one_of(
                _SIGNED_ZEROS,
                st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            ),
        ),
    )
)
@example((Octonion.zero(INT), Octonion((3, -1, 4, 1, -5, 9, 2, -6))))
@example((Octonion.basis(5, INT), Octonion((10**30, -1, 0, 0, 7, 0, 0, -(10**25)))))
@example((_NEG_MIXED, _NEG_MIXED.conjugate()))
@example((Octonion.from_scalar(Fraction(-3, 4)), Octonion.basis(6, RATIONAL)))
@example((Octonion.zero(COMPLEX), Octonion((complex(-0.0, -0.0),) * 8)))
@example((Octonion((complex(-1.5, 0.0),) + (0j,) * 7), Octonion((complex(0.0, -0.0),) * 8)))
@example((_BELOW_CUTOFF, _BELOW_CUTOFF.conjugate()))
@example((_BELOW_CUTOFF, _AT_CUTOFF))
@example((_AT_CUTOFF, _AT_CUTOFF))
@example((_WIDE_OPERAND, _WIDE_OPERAND.conjugate()))
@example((_WIDE_OPERAND, Octonion((3, -1, 4, 1, -5, 9, 2, -6))))
@example((_WIDE_OPERAND.as_rational(), Octonion(tuple(Fraction(c, k + 2) for k, c in enumerate(-_WIDE_OPERAND)))))
@settings(max_examples=300, deadline=None)
def test_product_matches_table_expansion(pair):
    p, q = pair
    product = p * q
    assert product.variant == p.variant
    assert [_exact_form(c) for c in product] == [_exact_form(c) for c in _expand_product(p, q)]


def test_complex_product_skips_zero_factors():
    # inf * 0j is nan, so a product that multiplied every pair would fill these slots with nan
    p = Octonion((complex(float("inf"), 0),) + (0j,) * 7)
    product = p * Octonion.basis(1, COMPLEX)
    assert [_exact_form(c) for k, c in enumerate(product) if k != 1] == [_exact_form(0j)] * 7


def _broken(table, i, j, sign=None, index=None):
    """The table with entry (i, j) replaced."""
    signs, indices = [list(row) for row in table.sign], [list(row) for row in table.index]
    signs[i][j] = signs[i][j] if sign is None else sign
    indices[i][j] = indices[i][j] if index is None else index
    return MultiplicationTable(tuple(map(tuple, signs)), tuple(map(tuple, indices)))


def test_pair_plan_takes_36_products():
    pairs, slots = _pair_plan(MULTIPLICATION_TABLE)
    assert len(pairs) == 28
    products = sorted(m for pos, neg in slots for m in pos + neg if m >= 8)
    assert products == list(range(8, 36))


@pytest.mark.parametrize(
    "table, message",
    [
        (_broken(MULTIPLICATION_TABLE, 1, 2, sign=-MULTIPLICATION_TABLE.sign[1][2]), "relative sign"),
        (_broken(MULTIPLICATION_TABLE, 0, 3, sign=-1), "relative sign"),
        (_broken(MULTIPLICATION_TABLE, 2, 5, index=MULTIPLICATION_TABLE.index[2][4]), "different slots"),
        (_broken(MULTIPLICATION_TABLE, 3, 3, index=3), "slot 0"),
        (_broken(_broken(MULTIPLICATION_TABLE, 1, 2, index=4), 2, 1, index=4), "four pairs"),
    ],
    ids=["flipped sign", "flipped identity sign", "asymmetric index", "square off slot 0", "five pairs in a slot"],
)
def test_pair_plan_rejects_a_broken_table(table, message):
    with pytest.raises(ValueError, match=message):
        _pair_plan(table)
