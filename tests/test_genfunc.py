"""Generating-function numerators, expansion round trips, centrality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trioct import (
    OctPolynomial,
    OctSequenceContext,
    Octonion,
    RationalGF,
    RecurrenceParams,
    VariantError,
    build_gf,
    format_polynomial,
    gf_columns,
    gf_expand,
    gf_numerator,
    preset_lookup,
)

# slot coefficient tuples (ascending powers) for each preset, from the exact
# first terms; the third_order_jacobsthal e2 slot is the corrected (1, 1, 2)
EXPECTED_SLOTS = {
    "tribonacci": ((0, 1), (1,), (1, 1, 1), (2, 2, 1), (4, 3, 2), (7, 6, 4), (13, 11, 7), (24, 20, 13)),
    "padovan": ((0, 1), (1,), (0, 1, 1), (1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1), (2, 3, 2)),
    "narayana": ((0, 1), (1,), (1, 0, 1), (1, 1, 1), (2, 1, 1), (3, 1, 2), (4, 2, 3), (6, 3, 4)),
    "third_order_jacobsthal": ((0, 1), (1,), (1, 1, 2), (2, 3, 2), (5, 4, 4), (9, 9, 10), (18, 19, 18), (37, 36, 36)),
}

int_params = st.builds(
    RecurrenceParams,
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-3, 3),
)


@pytest.mark.parametrize("name", sorted(EXPECTED_SLOTS))
def test_numerator_slots(name):
    numerator = gf_numerator(OctSequenceContext(preset_lookup(name)))
    for slot in range(8):
        assert numerator.slot_coefficients(slot) == EXPECTED_SLOTS[name][slot]


def test_zero_initials_numerator_is_zero():
    numerator = gf_numerator(OctSequenceContext(RecurrenceParams(2, 1, -3, 0, 0, 0)))
    assert numerator.coeffs == ()


def test_trailing_zero_trimming():
    z = Octonion.zero()
    poly = OctPolynomial((Octonion.basis(1), z, z))
    assert poly.coeffs == (Octonion.basis(1),)
    assert OctPolynomial((z, z, z)).coeffs == ()


def test_rational_gf_requires_monic_constant():
    with pytest.raises(ValueError):
        RationalGF(OctPolynomial(()), (2, -1, -1, -1))


@pytest.mark.parametrize("name", ["tribonacci", "padovan", "narayana", "third_order_jacobsthal"])
def test_round_trip_on_presets(name):
    ctx = OctSequenceContext(preset_lookup(name))
    coeffs = gf_expand(build_gf(ctx), 50)
    for n, coeff in enumerate(coeffs):
        assert coeff == ctx.oct_term(n)


def test_first_three_coefficients_invert_numerator():
    ctx = OctSequenceContext(preset_lookup("tribonacci"))
    coeffs = gf_expand(build_gf(ctx), 3)
    assert coeffs == [ctx.oct_term(0), ctx.oct_term(1), ctx.oct_term(2)]


def test_narayana_real_slot_example():
    ctx = OctSequenceContext(preset_lookup("narayana"))
    coeffs = gf_expand(build_gf(ctx), 8)
    assert coeffs[7].components[0] == 6


def test_expand_argument_validation():
    gf = build_gf(OctSequenceContext(preset_lookup("tribonacci")))
    with pytest.raises(ValueError):
        gf_expand(gf, 0)
    with pytest.raises(ValueError):
        gf_expand(gf, 5, scalar_side="middle")


@pytest.mark.parametrize("name", ["tribonacci", "third_order_jacobsthal"])
def test_denominator_centrality(name):
    gf = build_gf(OctSequenceContext(preset_lookup(name)))
    plain = gf_expand(gf, 30)
    left = gf_expand(gf, 30, scalar_side="left")
    right = gf_expand(gf, 30, scalar_side="right")
    assert plain == left == right


def test_denominator_centrality_rational_params():
    params = RecurrenceParams(*(Fraction(x, 3) for x in (2, 1, 4, 0, 3, 6)))
    gf = build_gf(OctSequenceContext(params))
    assert gf_expand(gf, 15) == gf_expand(gf, 15, "left") == gf_expand(gf, 15, "right")


@given(int_params, st.booleans())
@settings(max_examples=60, deadline=None)
def test_round_trip_random_params(params, rational):
    if rational:
        params = RecurrenceParams(*(Fraction(f, 3) for f in params.fields()))
    ctx = OctSequenceContext(params)
    gf = build_gf(ctx)
    expanded = gf_expand(gf, 20)
    for n, coeff in enumerate(expanded):
        assert coeff == ctx.oct_term(n)
    # the three modes agree, and the scalar one is the slot columns
    assert expanded == gf_expand(gf, 20, "left") == gf_expand(gf, 20, "right")
    assert [list(column) for column in zip(*(c.components for c in expanded))] == gf_columns(gf, 20)


def test_columns_of_a_longer_numerator():
    # a numerator past degree 2 still enters each column once per power
    zero = Octonion.zero()
    numerator = OctPolynomial((Octonion.basis(0), zero, zero, zero, Octonion.basis(3)))
    gf = RationalGF(numerator, (1, -1, 0, 0))
    columns = gf_columns(gf, 7)
    assert columns[0] == [1] * 7 and columns[3] == [0, 0, 0, 0, 1, 1, 1]
    assert gf_expand(gf, 7) == gf_expand(gf, 7, "left") == gf_expand(gf, 7, "right")


def test_columns_reject_mixed_variants():
    numerator = OctPolynomial((Octonion.basis(1),))
    with pytest.raises(VariantError):
        gf_columns(RationalGF(numerator, (Fraction(1), Fraction(-1), Fraction(0), Fraction(0))), 5)
    with pytest.raises(ValueError):
        gf_columns(RationalGF(numerator, (1, -1, 0, 0)), 0)


def test_format_polynomial():
    assert format_polynomial((0, 1)) == "x"
    assert format_polynomial((1,)) == "1"
    assert format_polynomial((24, 20, 13)) == "24 + 20x + 13x^2"
    assert format_polynomial((1, -1, 0, -2)) == "1 - x - 2x^3"
    assert format_polynomial(()) == "0"
    assert format_polynomial((0, 0)) == "0"
    assert format_polynomial((-1, 1)) == "-1 + x"
    assert format_polynomial((Fraction(3, 2), Fraction(-1, 2))) == "(3/2) - (1/2)x"
