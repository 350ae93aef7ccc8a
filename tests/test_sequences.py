"""Recurrence families, presets, and the scalar identities."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trioct import (
    RecurrenceParams,
    RegimeError,
    VariantError,
    companion_identity,
    partial_sum_formula,
    partial_sum_formula_uncorrected,
    prefix_sum,
    preset_lookup,
    seq_term,
    u_term,
)
from trioct.sequences import terms

FIRST_TEN = {
    "tribonacci": [0, 1, 1, 2, 4, 7, 13, 24, 44, 81],
    "padovan": [0, 1, 0, 1, 1, 1, 2, 2, 3, 4],
    "narayana": [0, 1, 1, 1, 2, 3, 4, 6, 9, 13],
    "third_order_jacobsthal": [0, 1, 1, 2, 5, 9, 18, 37, 73, 146],
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


def test_preset_parameters():
    p = preset_lookup("tribonacci")
    assert (p.r, p.s, p.t, p.v0, p.v1, p.v2) == (1, 1, 1, 0, 1, 1)
    p = preset_lookup("padovan")
    assert (p.r, p.s, p.t, p.v0, p.v1, p.v2) == (0, 1, 1, 0, 1, 0)
    p = preset_lookup("narayana")
    assert (p.r, p.s, p.t, p.v0, p.v1, p.v2) == (1, 0, 1, 0, 1, 1)
    p = preset_lookup("third_order_jacobsthal")
    assert (p.r, p.s, p.t, p.v0, p.v1, p.v2) == (1, 1, 2, 0, 1, 1)


def test_preset_lookup_unknown():
    with pytest.raises(ValueError):
        preset_lookup("fibonacci")


@pytest.mark.parametrize("name", sorted(FIRST_TEN))
def test_preset_first_ten_terms(name):
    params = preset_lookup(name)
    assert [seq_term(params, n) for n in range(10)] == FIRST_TEN[name]


def test_seq_term_examples():
    assert seq_term(preset_lookup("tribonacci"), 7) == 24
    assert seq_term(preset_lookup("third_order_jacobsthal"), 7) == 37
    zero = RecurrenceParams(2, -3, 5, 0, 0, 0)
    assert all(seq_term(zero, n) == 0 for n in range(20))


def test_seq_term_rejects_negative_index():
    with pytest.raises(ValueError):
        seq_term(preset_lookup("tribonacci"), -1)


def test_u_term():
    params = preset_lookup("tribonacci")
    assert [u_term(params, n) for n in range(6)] == [0, 1, 1, 2, 4, 7]
    assert u_term(preset_lookup("padovan"), 1) == 1
    # for narayana the companion seeds (0, 1, r) coincide with the preset
    nara = preset_lookup("narayana")
    assert u_term(nara, 6) == 4
    assert all(u_term(nara, n) == seq_term(nara, n) for n in range(15))


def test_companion_identity_examples():
    lhs, rhs = companion_identity(preset_lookup("tribonacci"), 6)
    assert lhs == rhs == 24
    zero = RecurrenceParams(1, 2, 3, 0, 0, 0)
    assert companion_identity(zero, 5) == (0, 0)
    # padovan term(9) is 4 by the forward recurrence
    lhs, rhs = companion_identity(preset_lookup("padovan"), 8)
    assert lhs == rhs == 4


def test_companion_identity_needs_n_at_least_two():
    with pytest.raises(ValueError):
        companion_identity(preset_lookup("tribonacci"), 1)


def test_partial_sum_tribonacci():
    params = preset_lookup("tribonacci")
    assert partial_sum_formula(params, 5) == 15
    assert prefix_sum(params, 5) == 15
    assert partial_sum_formula(params, 5) == Fraction(24 + 7 - 1, 2)


def test_partial_sum_sign_misprint_witness():
    params = RecurrenceParams(1, 1, 1, 1, 0, 0)
    assert prefix_sum(params, 0) == 1
    assert partial_sum_formula(params, 0) == 1
    assert partial_sum_formula_uncorrected(params, 0) == 0


def test_partial_sum_rejects_delta_zero():
    params = RecurrenceParams(1, 1, -1, 0, 1, 1)
    with pytest.raises(RegimeError):
        partial_sum_formula(params, 4)
    # the direct sum stays available
    assert prefix_sum(params, 4) == sum(seq_term(params, n) for n in range(5))


def test_params_validation():
    with pytest.raises(VariantError):
        RecurrenceParams(1, 1, 1, 0, 1, Fraction(1))
    with pytest.raises(VariantError):
        RecurrenceParams(1.0, 1, 1, 0, 1, 1)


def test_rational_params_work():
    params = RecurrenceParams(*(Fraction(x) for x in (1, 1, 1, 0, 1, 1)))
    assert seq_term(params, 7) == 24
    assert params.delta == 2


@given(int_params, st.integers(3, 25))
@settings(max_examples=80, deadline=None)
def test_recurrence_consistency(params, n):
    expected = (
        params.r * seq_term(params, n - 1)
        + params.s * seq_term(params, n - 2)
        + params.t * seq_term(params, n - 3)
    )
    assert seq_term(params, n) == expected


@given(int_params, st.booleans())
@settings(max_examples=80, deadline=None)
def test_terms_follow_the_recurrence(params, rational):
    if rational:
        params = RecurrenceParams(*(Fraction(f, 3) for f in params.fields()))
    p = params
    v = list(islice(terms(p), 12))
    u = list(islice(terms(p, companion=True), 12))
    assert v[:3] == [p.v0, p.v1, p.v2] and u[:3] == [0, 1, p.r]
    for seq in (v, u):
        assert {type(x) for x in seq} == {type(p.r)}
        for n in range(3, 12):
            assert seq[n] == p.r * seq[n - 1] + p.s * seq[n - 2] + p.t * seq[n - 3]
    assert v == [seq_term(p, n) for n in range(12)]
    assert u == [u_term(p, n) for n in range(12)]


@given(int_params, st.integers(2, 25))
@settings(max_examples=80, deadline=None)
def test_companion_identity_holds(params, n):
    lhs, rhs = companion_identity(params, n)
    assert lhs == rhs


@given(int_params, st.integers(0, 30))
@settings(max_examples=80, deadline=None)
def test_partial_sum_matches_direct(params, n):
    if params.delta == 0:
        with pytest.raises(RegimeError):
            partial_sum_formula(params, n)
    else:
        assert partial_sum_formula(params, n) == prefix_sum(params, n)
