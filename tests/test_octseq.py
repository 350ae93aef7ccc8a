"""Octonion lifts: recurrence, closed forms, sums, shifts, norms."""

import cmath
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trioct import (
    Octonion,
    OctSequenceContext,
    PRESET_NAMES,
    RecurrenceParams,
    RegimeError,
    gf_numerator,
    preset_lookup,
    sum_correction,
)
from trioct.cubic import _binet_parts, _finite, _within_doubles
from trioct.scalars import COMPLEX, as_complex
from trioct.sequences import _CubicQuotient, terms

SUM_CONSTANTS = {
    "tribonacci": (1, 1, 3, 5, 9, 17, 31, 57),
    "padovan": (1, 1, 2, 2, 3, 4, 5, 7),
    "narayana": (1, 1, 2, 3, 4, 6, 9, 13),
    "third_order_jacobsthal": (1, 1, 4, 7, 13, 28, 55, 109),
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


def ctx_for(name):
    return OctSequenceContext(preset_lookup(name))


def test_oct_term_examples():
    assert ctx_for("tribonacci").oct_term(0) == Octonion((0, 1, 1, 2, 4, 7, 13, 24))
    assert ctx_for("third_order_jacobsthal").oct_term(0) == Octonion((0, 1, 1, 2, 5, 9, 18, 37))
    zero = OctSequenceContext(RecurrenceParams(3, -2, 1, 0, 0, 0))
    assert zero.oct_term(11) == Octonion.zero()


def test_oct_term_window_is_consecutive():
    ctx = ctx_for("padovan")
    for n in range(20):
        assert ctx.oct_term(n).components == tuple(ctx.seq(n + l) for l in range(8))


def test_conjugate_plus_term_is_twice_real_part():
    ctx = ctx_for("tribonacci")
    for n in range(15):
        o = ctx.oct_term(n)
        assert o + o.conjugate() == Octonion.from_scalar(ctx.seq(n)) * 2


def test_norm_sq_and_norm():
    ctx = ctx_for("tribonacci")
    assert ctx.norm_sq(0) == 816


def test_recurrence_check():
    lhs, rhs = ctx_for("tribonacci").recurrence_check(1)
    assert lhs == rhs
    ctx = ctx_for("padovan")
    lhs, rhs = ctx.recurrence_check(3)
    assert lhs == rhs == ctx.oct_term(5)
    zero = OctSequenceContext(RecurrenceParams(1, 1, 1, 0, 0, 0))
    assert zero.recurrence_check(4) == (Octonion.zero(), Octonion.zero())
    with pytest.raises(ValueError):
        ctx.recurrence_check(0)


@pytest.mark.parametrize("name", sorted(PRESET_NAMES))
def test_recurrence_exact_over_window(name):
    ctx = ctx_for(name)
    for n in range(1, 60):
        lhs, rhs = ctx.recurrence_check(n)
        assert lhs == rhs


def test_oct_binet_examples():
    ctx = ctx_for("tribonacci")
    approx = ctx.oct_binet(0)
    exact = ctx.oct_term(0).as_complex()
    for a, e in zip(approx.components, exact.components):
        assert abs(a - e) <= 1e-8
    assert abs(ctx.oct_binet(10).components[0] - 149) <= 1e-8 * 149


def test_oct_binet_regime_error():
    ctx = OctSequenceContext(RecurrenceParams(0, 3, 0, 0, 1, 1))
    with pytest.raises(RegimeError):
        ctx.oct_binet(0)


@pytest.mark.parametrize("name", sorted(PRESET_NAMES))
def test_oct_binet_window(name):
    ctx = ctx_for(name)
    for n in range(41):
        approx = ctx.oct_binet(n)
        exact = ctx.oct_term(n).as_complex()
        for a, e in zip(approx.components, exact.components):
            assert abs(a - e) <= 1e-8 * max(1.0, abs(e))


@pytest.mark.parametrize("name", sorted(SUM_CONSTANTS))
def test_sum_correction_matches_tabulated_constants(name):
    expected = -Octonion(tuple(Fraction(c) for c in SUM_CONSTANTS[name]))
    assert sum_correction(preset_lookup(name)) == expected


def test_sum_octonions_tribonacci_example():
    ctx = ctx_for("tribonacci")
    total = ctx.sum_octonions(2)
    assert total == Octonion(tuple(Fraction(c) for c in (2, 4, 7, 13, 24, 44, 81, 149)))
    constant = Octonion(tuple(Fraction(c) for c in SUM_CONSTANTS["tribonacci"]))
    composed = (ctx.oct_term(4).as_rational() + ctx.oct_term(2).as_rational() - constant) * Fraction(1, 2)
    assert total == composed


def test_sum_octonions_narayana_shifted_form():
    ctx = ctx_for("narayana")
    constant = Octonion(tuple(Fraction(c) for c in SUM_CONSTANTS["narayana"]))
    for n in range(51):
        assert ctx.sum_octonions(n) == ctx.oct_term(n + 3).as_rational() - constant


@pytest.mark.parametrize("name", sorted(PRESET_NAMES))
def test_sum_octonions_matches_direct_sum(name):
    ctx = ctx_for(name)
    running = Octonion.zero()
    for n in range(40):
        running = running + ctx.oct_term(n)
        assert ctx.sum_octonions(n) == running.as_rational()


def test_sum_octonions_delta_zero():
    ctx = OctSequenceContext(RecurrenceParams(1, 1, -1, 0, 1, 1))
    with pytest.raises(RegimeError):
        ctx.sum_octonions(3)
    assert ctx.oct_prefix_sum(3) == sum(
        (ctx.oct_term(k) for k in range(4)), Octonion.zero()
    ).as_rational()
    assert ctx.oct_prefix_sums(3) == [
        sum((ctx.oct_term(k) for k in range(n + 1)), Octonion.zero()).as_rational()
        for n in range(4)
    ]
    with pytest.raises(ValueError):
        ctx.oct_prefix_sums(-1)
    with pytest.raises(ValueError):
        ctx.oct_term(-1)


def test_sum_correction_built_once_per_context(monkeypatch):
    import trioct.octseq as octseq

    calls = []
    original = octseq.sum_correction
    monkeypatch.setattr(octseq, "sum_correction", lambda params: calls.append(params) or original(params))
    ctx = ctx_for("tribonacci")
    for n in range(41):
        assert ctx.sum_octonions(n) == ctx.oct_prefix_sum(n)
    assert len(calls) == 1


def test_shift_weights_computed_once_per_m(monkeypatch):
    import trioct.octseq as octseq

    calls = []
    original = octseq._expansion_weights
    monkeypatch.setattr(octseq, "_expansion_weights", lambda *args: calls.append(args[0]) or original(*args))
    ctx = ctx_for("third_order_jacobsthal")
    for m in range(3, 11):
        for n in range(51):
            lhs, rhs = ctx.shift_formula(n, m)
            assert lhs == rhs
    assert len(calls) == 8


def test_root_forms_past_double_range_raise_regime_error():
    ctx = ctx_for("tribonacci")
    forms = [
        ctx.oct_binet,
        lambda n: ctx.binet_term(n, "v"),
        lambda n: ctx.binet_term(n, "u"),
        lambda n: ctx.norm_formula_complex(n).real,
        *(lambda n, line=line: ctx.quad_residual(n, line) for line in ("alpha", "omega1", "omega2")),
    ]
    for form in forms:
        form(40)
        with pytest.raises(RegimeError, match="out of float range"):
            form(2000)


def _all_finite(value):
    if isinstance(value, (complex, float)):
        return cmath.isfinite(value)
    return all(map(_all_finite, value))


def test_root_forms_near_double_limit_are_finite_or_raise():
    # just below the index where a root power overflows, complex products
    # overflow to inf or nan without raising; tribonacci crosses at about
    # n = 1155 (quadratic), 1160 (octonion Binet), 1164 (Binet) and 574 (norm)
    ctx = ctx_for("tribonacci")
    lines = ("alpha", "omega1", "omega2")
    forms = [
        (range(1100, 1171), ctx.oct_binet),
        (range(1100, 1171), lambda n: ctx.binet_term(n, "v")),
        (range(1100, 1171), lambda n: ctx.binet_term(n, "u")),
        (range(560, 591), ctx.norm_formula_complex),
        (range(560, 591), lambda n: ctx.norm_formula_complex(n).real),
        *((range(1100, 1171), lambda n, line=line: ctx.quad_residual(n, line)) for line in lines),
    ]
    raised = 0
    for indices, form in forms:
        for n in indices:
            try:
                value = form(n)
            except RegimeError:
                raised += 1
                continue
            assert _all_finite(value), (form, n, value)
    assert raised > 0
    # the residual fails where the identity's sides do, instead of dropping a nan
    for line in lines:
        for n in range(1100, 1171):
            try:
                _octonion_quad_parts(ctx, n, line)
            except RegimeError:
                with pytest.raises(RegimeError):
                    ctx.quad_residual(n, line)


def test_norm_formula_examples():
    ctx = ctx_for("tribonacci")
    assert ctx.norm_formula_complex(0).real == pytest.approx(816, rel=1e-9)
    assert ctx.norm_formula_complex(1).real == pytest.approx(2752, rel=1e-9)
    zero = OctSequenceContext(RecurrenceParams(1, 1, 1, 0, 0, 0))
    assert abs(zero.norm_formula_complex(5).real) <= 1e-12


@pytest.mark.parametrize("name", sorted(PRESET_NAMES))
def test_norm_formula_window(name):
    ctx = ctx_for(name)
    for n in range(26):
        exact = float(ctx.norm_sq(n))
        assert abs(ctx.norm_formula_complex(n) - exact) <= 1e-6 * max(1.0, exact)


def test_shift_formula_m3_reduces_to_recurrence():
    for name in PRESET_NAMES:
        ctx = ctx_for(name)
        lhs, rhs = ctx.shift_formula(4, 3)
        assert lhs == rhs == ctx.oct_term(7)


def test_shift_formula_narayana_example():
    ctx = ctx_for("narayana")
    lhs, rhs = ctx.shift_formula(2, 5)
    assert lhs == rhs == ctx.oct_term(7)
    # companion terms coincide with the preset terms: coefficients are 2, 1, 1
    combo = ctx.oct_term(4) * 2 + ctx.oct_term(3) + ctx.oct_term(2)
    assert combo == ctx.oct_term(7)


def test_shift_formula_jacobsthal_example():
    ctx = ctx_for("third_order_jacobsthal")
    lhs, rhs = ctx.shift_formula(0, 6)
    assert lhs == rhs == ctx.oct_term(6)
    j3, j4, j5 = ctx.seq(3), ctx.seq(4), ctx.seq(5)
    assert (j3, j4, j5) == (2, 5, 9)
    combo = ctx.oct_term(2) * j5 + ctx.oct_term(1) * (j4 + 2 * j3) + ctx.oct_term(0) * (2 * j4)
    assert combo == ctx.oct_term(6)


@pytest.mark.parametrize("name", sorted(PRESET_NAMES))
def test_shift_formula_grid(name):
    ctx = ctx_for(name)
    for m in range(3, 9):
        for n in range(0, 21):
            lhs, rhs = ctx.shift_formula(n, m)
            assert lhs == rhs


def test_shift_formula_rejects_small_m():
    ctx = ctx_for("tribonacci")
    with pytest.raises(RegimeError):
        ctx.shift_formula(0, 2)
    with pytest.raises(ValueError):
        ctx.shift_formula(-1, 3)


@pytest.mark.parametrize("name", sorted(PRESET_NAMES))
def test_quad_approx_window(name):
    ctx = ctx_for(name)
    for n in range(31):
        for line in ("alpha", "omega1", "omega2"):
            assert ctx.quad_residual(n, line) <= 1e-8


def test_quad_approx_zero_initials():
    # zero seeds give a zero weight and zero terms: both sides vanish on every line
    ctx = OctSequenceContext(RecurrenceParams(1, 1, 1, 0, 0, 0))
    for n in (0, 4, 30):
        for line in ("alpha", "omega1", "omega2"):
            assert ctx.quad_residual(n, line) == 0.0


def test_quad_approx_bad_root_name():
    with pytest.raises(ValueError):
        ctx_for("tribonacci").quad_residual(0, "beta")


# The root-based forms as octonion arithmetic, the way the library computed
# them before it went per component: the reference for the pins below.


def _power_octonion(x):
    x = complex(x)
    return Octonion(tuple(x**l for l in range(8)))


def _octonion_binet(ctx, n):
    (a, p_a), (b, p_b), (c, p_c) = _binet_parts(ctx.roots, n, "v")
    return _finite(_power_octonion(a) * p_a - _power_octonion(b) * -p_b + _power_octonion(c) * p_c, n)


def _octonion_quad_parts(ctx, n, which_root):
    x, weight, _ = ctx.roots.lines[which_root]
    s, t = as_complex(ctx.params.s), as_complex(ctx.params.t)
    with _within_doubles(f"the root powers or terms at n = {n} are"):
        lhs = _power_octonion(x) * (weight * x ** (n + 2))
        z = [as_complex(v) for v in islice(terms(ctx.params, start=n), 10)]
        o_n, o_n1, o_n2 = (Octonion._raw(tuple(z[k : k + 8]), COMPLEX) for k in range(3))
        parts = (o_n2 * (x * x), (o_n1 * s + o_n * t) * x, o_n1 * t)
        return _finite(lhs, n), _finite(parts[0] + parts[1] + parts[2], n), parts


def _octonion_quad_residual(ctx, n, which_root):
    lhs, rhs, parts = _octonion_quad_parts(ctx, n, which_root)
    worst = 0.0
    with _within_doubles(f"the root powers or terms at n = {n} are"):
        for a, b, *addends in zip(lhs, rhs, *parts):
            worst = max(worst, abs(a - b) / max(1.0, abs(a), *map(abs, addends)))
        return _finite(worst, n)


def _bits(form, *args):
    """float.hex of both parts of every component, or the RegimeError's message."""
    try:
        value = form(*args)
    except RegimeError as e:
        return str(e)
    if isinstance(value, float):
        return value.hex()
    return [(c.real.hex(), c.imag.hex()) for c in value.components]


_FORM_FAMILIES = {
    **{name: preset_lookup(name) for name in PRESET_NAMES},
    # zero seeds: every component is a zero whose sign the operation order decides;
    # on the second family, writing the omega1 part's "- -p" as "+ p" flips some
    "zero seeds": RecurrenceParams(1, 1, 1, 0, 0, 0),
    "zero seeds, negative coefficients": RecurrenceParams(-1, -1, -1, 0, 0, 0),
    # a large t: near n = 238 an addend of the alpha line's right side overflows while its
    # left side stays finite, so only the right side's finiteness check raises
    "large t": RecurrenceParams(1, -70, 4804, -1, 3, -2),
}


def _pinned_indices(test):
    # every family near 0, and tribonacci and the large-t family where the root powers leave double range
    cases = [(name, n) for name in _FORM_FAMILIES for n in (0, 1, 7, 30, 40)]
    cases += [("tribonacci", n) for n in range(1100, 1171)] + [("large t", n) for n in range(230, 245)]
    for name, n in cases:
        test = example(name, n)(test)
    return test


@_pinned_indices
@given(st.sampled_from(sorted(_FORM_FAMILIES)), st.integers(0, 1200))
@settings(max_examples=60, deadline=None)
def test_component_forms_match_the_octonion_forms_bit_for_bit(name, n):
    ctx = OctSequenceContext(_FORM_FAMILIES[name])
    assert _bits(ctx.oct_binet, n) == _bits(_octonion_binet, ctx, n)
    for line in ("alpha", "omega1", "omega2"):
        assert _bits(ctx.quad_residual, n, line) == _bits(_octonion_quad_residual, ctx, n, line)


@given(int_params, st.integers(1, 25))
@settings(max_examples=60, deadline=None)
def test_recurrence_check_random_params(params, n):
    lhs, rhs = OctSequenceContext(params).recurrence_check(n)
    assert lhs == rhs


@given(int_params, st.integers(0, 20), st.booleans())
@settings(max_examples=60, deadline=None)
def test_sum_octonions_random_params(params, n, rational):
    if rational:
        params = RecurrenceParams(*(Fraction(f, 3) for f in params.fields()))
    ctx = OctSequenceContext(params)
    if params.delta == 0:
        with pytest.raises(RegimeError):
            ctx.sum_octonions(n)
    else:
        total = ctx.sum_octonions(n)
        assert total == ctx.oct_prefix_sum(n)
        assert all(type(c) is Fraction for c in total.components)


@given(int_params, st.integers(0, 30), st.integers(3, 12))
@settings(max_examples=60, deadline=None)
def test_shift_formula_random_params(params, n, m):
    lhs, rhs = OctSequenceContext(params).shift_formula(n, m)
    assert lhs == rhs


# one context's calls, in any order: (kind, n, m)
_line_calls = st.lists(
    st.one_of(
        st.tuples(st.just("shift"), st.integers(0, 90), st.integers(3, 12)),
        st.tuples(st.just("recurrence"), st.integers(1, 90), st.just(0)),
        st.tuples(st.just("sum"), st.integers(0, 90), st.just(0)),
        st.tuples(st.just("gf"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=25,
)


@given(int_params, st.booleans(), _line_calls, st.sampled_from(["drawn", "deep first", "shallow first"]))
@settings(max_examples=80, deadline=None)
def test_shared_lines_match_the_combinations_of_the_terms(params, rational, calls, order):
    if rational:
        params = RecurrenceParams(*(Fraction(f, 3) for f in params.fields()))
    if order != "drawn":
        calls = sorted(calls, key=lambda call: call[1], reverse=order == "deep first")
    r, s, t = params.r, params.s, params.t
    x = list(islice(terms(params), 120))
    u = list(islice(terms(params, companion=True), 12))

    def line(lo, hi, a, b, c):
        return [a * x[k + 2] + b * x[k + 1] + c * x[k] for k in range(lo, hi)]

    def combination(n, a, b, c):
        return Octonion(tuple(line(n, n + 8, a, b, c)))

    ctx = OctSequenceContext(params)
    for kind, n, m in calls:
        if kind == "shift":
            weights = (u[m - 1], s * u[m - 2] + t * u[m - 3], t * u[m - 2])
            assert ctx.shift_formula(n, m) == (Octonion(x[n + m : n + m + 8]), combination(n, *weights))
        elif kind == "recurrence":
            assert ctx.recurrence_check(n) == (combination(n - 1, r, s, t), Octonion(x[n + 2 : n + 10]))
        elif kind == "sum" and params.delta == 0:
            with pytest.raises(RegimeError):
                ctx.sum_octonions(n)
        elif kind == "sum":
            direct = tuple(Fraction(sum(x[l : n + l + 1])) for l in range(8))
            assert ctx.sum_octonions(n) == Octonion(direct)
        else:
            rows = [
                Octonion(x[0:8]),
                Octonion(tuple(x[l + 1] - r * x[l] for l in range(8))),
                Octonion(tuple(x[l + 2] - r * x[l + 1] - s * x[l] for l in range(8))),
            ]
            while rows and not rows[-1]:
                rows.pop()
            assert gf_numerator(ctx).coeffs == tuple(rows)
    # every line the calls used holds its own triple's combination at every
    # index, the values it cached among them, and the term line the terms
    triples = {(r, s, t), (1, 1 - r, t), (0, 1, -r), (1, -r, -s)}
    triples |= {(u[m - 1], s * u[m - 2] + t * u[m - 3], t * u[m - 2]) for kind, _, m in calls if kind == "shift"}
    assert ctx.line(0, 100) == x[:100]
    for weights in triples:
        assert ctx.line(0, 100, weights) == line(0, 100, *weights)


def computed_stretches(monkeypatch, method):
    """The (lo, hi) of every stretch that contexts compute through method, in order."""
    asked = []
    values = getattr(OctSequenceContext, method)

    def spy(self, lo, hi, *weights):
        asked.append((lo, hi))
        return values(self, lo, hi, *weights)

    monkeypatch.setattr(OctSequenceContext, method, spy)
    return asked


def test_a_deep_call_computes_only_the_indices_it_returns(monkeypatch):
    asked = computed_stretches(monkeypatch, "_combination")
    ctx = OctSequenceContext(RecurrenceParams(1, 1, 1, 0, 1, 1))
    lhs, rhs = ctx.shift_formula(5000, 7)
    assert lhs == rhs
    assert asked == [(5000, 5008)]
    assert ctx.line(5000, 5008, ctx.shift_coefficients(7)) == list(rhs.components)
    # a shallower call extends the same line downward to it
    assert ctx.shift_formula(0, 7) == (ctx.oct_term(7), ctx.oct_term(7))
    assert asked == [(5000, 5008), (0, 5000)]
    fresh = OctSequenceContext(RecurrenceParams(1, 1, 1, 0, 1, 1))
    total = fresh.sum_octonions(5000)
    assert asked[2:] == [(5000, 5008)]
    assert total == fresh.oct_prefix_sum(5000)
    # the float checks read the term line and keep no line of their own
    lines = {key: [start, list(values)] for key, (start, values) in fresh._lines.items()}
    fresh.quad_residual(20, "alpha")
    assert fresh._lines == lines


@pytest.mark.parametrize(
    "params, n",
    [
        (RecurrenceParams(1, 1, 1, 0, 1, 1), 20000),
        (RecurrenceParams(*map(Fraction, ("1/2", "2/3", "1/6", "1/3", "-2", "5/7"))), 3000),
    ],
)
def test_a_deep_call_starts_the_term_line_at_its_index(params, n, monkeypatch):
    asked = computed_stretches(monkeypatch, "_term_values")
    ctx = OctSequenceContext(params)
    lhs, rhs = ctx.shift_formula(n, 5)
    assert lhs == rhs
    assert min(lo for lo, _ in asked) == n and sum(hi - lo for lo, hi in asked) <= 13
    expected = list(islice(terms(params, start=n), 40))
    # growing up, the line steps on from its last three terms without a jump,
    # and it starts at n: reading below n would need one
    monkeypatch.setattr(_CubicQuotient, "xpow", None)
    assert ctx.oct_term(n + 32).components == tuple(expected[32:40])
    assert ctx.line(n, n + 40) == expected


def test_the_line_reader_reads_any_stretch():
    params = preset_lookup("tribonacci")
    x = list(islice(terms(params), 60))
    ctx = OctSequenceContext(params)
    # a term line of fewer than three values grows by jumping, then by stepping
    assert ctx.line(40, 40) == []
    assert ctx.line(40, 41) == x[40:41]
    assert ctx.line(41, 43) == x[41:43]
    assert ctx.line(30, 60) == x[30:60]
    assert ctx.line(5, 9, (1, 2, 3)) == [x[k + 2] + 2 * x[k + 1] + 3 * x[k] for k in range(5, 9)]
    with pytest.raises(ValueError):
        ctx.line(9, 8)
    with pytest.raises(ValueError):
        ctx.line(-1, 3)


def test_a_line_computes_each_index_once_and_survives_a_failed_extension():
    ctx = ctx_for("tribonacci")
    asked = []

    def values(lo, hi):
        asked.append((lo, hi))
        if hi > 100:
            raise OverflowError
        return list(range(lo, hi))

    with pytest.raises(OverflowError):
        ctx._span("k", 200, 4, values)
    assert "k" not in ctx._lines
    assert ctx._span("k", 10, 4, values) == [10, 11, 12, 13]
    with pytest.raises(OverflowError):
        ctx._span("k", 98, 4, values)
    assert ctx._lines["k"] == [10, [10, 11, 12, 13]]
    # a request past both ends extends the line up, then down
    assert ctx._span("k", 5, 20, values) == list(range(5, 25))
    assert ctx._span("k", 7, 2, values) == [7, 8]
    assert asked == [(200, 204), (10, 14), (14, 102), (14, 25), (5, 10)]
    with pytest.raises(ValueError):
        ctx._span("k", -1, 4, values)
