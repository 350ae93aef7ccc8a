"""The verification suite: grids, skips, negative controls, determinism."""

import json
import operator
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trioct import (
    CATEGORIES,
    PRESET_NAMES,
    Octonion,
    OctSequenceContext,
    RecurrenceParams,
    SuiteConfig,
    VariantError,
    VerificationReport,
    build_gf,
    gf_expand,
    preset_lookup,
    run_suite,
)
from trioct import octseq, sequences, verify
from trioct.sequences import (
    companion_identity,
    partial_sum_formula,
    partial_sum_formula_uncorrected,
    prefix_sum,
    terms,
)
from trioct.verify import EXACT_CATEGORIES, NUMERIC_CATEGORIES


@pytest.fixture(scope="module")
def default_report() -> VerificationReport:
    return run_suite(SuiteConfig(n_max=40, m_max=20))


def test_default_suite_is_clean(default_report):
    assert default_report.total_failures == 0
    for name in CATEGORIES:
        category = default_report.categories[name]
        assert category.run > 0
        assert category.failed == 0


def test_exact_categories_have_zero_residual(default_report):
    for name in EXACT_CATEGORIES:
        assert default_report.categories[name].max_rel_residual == 0.0


def test_numeric_categories_within_tolerance(default_report):
    for name in NUMERIC_CATEGORIES:
        category = default_report.categories[name]
        assert 0.0 < category.max_rel_residual < 1e-10


def test_errata_notes(default_report):
    assert len(default_report.errata) == 2
    sign_note, genfunc_note = default_report.errata
    assert "(r-s-1)*v0" in sign_note
    assert "fails on" in sign_note
    assert not sign_note.startswith("summation-constant sign: the (r-s-1)*v0 variant fails on 0 ")
    assert "third_order_jacobsthal" in genfunc_note
    assert "1 + x + 2x^2" in genfunc_note


def test_report_json_schema(default_report):
    data = default_report.to_json_dict()
    assert set(data) == {"categories", "errata", "seed"}
    assert set(data["categories"]) == set(CATEGORIES)
    for entry in data["categories"].values():
        assert set(entry) == {"run", "failed", "skipped", "max_rel_residual"}
    assert data["seed"] == 0


def test_determinism_byte_identical():
    config = SuiteConfig(n_max=40, m_max=20, random_sets=10, seed=3)
    assert run_suite(config).to_json() == run_suite(config).to_json()


def test_tampered_sum_constant_fails():
    config = SuiteConfig(
        n_max=10,
        m_max=3,
        sum_constants_override={"tribonacci": (1, 1, 3, 5, 9, 17, 31, 58)},
    )
    report = run_suite(config)
    assert report.categories["sum_table"].failed >= 1
    # every other category is untouched by the tampering
    others = [c for name, c in report.categories.items() if name != "sum_table"]
    assert all(c.failed == 0 for c in others)


def test_tampered_genfunc_slot_fails_with_zero_residual(monkeypatch):
    tribonacci = list(verify.REFERENCE_GENFUNC_TABLE["tribonacci"])
    tribonacci[0] = (0, 2)
    monkeypatch.setitem(verify.REFERENCE_GENFUNC_TABLE, "tribonacci", tuple(tribonacci))
    table = run_suite(SuiteConfig(n_max=5, m_max=3)).categories["genfunc_table"]
    # a coefficient tuple has no residual: the failure is counted at residual 0
    assert (table.run, table.failed, table.max_rel_residual) == (32, 1, 0.0)


def test_listed_misprint_must_differ_from_the_table(monkeypatch):
    # the listed slot tabulated as the computed value: the listing no longer holds
    jacobsthal = list(verify.REFERENCE_GENFUNC_TABLE["third_order_jacobsthal"])
    jacobsthal[2] = verify.GENFUNC_MISPRINTS["third_order_jacobsthal", 2]
    monkeypatch.setitem(verify.REFERENCE_GENFUNC_TABLE, "third_order_jacobsthal", tuple(jacobsthal))
    table = run_suite(SuiteConfig(n_max=5, m_max=3)).categories["genfunc_table"]
    assert (table.run, table.failed) == (32, 1)


def test_randomized_sets_pass_exact_categories():
    report = run_suite(SuiteConfig(n_max=12, m_max=6, random_sets=40, seed=1))
    for name in EXACT_CATEGORIES:
        assert report.categories[name].failed == 0
    # randomized sets have no tabulated rows and no stated numeric contract
    assert report.categories["genfunc_table"].skipped >= 1
    for name in NUMERIC_CATEGORIES:
        assert report.categories[name].skipped == 40


def test_delta_zero_sets_are_skipped_not_failed():
    config = SuiteConfig(
        n_max=8,
        m_max=4,
        extra_params=(RecurrenceParams(1, 1, -1, 0, 1, 1),),
    )
    report = run_suite(config)
    assert report.categories["scalar_sum"].skipped == 1
    assert report.categories["octonion_sum"].skipped == 1
    assert report.total_failures == 0


def test_nonpositive_discriminant_sets_are_skipped():
    config = SuiteConfig(
        n_max=8,
        m_max=4,
        presets=("tribonacci",),
        extra_params=(RecurrenceParams(0, 3, 0, 0, 1, 1),),
    )
    report = run_suite(config)
    for name in NUMERIC_CATEGORIES:
        assert report.categories[name].skipped == 1
        assert report.categories[name].failed == 0


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(n_max=2)
    with pytest.raises(ValueError):
        SuiteConfig(m_max=1)
    with pytest.raises(ValueError):
        SuiteConfig(random_sets=-1)
    with pytest.raises(ValueError):
        SuiteConfig(presets=("fibonacci",))
    with pytest.raises(ValueError):
        SuiteConfig(tolerances={"recurrence": 1e-6})
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SuiteConfig(tolerances={"binet_scalar": tol})
    with pytest.raises(ValueError):
        SuiteConfig(sum_constants_override={"tribonacci": (1, 2)})
    # an override is exact: a float, a string or a complex component is rejected up front
    head = (1, 1, 3, 5, 9, 17, 31)
    for comps in (head + (57.0000000001,), tuple(map(str, head + (57,))), head + (57 + 0j,)):
        with pytest.raises(VariantError):
            SuiteConfig(sum_constants_override={"tribonacci": comps})
    exact = SuiteConfig(sum_constants_override={"tribonacci": head + (Fraction(57),)})
    assert exact.sum_constant("tribonacci") == head + (57,)
    # every index the checks read must be an index; at n_max = 40 the shifts read m_max + 47
    with pytest.raises(ValueError, match=str(sys.maxsize)):
        SuiteConfig(n_max=10**20)
    with pytest.raises(ValueError, match=str(sys.maxsize)):
        SuiteConfig(m_max=sys.maxsize - 46)
    assert SuiteConfig(m_max=sys.maxsize - 47).deepest == sys.maxsize


def test_tolerance_override_applies():
    # an absurdly tight tolerance turns rounding noise into failures
    report = run_suite(SuiteConfig(n_max=10, m_max=3, tolerances={"binet_octonion": 1e-18}))
    assert report.categories["binet_octonion"].failed >= 1


def test_text_report_mentions_result():
    report = run_suite(SuiteConfig(n_max=5, m_max=3))
    text = report.to_text()
    assert "result: PASS" in text
    assert "seed: 0" in text


# (run, failed, skipped) per category, in CATEGORIES order
_DEFAULT_COUNTS = (
    (160, 0, 0), (156, 0, 0), (164, 0, 0), (164, 0, 0), (32, 0, 0), (164, 0, 0),
    (168, 0, 0), (3168, 0, 0), (328, 0, 0), (164, 0, 0), (104, 0, 0), (372, 0, 0),
)
_GENFUNC_ERRATUM = (
    "generating-function table: third_order_jacobsthal slot e2 is tabulated as "
    "1 + x + x^2 but computes to 1 + x + 2x^2; the computed coefficients are authoritative"
)


def _sign_erratum(bad, total):
    return (
        f"summation-constant sign: the (r-s-1)*v0 variant fails on {bad} of {total} "
        "delta!=0 parameter sets (witness r=1 s=1 t=1 v0=1 v1=0 v2=0, n=0); "
        "the verified (r+s-1)*v0 form is used throughout"
    )


_PINNED = {
    "default": (
        SuiteConfig(),
        _DEFAULT_COUNTS,
        {},
        (1, 5),
    ),
    "random": (
        SuiteConfig(random_sets=30, seed=4),
        (
            (1360, 0, 0), (1326, 0, 0), (1312, 0, 2), (1312, 0, 2), (32, 0, 30), (1394, 0, 0),
            (168, 0, 30), (25308, 0, 0), (328, 0, 30), (164, 0, 30), (104, 0, 30), (372, 0, 30),
        ),
        {},
        (23, 33),
    ),
    "tampered": (
        SuiteConfig(
            sum_constants_override={
                "tribonacci": (1, 1, 3, 5, 9, 17, 31, 58),
                "padovan": (1, 1, 2, 2, 3, 4, 5, 8),
            },
            tolerances={name: 1e-18 for name in NUMERIC_CATEGORIES},
        ),
        _DEFAULT_COUNTS[:6]
        + ((168, 84, 0), (3168, 0, 0), (328, 308, 0), (164, 164, 0), (104, 104, 0), (372, 372, 0)),
        {"sum_table": 0.5},
        (1, 5),
    ),
    # the sign note's n_cap = 3 and the narrowest windows
    "smallest": (
        SuiteConfig(n_max=3, m_max=3, random_sets=10, seed=7),
        (
            (42, 0, 0), (28, 0, 0), (56, 0, 0), (56, 0, 0), (32, 0, 10), (56, 0, 0),
            (20, 0, 10), (68, 0, 0), (32, 0, 10), (16, 0, 10), (16, 0, 10), (48, 0, 10),
        ),
        {},
        (7, 15),
    ),
    # rational families only, one at delta = 0: no tabulated rows, no root-based forms
    "rational": (
        SuiteConfig(
            presets=(),
            extra_params=(
                RecurrenceParams(*map(Fraction, ("1/2", "2/3", "1/6", "1/3", "-2", "5/7"))),
                RecurrenceParams(*(Fraction(f, 3) for f in (1, 1, 1, 0, 1, 1))),
                RecurrenceParams(*(Fraction(f, 3) for f in (2, -1, 3, 1, 0, -2))),
            ),
        ),
        (
            (120, 0, 0), (117, 0, 0), (82, 0, 1), (82, 0, 1), (0, 0, 3), (123, 0, 0),
            (0, 0, 3), (2214, 0, 0), (0, 0, 3), (0, 0, 3), (0, 0, 3), (0, 0, 3),
        ),
        {},
        (3, 3),
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_report_is_pinned(name):
    # a change to how the identities are computed must leave the counts, the
    # exact residuals and the errata as they are; the numeric categories'
    # float residuals are left out so that the pin does not depend on libm
    config, counts, residuals, (bad, total) = _PINNED[name]
    report = run_suite(config)
    got = tuple((c.run, c.failed, c.skipped) for c in report.categories.values())
    assert dict(zip(CATEGORIES, got)) == dict(zip(CATEGORIES, counts))
    for category in EXACT_CATEGORIES:
        assert report.categories[category].max_rel_residual == residuals.get(category, 0.0)
    assert report.errata == [_sign_erratum(bad, total), _GENFUNC_ERRATUM]


def _tampered_weights(at, slot=0, bump=1):
    """octseq's shift weights with bump added to weight slot at m = at (m = 3 holds the recurrence's)."""
    weights = octseq._expansion_weights

    def tampered(params, m, *companion):
        w = list(weights(params, m, *companion))
        if m == at:
            w[slot] += bump
        return tuple(w)

    return tampered


# (run, failed, max_rel_residual) of the lifted identities under a tampered
# weight, as every (n, m) gives them when its octonion pair is built and compared
_TAMPERED = {
    7: {"recurrence": (360, 0, 0.0), "shift_formula": (6858, 373, 1 / 3)},
    3: {"recurrence": (360, 360, 6.113649856392275), "shift_formula": (6858, 373, 10.068692206076618)},
}


@pytest.mark.parametrize("at", sorted(_TAMPERED))
def test_a_tampered_weight_fails_with_its_residual(monkeypatch, at):
    monkeypatch.setattr(octseq, "_expansion_weights", _tampered_weights(at))
    report = run_suite(SuiteConfig(random_sets=5, seed=3))
    expected = _TAMPERED[at]
    got = {name: (c.run, c.failed, c.max_rel_residual) for name, c in report.categories.items()}
    assert {name: got[name] for name in expected} == expected
    # the weights feed only the lifted identities
    assert report.total_failures == sum(failed for _, failed, _ in expected.values())


def _exact_counts(ctx, config, preset=None):
    """(run, failed) of each exact category that _checks decides for one family, as run_suite records them."""
    counts = {}
    for name, checks in verify._checks(preset, ctx, config):
        if name in EXACT_CATEGORIES and checks is not None:
            passed, pairs = checks
            equal = [lhs == rhs for lhs, rhs in pairs]
            counts[name] = (passed + len(equal), equal.count(False))
    return counts


def _packing(ctx, config, preset=None):
    """The packing _checks makes for one family on config."""
    u = list(islice(terms(ctx.params, companion=True), config.n_max + 1))
    return verify._packing(preset, ctx, config, u)


class _BadStep(OctSequenceContext):
    """A context whose term line breaks the recurrence at one step: x(bad + 3) is one too
    large and the line steps on from there, so the companion terms U(k - bad - 2) are
    added from index bad + 3 on; the lifts and the combinations read that line."""

    def __init__(self, params, bad):
        super().__init__(params)
        self.bad = bad
        self.u = list(islice(terms(params, companion=True), 200))

    def line(self, lo, hi):
        return [x + self.u[max(k - self.bad - 2, 0)] for k, x in enumerate(super().line(lo, hi), lo)]


@pytest.mark.parametrize("bad", [0, 3, 7, 8, 15, 19])
def test_a_bad_index_fails_the_eight_lifts_that_read_it(bad):
    # the lift by m at n reads the steps n .. n + m + 4 of the recurrence, so a bad
    # step fails the eight recurrence lifts n = bad - 7 .. bad; tribonacci's shift
    # weights and companion terms are all positive, so that nothing cancels
    config = SuiteConfig(n_max=14, m_max=9)
    counts = _exact_counts(_BadStep(preset_lookup("tribonacci"), bad), config)
    assert counts["recurrence"] == (14, sum(n <= bad <= n + 7 for n in range(14)))
    failing = sum(n <= bad <= n + m + 4 for m in range(3, 10) for n in range(15))
    assert counts["shift_formula"] == (7 * 15, failing)


# coefficients are often 0, so that some families have runs of zero terms:
# a tampered weight there fails at some n and passes at others
_coefficient = st.one_of(st.just(0), st.integers(-5, 5))
_small_params = st.builds(RecurrenceParams, *[_coefficient] * 3, *[st.integers(-3, 3)] * 3)
# a shift weight bumped at (m, slot), or a term one too large, or neither
_tamper = st.one_of(
    st.none(),
    st.tuples(st.just("weight"), st.integers(3, 9), st.integers(0, 2), st.sampled_from([-1, 1, 2])),
    st.tuples(st.just("term"), st.integers(0, 40)),
)


def _tampered_terms(bad, stream=sequences.terms):
    """sequences.terms with term bad one too large, at any start; the companion terms as they are."""

    def tampered(params, companion=False, start=0):
        values = stream(params, companion, start)
        return values if companion else (x + (k == bad) for k, x in enumerate(values, start))

    return tampered


def _contexts(mp, params, tamper):
    """Two contexts on params under tamper: one to decide on, one to build the pairs on.

    A tampered term reads one too large on the contexts' lines and in sequences,
    whose functions build the companion and scalar-sum pairs.
    """
    if tamper and tamper[0] == "weight":
        mp.setattr(octseq, "_expansion_weights", _tampered_weights(*tamper[1:]))
    if tamper and tamper[0] == "term":
        mp.setattr(sequences, "terms", _tampered_terms(tamper[1]))
        return _BadTermLine(params, tamper[1]), _BadTermLine(params, tamper[1])
    return OctSequenceContext(params), OctSequenceContext(params)


def _twin(params, rational):
    return RecurrenceParams(*(Fraction(f, 3) for f in params.fields())) if rational else params


@given(_small_params, st.booleans(), st.integers(3, 14), st.integers(3, 9), _tamper)
@example(RecurrenceParams(1, 1, 1, 0, 1, 1), False, 14, 9, ("term", 12))
@example(RecurrenceParams(1, 0, 0, 0, 0, 1), True, 10, 5, ("weight", 5, 1, -1))
@settings(max_examples=100, deadline=None)
def test_line_verdicts_match_the_octonion_pairs(params, rational, n_max, m_max, tamper):
    # the packed decision holds exactly when every index's pair is equal
    params = _twin(params, rational)
    with pytest.MonkeyPatch.context() as mp:
        if tamper and tamper[0] == "weight":
            m_max = max(m_max, tamper[1])
        ctx, pairs = _contexts(mp, params, tamper)
        packing = _packing(ctx, SuiteConfig(n_max=n_max, m_max=m_max))
        for m in range(3, m_max + 1):
            holds = all(operator.eq(*pairs.shift_formula(n, m)) for n in range(n_max + 1))
            assert verify._lifted_holds(ctx, m, n_max + 1, packing) == holds
        # the recurrence at n is the shift by 3 at n - 1
        holds = all(operator.eq(*pairs.recurrence_check(n)) for n in range(1, n_max + 1))
        assert verify._lifted_holds(ctx, 3, n_max, packing) == holds


def _bumped_sum_constant(monkeypatch, bump):
    """sum_constant plus bump, in every module that binds it."""
    constant = sequences.sum_constant
    for module in (sequences, octseq, verify):
        monkeypatch.setattr(module, "sum_constant", lambda params, s: constant(params, s) + bump)


# (run, failed, skipped, max_rel_residual) under a sum constant one too large,
# as every n gives them when its pair is built and compared
_BUMPED = {
    "companion_identity": (351, 0, 0, 0.0),
    "scalar_sum": (369, 369, 0, 1.0),
    "octonion_sum": (369, 369, 0, 1.0),
    "sum_table": (168, 4, 5, 1.0),
}


def test_a_tampered_sum_constant_fails_with_its_residual(monkeypatch):
    _bumped_sum_constant(monkeypatch, 1)
    report = run_suite(SuiteConfig(random_sets=5, seed=3))
    got = {name: (c.run, c.failed, c.skipped, c.max_rel_residual) for name, c in report.categories.items()}
    assert {name: got[name] for name in _BUMPED} == _BUMPED
    # the constant feeds only the closed-form sums and the tabulated sum rows
    assert report.total_failures == 742


@pytest.mark.parametrize("bad", [0, 3, 7, 12, 20])
def test_a_bad_value_fails_the_sum_and_companion_checks_that_read_it(monkeypatch, bad):
    # term bad one too large on the context's line and in sequences, the sum
    # correction from the true terms; on r = 2, s = t = 1, seeds (1, 1, 1),
    # t != delta and 1 - r != 0, so every weight that reads a term is nonzero
    ctx, _ = _contexts(monkeypatch, RecurrenceParams(2, 1, 1, 1, 1, 1), ("term", bad))
    counts = _exact_counts(ctx, SuiteConfig(n_max=23, m_max=3))
    # the companion check at n reads term(n + 1); the scalar sum at n reads the
    # terms up to n + 2, the lifted one up to n + 9
    assert counts["companion_identity"] == (22, sum(n + 1 == bad for n in range(2, 24)))
    assert counts["scalar_sum"] == (24, sum(bad <= n + 2 for n in range(24)))
    assert counts["octonion_sum"] == (24, sum(bad <= n + 9 for n in range(24)))
    # row n of a tabulated form reads comb(n + off + l), at three indices, and x(l) .. x(n + l);
    # its constant row reads no term
    for name in PRESET_NAMES:
        weights, off, d = verify.REFERENCE_SUM_FORMS[name]

        def reads(n, l):
            lhs = sum(w for w, k in zip(weights, range(n + off + l + 2, n + off + l - 1, -1)) if k == bad)
            return lhs != d * (l <= bad <= n + l)

        counts = _exact_counts(_BadTermLine(preset_lookup(name), bad), SuiteConfig(n_max=23, m_max=3), name)
        assert counts["sum_table"] == (25, sum(any(reads(n, l) for l in range(8)) for n in range(24)))


# the tabulated summation formulas written out as octonion rows: a reference independent of REFERENCE_SUM_FORMS
_SUM_ROWS = {
    "tribonacci": lambda ctx, n, c: (
        ctx.oct_term(n + 2).as_rational() + ctx.oct_term(n).as_rational() - c
    ) * Fraction(1, 2),
    "padovan": lambda ctx, n, c: ctx.oct_term(n + 5).as_rational() - c,
    "narayana": lambda ctx, n, c: ctx.oct_term(n + 3).as_rational() - c,
    "third_order_jacobsthal": lambda ctx, n, c: (
        ctx.oct_term(n + 2).as_rational()
        + ctx.oct_term(n).as_rational() * Fraction(2)
        - c
    ) * Fraction(1, 3),
}


@given(
    _small_params,
    st.booleans(),
    st.integers(3, 14),
    st.sampled_from([0, 0, 1, -2]),
    st.sampled_from(PRESET_NAMES),
    st.integers(0, 7),
    st.one_of(st.none(), st.tuples(st.just("term"), st.integers(0, 40))),
)
@example(RecurrenceParams(1, 1, -1, 0, 1, 1), False, 6, 0, "padovan", 0, None)
@example(RecurrenceParams(0, 0, 1, 0, 0, 0), True, 6, 1, "tribonacci", 7, None)
@example(RecurrenceParams(1, 0, 0, 0, 0, 1), False, 10, 1, "padovan", 7, ("term", 3))
@settings(max_examples=100, deadline=None)
def test_sum_and_companion_verdicts_match_their_pairs(params, rational, n_max, bump, preset, slot, tamper):
    # each packed decision holds exactly when every index's pair is equal, under a
    # sum constant bumped by bump, a tampered term and a tampered tabulated constant
    params = _twin(params, rational)
    config = SuiteConfig(n_max=n_max, m_max=3)
    with pytest.MonkeyPatch.context() as mp:
        _bumped_sum_constant(mp, bump)
        ctx, pairs = _contexts(mp, params, tamper)
        packing = _packing(ctx, config)
        holds = all(operator.eq(*companion_identity(params, n)) for n in range(2, n_max + 1))
        assert verify._companion_holds(ctx, config.deepest + 1, n_max - 1, packing) == holds
        # the sum checks are skipped at delta = 0, where the closed forms are undefined
        if params.delta != 0:
            form = ((1, 1 - params.r, params.t), 0, params.delta)
            constant = (verify.sum_constant(params, params.s),)
            holds = all(partial_sum_formula(params, n) == prefix_sum(params, n) for n in range(n_max + 1))
            assert verify._sum_holds(ctx, form, constant, n_max + 1, packing) == holds
            holds = all(pairs.sum_octonions(n) == pairs.oct_prefix_sum(n) for n in range(n_max + 1))
            assert verify._sum_holds(ctx, form, ctx.correction, n_max + 1, packing) == holds
        # the sign note: whether the misprinted constant fails at some n <= n_cap,
        # decided on the context the checks above read, as run_suite does
        n_cap, fails = min(n_max, 10), []
        if params.delta != 0:
            indices = range(n_cap + 1)
            fails = [any(partial_sum_formula_uncorrected(params, n) != prefix_sum(params, n) for n in indices)]
            assert [verify._misprint_fails(ctx, n_cap + 1)] == fails
        # the note adds its witness, on which the misprinted constant fails at n = 0
        assert verify._sign_erratum_note(fails, n_cap + 1) == _sign_erratum(sum(fails) + 1, len(fails) + 1)
        # a tabulated form, its constant tampered by bump at slot
        ctx, pairs = _contexts(mp, preset_lookup(preset), tamper)
        tampered = list(verify.REFERENCE_SUM_CONSTANTS[preset])
        tampered[slot] += bump
        constant = Octonion(tuple(Fraction(c) for c in tampered))
        rows = [_SUM_ROWS[preset](pairs, n, constant) for n in range(n_max + 1)]
        holds = rows == pairs.oct_prefix_sums(n_max)
        form, packing = verify.REFERENCE_SUM_FORMS[preset], _packing(ctx, config, preset)
        assert verify._sum_holds(ctx, form, (-constant).components, n_max + 1, packing) == holds


def test_the_sign_note_makes_no_jump(monkeypatch):
    # the note reads each family's first terms from a line stepped from the seeds
    calls = []
    xpow = sequences._CubicQuotient.xpow
    monkeypatch.setattr(sequences._CubicQuotient, "xpow", lambda ring, n: calls.append(n) or xpow(ring, n))
    rng = random.Random(1)
    cases = [(name, preset_lookup(name)) for name in PRESET_NAMES]
    cases += [(None, verify.make_random_params(rng)) for _ in range(200)]
    fails = [verify._misprint_fails(OctSequenceContext(p), 11) for _, p in cases if p.delta != 0]
    verify._sign_erratum_note(fails, 11)
    assert calls == []


def test_one_context_and_one_stream_per_family(monkeypatch):
    # the sign note reads the context the checks used; only its witness gets one of its own
    built, init = [], OctSequenceContext.__init__
    monkeypatch.setattr(OctSequenceContext, "__init__", lambda ctx, p: built.append(p) or init(ctx, p))
    # the companion terms are read once, by the companion check and the scalar Binet check alike
    streams, stream = [], verify.terms
    monkeypatch.setattr(verify, "terms", lambda *args, **kw: streams.append(args) or stream(*args, **kw))
    run_suite(SuiteConfig(random_sets=200, seed=1))
    assert len(built) == 4 + 200 + 1
    assert built[-1] == verify._SIGN_WITNESS
    assert len(streams) == 4 + 200


def test_passing_sum_checks_build_no_direct_sums(monkeypatch):
    # only a failing sum_table or octonion_sum check builds the octonion sums it is compared with
    built = []
    monkeypatch.setattr(OctSequenceContext, "oct_prefix_sums", lambda ctx, n: built.append(n))
    report = run_suite(SuiteConfig(random_sets=20))
    assert report.total_failures == 0 and report.categories["sum_table"].run == 168
    assert built == []


def _tampered_companion(at):
    """sequences.terms with the companion term U(at) one too large, at any start."""
    stream = sequences.terms

    def tampered(params, companion=False, start=0):
        values = stream(params, companion, start)
        return (u + (k == at) for k, u in enumerate(values, start)) if companion else values

    return tampered


# (run, failed, max_rel_residual) under a tampered U(at), as the parent's per-n
# pairs give them; the shift weights read U(m - 3) .. U(m - 1), m <= 20
_TAMPERED_COMPANION = {
    7: {
        "companion_identity": (195, 13, 0.021739130434782608),
        "shift_formula": (3690, 615, 7.715768324861217),
    },
    30: {"companion_identity": (195, 13, 4.0734933030081634e-10)},
}


@pytest.mark.parametrize("at", sorted(_TAMPERED_COMPANION))
def test_a_tampered_companion_term_fails_with_its_residual(monkeypatch, at):
    for module in (sequences, octseq, verify):
        monkeypatch.setattr(module, "terms", _tampered_companion(at))
    report = run_suite(SuiteConfig(presets=(), random_sets=5, seed=3))
    expected = _TAMPERED_COMPANION[at]
    got = {name: (c.run, c.failed, c.max_rel_residual) for name, c in report.categories.items()}
    assert {name: got[name] for name in expected} == expected
    assert report.total_failures == sum(failed for _, failed, _ in expected.values())


def test_the_binet_check_reads_the_companion_terms():
    # every preset's seeds are (0, 1, r), so its terms are its companion terms; on other
    # seeds the "u" half differs from the "v" half, and only the companion terms match it
    ctx = OctSequenceContext(RecurrenceParams(1, 1, 1, 2, -1, 3))
    checks = dict(verify._checks("tribonacci", ctx, SuiteConfig()))
    residuals = list(checks["binet_scalar"])
    assert len(residuals) == 2 * 41
    assert max(residuals) <= 1e-13


class _BadTermLine(OctSequenceContext):
    """A context whose term line reads one too large at index bad; the lifts, the
    combinations and the numerator are computed from what it reads."""

    def __init__(self, params, bad):
        super().__init__(params)
        self.bad = bad

    def line(self, lo, hi):
        return [x + (k == self.bad) for k, x in enumerate(super().line(lo, hi), lo)]


@pytest.mark.parametrize("bad", [10, 11, 17, 30, 45, 49, 56])
def test_a_bad_term_fails_the_genfunc_checks_that_read_it(bad):
    # terms 0 .. 9 feed the numerator too; a later term is read only by the
    # checks of O(bad - 7) .. O(bad), one slot each
    config = SuiteConfig(n_max=49, m_max=3)
    for params in (preset_lookup("tribonacci"), RecurrenceParams(2, -1, 3, 1, 0, -2)):
        counts = _exact_counts(_BadTermLine(params, bad), config)
        assert counts["genfunc_roundtrip"] == (50, sum(n <= bad <= n + 7 for n in range(50)))
        assert _exact_counts(OctSequenceContext(params), config)["genfunc_roundtrip"] == (50, 0)


@given(_small_params, st.booleans(), st.integers(1, 50), st.one_of(st.none(), st.integers(0, 57)))
@example(RecurrenceParams(0, 0, 0, 0, 0, 0), False, 1, None)
@example(RecurrenceParams(1, 1, 1, 0, 1, 1), True, 50, 3)
@settings(max_examples=100, deadline=None)
def test_genfunc_verdicts_match_their_pairs(params, rational, count, bad):
    # the packed series holds exactly when every coefficient equals its lift; a
    # rational family goes straight to the pairs
    params = _twin(params, rational)
    ctx = OctSequenceContext(params) if bad is None else _BadTermLine(params, bad)
    pairs = OctSequenceContext(params) if bad is None else _BadTermLine(params, bad)
    expanded = gf_expand(build_gf(pairs), count)
    holds = all(expanded[n] == pairs.oct_term(n) for n in range(count))
    packing = _packing(ctx, SuiteConfig(n_max=max(count - 1, 3)))
    assert verify._genfunc_holds(ctx, count, packing) == (holds and not rational)


def test_a_failing_check_past_double_range_is_recorded():
    # rows of the tampered tabulated sum past n = 1150 hold values past double range;
    # their residuals are taken in Fractions, and the report stays strict JSON
    config = SuiteConfig(
        presets=("tribonacci",),
        n_max=1200,
        m_max=3,
        sum_constants_override={"tribonacci": (1, 1, 3, 5, 9, 17, 31, 58)},
    )
    report = run_suite(config)
    result = report.categories["sum_table"]
    assert (result.run, result.failed, result.max_rel_residual) == (1202, 1202, 1 / 48)
    assert report.total_failures == 1202
    json.dumps(report.to_json_dict(), allow_nan=False)
    # a ratio past double range is recorded as the largest double
    assert verify._rel_residual(10**400, 1) == sys.float_info.max
    assert verify._rel_residual(Fraction(10**400, 3), 10**400) == 2 / 3


def test_slots_are_wide_enough_for_the_weights_they_are_packed_for():
    # B is the fewest whole bytes with 2^(B-1) > weight*max|x|; the relation
    # a*L2 - a*L0 + w*L20 == 0 holds on this line, L20 being a window of zeros
    line = [1, -1] * 10 + [0] * 10
    holds = lambda a, w: ((a, 2), (-a, 0), (w, 20))
    packing = verify._Packed(line, 127)
    assert packing.bits == 8
    assert packing.zero(holds(63, 1), 5)  # its slots reach 127 * max|x| = 2^(B-1) - 1
    assert not packing.zero(holds(63, 2), 5)  # 128 = 2^(B-1): past the bound, so the caller falls back
    assert not packing.zero(((63, 2), (-62, 0), (1, 20)), 5)  # a relation that fails
    packing = verify._Packed(line, 128)
    assert packing.bits == 16 and packing.zero(holds(63, 2), 5)
    # terms at +-(2^(B-1) - 1) read back exactly; the next value needs a wider slot
    edge = [127, -127, 0, -127, 127]
    packing = verify._Packed(edge, 1)
    assert packing.bits == 8
    assert packing.window(0, 5) == sum(x << 8 * k for k, x in enumerate(edge))
    assert packing.window(1, 3) == -127 - (127 << 16)
    assert verify._Packed([128, -128], 1).bits == 16
    # a rational line is scaled by the lcm of its denominators, and the weights
    # of each relation by the lcm of theirs, before the same rule applies
    packing = verify._Packed([Fraction(x, 3) for x in line], 127, rational=True)
    assert packing.bits == 8 and packing.window(0, 2) == 1 - (1 << 8)
    half = Fraction(1, 2)
    assert packing.zero(holds(63 * half, half), 5)  # scaled by 2: 63, -63 and 1
    assert not packing.zero(holds(63 * half, 1), 5)  # scaled by 2: 63, -63 and 2, past the bound
    assert not packing.zero(((63 * half, 2), (-31, 0), (half, 20)), 5)
    packing = verify._Packed([Fraction(1, 2), Fraction(-1, 3), 1], 1, rational=True)
    assert packing.bits == 8 and packing.window(0, 3) == 3 - (2 << 8) + (6 << 16)
    assert verify._Packed([Fraction(128, 5), Fraction(-1, 5)], 1, rational=True).bits == 16


def test_integer_families_are_decided_on_packed_windows(monkeypatch):
    # a test that fails builds every index's pair, so a test that fails on working
    # code keeps every result right and loses the speed: on passing families every
    # test holds, but a rational family's expansion, which goes to its pairs
    calls, failing = Counter(), []

    def watched(name):
        holds = getattr(verify, name)

        def call(*args):
            result = holds(*args)
            # the sign note's misprinted constant, which fails by design, brings no packing
            if isinstance(args[-1], verify._Packed):
                calls[name] += 1
                failing.extend([name] * (not result))
            return result

        return call

    for name in ("_lifted_holds", "_companion_holds", "_sum_holds", "_genfunc_holds"):
        monkeypatch.setattr(verify, name, watched(name))
    rational = (
        RecurrenceParams(*(Fraction(f, 3) for f in (1, 1, 1, 0, 1, 1))),
        RecurrenceParams(*map(Fraction, ("1/2", "2/3", "1/6", "1/3", "-2", "5/7"))),
    )
    report = run_suite(SuiteConfig(random_sets=200, seed=1, extra_params=rational))
    assert report.total_failures == 0
    summable = report.categories["scalar_sum"].run // 41
    assert calls == {
        "_lifted_holds": 206 * 19,
        "_companion_holds": 206,
        "_sum_holds": 2 * summable + 4,
        "_genfunc_holds": 206,
    }
    assert failing == ["_genfunc_holds"] * 2
