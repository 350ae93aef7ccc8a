"""The verification suite: grids, skips, negative controls, determinism."""

import operator
import random
import sys
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

    def tampered(params, m):
        w = list(weights(params, m))
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


class _OneBadIndex:
    """Lines for _lifted_verdicts: the term line 0, 1, 2, ..., and a weights' line
    that equals the term line from m except at index bad."""

    def __init__(self, m, bad):
        self.m, self.bad = m, bad

    def line(self, lo, hi, weights=None):
        if weights is None:
            return list(range(lo, hi))
        return [k + self.m + (k == self.bad) for k in range(lo, hi)]


@pytest.mark.parametrize("bad", [0, 3, 7, 8, 15, 19])
def test_a_bad_index_fails_the_eight_lifts_that_read_it(bad):
    verdicts = verify._lifted_verdicts(_OneBadIndex(5, bad), 5, (1, 1, 1), 13)
    assert verdicts == [not n <= bad <= n + 7 for n in range(13)]


# coefficients are often 0, so that some families have runs of zero terms:
# a tampered weight there fails at some n and passes at others
_coefficient = st.one_of(st.just(0), st.integers(-5, 5))
_small_params = st.builds(RecurrenceParams, *[_coefficient] * 3, *[st.integers(-3, 3)] * 3)


@given(
    _small_params,
    st.booleans(),
    st.integers(3, 14),
    st.integers(3, 9),
    st.one_of(st.none(), st.tuples(st.integers(3, 9), st.integers(0, 2), st.sampled_from([-1, 1, 2]))),
)
@settings(max_examples=100, deadline=None)
def test_line_verdicts_match_the_octonion_pairs(params, rational, n_max, m_max, tamper):
    if rational:
        params = RecurrenceParams(*(Fraction(f, 3) for f in params.fields()))
    with pytest.MonkeyPatch.context() as mp:
        if tamper:
            mp.setattr(octseq, "_expansion_weights", _tampered_weights(*tamper))
            m_max = max(m_max, tamper[0])
        ctx, pairs = OctSequenceContext(params), OctSequenceContext(params)
        for m in range(3, m_max + 1):
            verdicts = verify._lifted_verdicts(ctx, m, ctx.shift_coefficients(m), n_max + 1)
            assert verdicts == [operator.eq(*pairs.shift_formula(n, m)) for n in range(n_max + 1)]
        # the recurrence at n is the shift by 3 at n - 1
        verdicts = verify._lifted_verdicts(ctx, 3, ctx.shift_coefficients(3), n_max)
        assert verdicts == [operator.eq(*pairs.recurrence_check(n)) for n in range(1, n_max + 1)]


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


class _OneBadValue:
    """A context for _companion_verdicts and _sum_verdicts (by default on r = 2, s = t = 1,
    seeds (1, 1, 1)) whose term line is one too large at index bad; its
    combination lines are computed from that line, its correction from the
    true terms."""

    def __init__(self, bad, params=RecurrenceParams(2, 1, 1, 1, 1, 1)):
        self.params = params
        self.correction = OctSequenceContext(self.params).correction
        self.x = list(islice(terms(self.params), 40))
        self.x[bad] += 1

    def line(self, lo, hi, weights=None):
        if weights is None:
            return self.x[lo:hi]
        a, b, c = weights
        return [a * self.x[k + 2] + b * self.x[k + 1] + c * self.x[k] for k in range(lo, hi)]


@pytest.mark.parametrize("bad", [0, 3, 7, 12, 20])
def test_a_bad_value_fails_the_sum_and_companion_checks_that_read_it(bad):
    # here t != delta and 1 - r != 0, so every weight that reads a term is nonzero
    ctx = _OneBadValue(bad)
    u = list(islice(terms(ctx.params, companion=True), 24))
    # the companion check at n reads term(n + 1) and U(n - 2) .. U(n)
    assert verify._companion_verdicts(ctx, u) == [n + 1 != bad for n in range(2, 24)]
    u[bad] += 1
    assert verify._companion_verdicts(OctSequenceContext(ctx.params), u) == [
        not n - 2 <= bad <= n for n in range(2, 24)
    ]
    # the scalar sum at n reads the terms up to n + 2, the lifted one up to n + 9
    p = ctx.params
    form = ((1, 1 - p.r, p.t), 0, p.delta)
    assert verify._sum_verdicts(ctx, form, (sequences.sum_constant(p, p.s),), 24) == [
        n < bad - 2 for n in range(24)
    ]
    assert verify._sum_verdicts(ctx, form, ctx.correction, 24) == [n < bad - 9 for n in range(24)]
    # row n of a tabulated form reads comb(n + off + l), at three indices, and x(l) .. x(n + l)
    for name in PRESET_NAMES:
        ctx = _OneBadValue(bad, preset_lookup(name))
        weights, off, d = form = verify.REFERENCE_SUM_FORMS[name]
        constant = tuple(-c for c in verify.REFERENCE_SUM_CONSTANTS[name])

        def reads(n, l):
            lhs = sum(w for w, k in zip(weights, range(n + off + l + 2, n + off + l - 1, -1)) if k == bad)
            return lhs != d * (l <= bad <= n + l)

        assert verify._sum_verdicts(ctx, form, constant, 24) == [
            not any(reads(n, l) for l in range(8)) for n in range(24)
        ]


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
)
@example(RecurrenceParams(1, 1, -1, 0, 1, 1), False, 6, 0, "padovan", 0)
@example(RecurrenceParams(0, 0, 1, 0, 0, 0), True, 6, 1, "tribonacci", 7)
@settings(max_examples=100, deadline=None)
def test_sum_and_companion_verdicts_match_their_pairs(params, rational, n_max, bump, preset, slot):
    if rational:
        params = RecurrenceParams(*(Fraction(f, 3) for f in params.fields()))
    with pytest.MonkeyPatch.context() as mp:
        _bumped_sum_constant(mp, bump)
        ctx, pairs = OctSequenceContext(params), OctSequenceContext(params)
        u = list(islice(terms(params, companion=True), n_max + 1))
        assert verify._companion_verdicts(ctx, u) == [
            operator.eq(*companion_identity(params, n)) for n in range(2, n_max + 1)
        ]
        # the sum checks are skipped at delta = 0, where the closed forms are undefined
        if params.delta != 0:
            form = ((1, 1 - params.r, params.t), 0, params.delta)
            scalar = verify._sum_verdicts(ctx, form, (verify.sum_constant(params, params.s),), n_max + 1)
            sums = [partial_sum_formula(params, n) == prefix_sum(params, n) for n in range(n_max + 1)]
            assert scalar == sums
            assert verify._sum_verdicts(ctx, form, ctx.correction, n_max + 1) == [
                pairs.sum_octonions(n) == pairs.oct_prefix_sum(n) for n in range(n_max + 1)
            ]
        # the sign note counts the sets on which the misprinted constant fails at some n <= n_cap
        n_cap = min(n_max, 10)
        sets = [p for p in (params, verify._SIGN_WITNESS) if p.delta != 0]
        bad = sum(
            any(partial_sum_formula_uncorrected(p, n) != prefix_sum(p, n) for n in range(n_cap + 1))
            for p in sets
        )
        # decided on the context the checks above read, as run_suite does
        fails = [verify._misprint_fails(ctx, n_cap + 1)] if params.delta != 0 else []
        assert verify._sign_erratum_note(fails, n_cap + 1) == _sign_erratum(bad, len(sets))
    # a tabulated form, its constant tampered by bump at slot
    ctx, pairs = OctSequenceContext(preset_lookup(preset)), OctSequenceContext(preset_lookup(preset))
    tampered = list(verify.REFERENCE_SUM_CONSTANTS[preset])
    tampered[slot] += bump
    constant = Octonion(tuple(Fraction(c) for c in tampered))
    form = verify.REFERENCE_SUM_FORMS[preset]
    assert verify._sum_verdicts(ctx, form, (-constant).components, n_max + 1) == [
        _SUM_ROWS[preset](pairs, n, constant) == pairs.oct_prefix_sum(n) for n in range(n_max + 1)
    ]


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
    """A context whose term line reads one too large at index bad; the combination
    lines, the lifts and the numerator are computed from what it reads."""

    def __init__(self, params, bad):
        super().__init__(params)
        self.bad = bad

    def line(self, lo, hi, weights=None):
        values = super().line(lo, hi, weights)
        return values if weights else [x + (k == self.bad) for k, x in enumerate(values, lo)]


@pytest.mark.parametrize("bad", [10, 11, 17, 30, 45, 49, 56])
def test_a_bad_term_fails_the_genfunc_checks_that_read_it(bad):
    # terms 0 .. 9 feed the numerator too; a later term is read only by the
    # checks of O(bad - 7) .. O(bad), one slot each
    for params in (preset_lookup("tribonacci"), RecurrenceParams(2, -1, 3, 1, 0, -2)):
        verdicts = verify._genfunc_verdicts(_BadTermLine(params, bad), 50)
        assert verdicts == [not n <= bad <= n + 7 for n in range(50)]
        assert verify._genfunc_verdicts(OctSequenceContext(params), 50) == [True] * 50


@given(_small_params, st.booleans(), st.integers(1, 50), st.one_of(st.none(), st.integers(0, 57)))
@example(RecurrenceParams(0, 0, 0, 0, 0, 0), False, 1, None)
@example(RecurrenceParams(1, 1, 1, 0, 1, 1), True, 50, 3)
@settings(max_examples=100, deadline=None)
def test_genfunc_verdicts_match_their_pairs(params, rational, count, bad):
    if rational:
        params = RecurrenceParams(*(Fraction(f, 3) for f in params.fields()))
    ctx = OctSequenceContext(params) if bad is None else _BadTermLine(params, bad)
    pairs = OctSequenceContext(params) if bad is None else _BadTermLine(params, bad)
    expanded = gf_expand(build_gf(pairs), count)
    assert verify._genfunc_verdicts(ctx, count) == [expanded[n] == pairs.oct_term(n) for n in range(count)]
