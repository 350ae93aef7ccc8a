"""Recurrence families, presets, and the scalar identities."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate, islice
from pathlib import Path

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
from trioct.sequences import MAX_TERM_BITS, PRESETS, _CubicQuotient, sums, terms

SRC = Path(__file__).resolve().parent.parent / "src"

RATIONAL_FAMILY = RecurrenceParams(*map(Fraction, ("1/2", "2/3", "1/6", "1/3", "-2", "5/7")))

# the presets plus families the jump must handle like the walk: rational,
# delta = 0 (x^3 - x^2 - x + 1 = (x-1)^2 (x+1)), and a repeated root
# (x^3 - 3x - 2 = (x+1)^2 (x-2))
JUMP_FAMILIES = [
    *PRESETS.values(),
    RATIONAL_FAMILY,
    RecurrenceParams(1, 1, -1, 0, 1, 1),
    RecurrenceParams(0, 3, 2, 1, -1, 2),
]

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


@pytest.mark.parametrize("params", JUMP_FAMILIES)
@pytest.mark.parametrize("companion", [False, True])
def test_jump_matches_the_walk(params, companion):
    walk = list(islice(terms(params, companion), 200))
    jump = seq_term if not companion else u_term
    for n, want in enumerate(walk):
        got = jump(params, n)
        assert got == want and type(got) is type(want), (n, got, want)


@pytest.mark.parametrize("params", JUMP_FAMILIES)
def test_terms_from_a_start_index(params):
    for companion in (False, True):
        walk = list(islice(terms(params, companion), 3006 + 12))
        for k in [*range(41), *range(2995, 3006)]:
            assert list(islice(terms(params, companion, k), 12)) == walk[k : k + 12], (companion, k)


def test_terms_rejects_negative_start():
    with pytest.raises(ValueError):
        terms(preset_lookup("tribonacci"), start=-1)
    with pytest.raises(ValueError):
        terms(preset_lookup("tribonacci"), companion=True, start=-3)


# the running sums also hold at delta = 0 for a rational family, (x-1)(x^2 - x/2 - 1/2)
SUM_FAMILIES = [*JUMP_FAMILIES, RecurrenceParams(*map(Fraction, ("1/2", "1/2", "0", "2", "-1", "3")))]


@pytest.mark.parametrize("params", SUM_FAMILIES)
def test_sums_from_a_start_match_the_running_sums_from_zero(params):
    running = list(accumulate(islice(terms(params), 160), initial=0))
    for start in range(151):
        got = list(islice(sums(params, start), 10))
        assert got == running[start : start + 10], start
        assert all(type(x) is type(params.r) for x in got), start


def test_sums_rejects_negative_start():
    with pytest.raises(ValueError):
        sums(preset_lookup("tribonacci"), start=-1)


def test_one_jump_per_stream_and_per_table(monkeypatch):
    from trioct.cli import main

    jumps = []
    for name in ("xpow", "series"):
        original = getattr(_CubicQuotient, name)
        monkeypatch.setattr(
            _CubicQuotient, name, lambda self, n, name=name, f=original: jumps.append((name, n)) or f(self, n)
        )
    params = preset_lookup("tribonacci")
    running = list(accumulate(islice(terms(params), 5010), initial=0))
    for start in (0, 1, 2, 3, 5000):
        jumps.clear()
        assert list(islice(sums(params, start), 10)) == running[start : start + 10]
        assert jumps == [("series", start)]
    # below the fits bound a table jumps once, to its first row (sum: the
    # running sum past it), besides the sum table's head S(0) .. S(7)
    assert 5009 >> 1 <= params._ring.fits
    for command, expected in (("seq", ("xpow", 5000)), ("oct", ("xpow", 5000)), ("sum", ("series", 5001))):
        jumps.clear()
        assert main([command, "--preset", "tribonacci", "--n", "5000..5002"]) == 0
        assert [jump for jump in jumps if jump != ("series", 0)] == [expected], command
    assert jumps == [("series", 0), ("series", 5001)]


def test_one_quotient_ring_per_family(monkeypatch):
    from trioct.verify import SuiteConfig, run_suite

    built = []
    original = _CubicQuotient.__init__

    def counting(self, params):
        built.append(params)
        original(self, params)

    monkeypatch.setattr(_CubicQuotient, "__init__", counting)
    # fresh copies of the presets build their rings here, whatever earlier tests cached
    fresh = tuple(RecurrenceParams(*p.fields()) for p in PRESETS.values())
    run_suite(SuiteConfig(extra_params=fresh))
    rings = [sum(b is p for b in built) for p in (*PRESETS.values(), *fresh)]
    assert max(rings) == 1 and rings[len(PRESETS):] == [1] * len(fresh)
    # keyed on the object: an int family and its equal Fraction twin keep their own rings
    twin = RecurrenceParams(*map(Fraction, PRESETS["tribonacci"].fields()))
    assert twin == PRESETS["tribonacci"]
    assert type(next(terms(twin, start=5))) is Fraction
    assert type(next(terms(PRESETS["tribonacci"], start=5))) is int


def test_jump_admits_tribonacci_at_three_hundred_thousand():
    params = preset_lookup("tribonacci")
    window = list(islice(terms(params, start=299_997), 4))
    assert window[3] == window[2] + window[1] + window[0] == seq_term(params, 300_000)
    assert window[3].bit_length() == 263_743  # 79,395 digits
    assert window[3].bit_length() < MAX_TERM_BITS


# r, s, t pairwise distinct, so a product folded with the wrong coefficient
# shows (tribonacci and padovan have s == t)
DISTINCT_FAMILIES = [
    RecurrenceParams(2, -3, 5, 0, 1, 1),
    RecurrenceParams(0, 3, 2, 1, -1, 2),
    RATIONAL_FAMILY,
    RecurrenceParams(*map(Fraction, ("-7/4", "5/9", "3/10", "0", "1", "1"))),
]

int_coefficients = st.one_of(st.just(0), st.integers(-(10**40), 10**40))
rational_coefficients = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**9))
)


def _product_mod_f(params, a, b):
    # schoolbook product of two quadratics, then long division by
    # x^3 - r*x^2 - s*x - t from the top coefficient down
    prod = [0] * 5
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in (4, 3):
        top = prod.pop()
        prod[k - 1] += params.r * top
        prod[k - 2] += params.s * top
        prod[k - 3] += params.t * top
    return tuple(prod)


@pytest.mark.parametrize("params", DISTINCT_FAMILIES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_square_matches_product_then_reduce(params, data):
    ring = _CubicQuotient(params)
    kind = type(params.r)
    if kind is int:
        explicit = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (-3, 0, 7), (2, -5, -11)]
        coefficients = int_coefficients
    else:
        explicit = [
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(-1), Fraction(0)),
            (Fraction(1, 2), Fraction(-5, 3), Fraction(7, 10)),
            (Fraction(-9, 4), Fraction(0), Fraction(11, 6)),
        ]
        coefficients = rational_coefficients
    drawn = data.draw(st.tuples(coefficients, coefficients, coefficients))
    for c in [*explicit, drawn]:
        got = ring.square(c)
        assert got == _product_mod_f(params, c, c), c
        assert all(type(x) is kind for x in got), c


@pytest.mark.parametrize("params", DISTINCT_FAMILIES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mul_matches_product_then_reduce(params, data):
    ring = _CubicQuotient(params)
    kind = type(params.r)
    coefficients = int_coefficients if kind is int else rational_coefficients
    triple = st.tuples(coefficients, coefficients, coefficients)
    a, b = data.draw(triple), data.draw(triple)
    for x, y in ((a, b), (b, a), (a, ring.one), (ring.zero, b)):
        got = ring.mul(x, y)
        assert got == _product_mod_f(params, x, y), (x, y)
        assert all(type(c) is kind for c in got), (x, y)
    assert ring.mul(a, a) == ring.square(a)


def _run(code: str) -> subprocess.CompletedProcess:
    # in a subprocess with a timeout, so a regression to an O(n) walk fails in seconds
    return subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )


def test_deep_jump_past_the_cap_fails_fast():
    proc = _run(
        "from trioct import RegimeError, preset_lookup, seq_term, u_term\n"
        "for f in (seq_term, u_term):\n"
        "    try:\n"
        "        f(preset_lookup('tribonacci'), 10**12)\n"
        "    except RegimeError as exc:\n"
        "        print(exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert all("term 1000000000000 " in line and " digits" in line for line in lines)


def test_bounded_family_jumps_to_any_index():
    # x^3 = 1 mod f: the powers of x never grow, so no cap applies
    proc = _run(
        "from trioct import RecurrenceParams, seq_term, u_term\n"
        "p = RecurrenceParams(0, 0, 1, 4, 5, 6)\n"
        "print(seq_term(p, 10**12), seq_term(p, 10**12 + 2), u_term(p, 10**12))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5 4 1\n"


def test_size_cap_boundary_is_pinned():
    # the largest index that jumps and the smallest that raises, found by
    # bisection on the jump that measured its coefficients before every squaring
    proc = _run(
        "from fractions import Fraction\n"
        "from trioct import RecurrenceParams, RegimeError, preset_lookup\n"
        "from trioct.sequences import _CubicQuotient\n"
        "rational = RecurrenceParams(*map(Fraction, ('1/2', '2/3', '1/6', '1/3', '-2', '5/7')))\n"
        "for p, n in ((preset_lookup('tribonacci'), 1_137_471), (rational, 261_295)):\n"
        "    _CubicQuotient(p).xpow(n)\n"
        "    try:\n"
        "        _CubicQuotient(p).xpow(n + 1)\n"
        "    except RegimeError as exc:\n"
        "        print(exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"term {n} is past the size cap: the jump to it would build coefficients "
        "of about 301,030 digits, more than 301,029"
        for n in (1_137_472, 261_296)
    ]


def _measured_every_bit(params, n):
    # the size check run before every squaring: the bits it raises at, or None
    ring = _CubicQuotient(params)
    c = ring.one
    for bit in bin(n)[2:]:
        bits = 2 * max(x.numerator.bit_length() + x.denominator.bit_length() for x in c)
        if bits > MAX_TERM_BITS:
            return bits
        c = ring.square(c)
        if bit == "1":
            c = ring.shift(c)
    return None


@pytest.mark.parametrize(
    "params",
    [
        RecurrenceParams(2**50000, -3, 1, 0, 1, 1),
        RecurrenceParams(*(Fraction(1, 2**50000), *map(Fraction, (0, 0, 0, 1, 1)))),
    ],
)
def test_skipped_size_checks_would_have_passed(params):
    # huge coefficients put the cap within a few squarings
    raised = []
    for n in range(28):
        bits = _measured_every_bit(params, n)
        if bits is None:
            seq_term(params, n)
            continue
        with pytest.raises(RegimeError) as exc:
            seq_term(params, n)
        assert f"term {n} " in str(exc.value) and f" {int(bits * math.log10(2)):,} digits" in str(exc.value)
        raised.append(n)
    # both ways are covered: checks skipped (n >> 1 <= fits) and raises
    assert _CubicQuotient(params).fits >= 1 and raised


def _series_measures(params, top):
    # the bits the series check measures before each squaring when it holds
    # G = 1 + ... + x^(m-1) and P = x^m, for m = 0 .. top, built by shifting
    # and adding
    ring = _CubicQuotient(params)
    g, p, measured = ring.zero, ring.one, []
    for _ in range(top + 1):
        measured.append(2 * max(x.numerator.bit_length() + x.denominator.bit_length() for x in (*g, *p)))
        g, p = tuple(a + b for a, b in zip(g, p)), ring.shift(p)
    return measured


@pytest.mark.parametrize(
    "params, indices",
    [
        (RecurrenceParams(2**50000, -3, 1, 0, 1, 1), range(28)),
        # the rational products reduce ~10^5-digit gcds, so past the small
        # indices only the last below the cap (15), the first past it (16)
        # and the largest (27) run
        (RecurrenceParams(*(Fraction(1, 2**50000), *map(Fraction, (0, 0, 0, 1, 1)))), [*range(10), 15, 16, 27]),
    ],
)
def test_series_measures_before_every_squaring(params, indices):
    # huge coefficients put the cap within a few squarings; before each one
    # the series holds m = the bits of n read so far
    measured = _series_measures(params, max(indices) >> 1)
    raised = []
    for n in indices:
        digits = bin(n)[2:]
        over = [b for b in (measured[n >> (len(digits) - k)] for k in range(len(digits))) if b > MAX_TERM_BITS]
        if not over:
            _CubicQuotient(params).series(n)
            continue
        with pytest.raises(RegimeError) as exc:
            sums(params, n)
        assert f"term {n} " in str(exc.value) and f" {int(over[0] * math.log10(2)):,} digits" in str(exc.value)
        raised.append(n)
    # both ways are covered
    assert 0 < len(raised) < len(indices)
