"""Batch verification of every identity the library implements.

The suite runs each identity over a grid of parameter sets and indices and
aggregates pass/fail counts and worst residuals into a machine-readable
report.  Identities that hold term by term are compared with exact
equality (tolerance zero); root-based closed forms are compared against
the exact terms with per-category relative tolerances.  Parameter sets
that fall outside an identity's hypotheses (delta = 0 for the sum
formulas, a nonpositive discriminant for anything root-based) are counted
as skipped, not failed.

The scalar identities (the companion expansion, the closed-form prefix
sum), the lifted ones (the recurrence, the index shifts, the lifted and
tabulated prefix sums) and the generating function's expansion are
decided once per index on the context's scalar lines, every prefix-sum
form by _sum_verdicts and the expansion on its slot columns; only a
failing index builds its pair through the library function that states
the identity, so its residual is the one that function gives.  Each
root-based closed form is evaluated as one window of indices.

Aggregation is order-independent (sums and maxima), so checks could be
evaluated in any order or concurrently without changing the report.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, chain, islice
from operator import eq
from typing import Callable, Iterator, Mapping

from .cubic import binet_scalars
from .genfunc import build_gf, gf_columns, gf_expand, gf_numerator
from .octonion import Octonion
from .octseq import OctSequenceContext, sum_correction
from .scalars import COMPLEX, RegimeError, Scalar, VariantError, as_complex
from .sequences import (
    PRESET_NAMES,
    RecurrenceParams,
    partial_sum_formula,
    preset_lookup,
    prefix_sum,
    check_size_cap,
    companion_identity,
    sum_constant,
    terms,
)

EXACT_CATEGORIES = (
    "recurrence",
    "companion_identity",
    "scalar_sum",
    "octonion_sum",
    "genfunc_table",
    "genfunc_roundtrip",
    "sum_table",
    "shift_formula",
)
NUMERIC_CATEGORIES = ("binet_scalar", "binet_octonion", "norm_formula", "quad_approx")
CATEGORIES = EXACT_CATEGORIES + NUMERIC_CATEGORIES

DEFAULT_TOLERANCES: dict[str, float] = {
    "binet_scalar": 1e-8,
    "binet_octonion": 1e-8,
    "norm_formula": 1e-6,
    "quad_approx": 1e-8,
}

# index windows inside which each floating closed form is contracted to hold
NUMERIC_WINDOWS = {
    "binet_scalar": 40,
    "binet_octonion": 40,
    "norm_formula": 25,
    "quad_approx": 30,
}

# Tabulated reference values for the four named presets, kept independent of
# the code paths they check.  Numerator coefficient tuples are ascending
# powers per basis slot e0..e7.
REFERENCE_GENFUNC_TABLE: dict[str, tuple[tuple[int, ...], ...]] = {
    "tribonacci": (
        (0, 1), (1,), (1, 1, 1), (2, 2, 1), (4, 3, 2), (7, 6, 4), (13, 11, 7), (24, 20, 13),
    ),
    "padovan": (
        (0, 1), (1,), (0, 1, 1), (1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1), (2, 3, 2),
    ),
    "narayana": (
        (0, 1), (1,), (1, 0, 1), (1, 1, 1), (2, 1, 1), (3, 1, 2), (4, 2, 3), (6, 3, 4),
    ),
    "third_order_jacobsthal": (
        (0, 1), (1,), (1, 1, 1), (2, 3, 2), (5, 4, 4), (9, 9, 10), (18, 19, 18), (37, 36, 36),
    ),
}

# Known misprints in the tabulated reference: slot -> the exact computation.
# The computed value is authoritative; a mismatch exactly here is recorded
# as an erratum, anywhere else it is a failure.
GENFUNC_MISPRINTS: dict[tuple[str, int], tuple[int, ...]] = {
    ("third_order_jacobsthal", 2): (1, 1, 2),
}

# Constant octonions the tabulated summation formulas subtract.
REFERENCE_SUM_CONSTANTS: dict[str, tuple[int, ...]] = {
    "tribonacci": (1, 1, 3, 5, 9, 17, 31, 57),
    "padovan": (1, 1, 2, 2, 3, 4, 5, 7),
    "narayana": (1, 1, 2, 3, 4, 6, 9, 13),
    "third_order_jacobsthal": (1, 1, 4, 7, 13, 28, 55, 109),
}

# Tabulated summation formulas as ((a, b, c), offset, divisor):
# O(0) + ... + O(n) = (a*O(n+off+2) + b*O(n+off+1) + c*O(n+off) - constant) / divisor.
REFERENCE_SUM_FORMS: dict[str, tuple[tuple[int, int, int], int, int]] = {
    "tribonacci": ((1, 0, 1), 0, 2),
    "padovan": ((1, 0, 0), 3, 1),
    "narayana": ((1, 0, 0), 1, 1),
    "third_order_jacobsthal": ((1, 0, 2), 0, 3),
}

# Tabulated shift-convolution coefficient triples (applied to O(n+2), O(n+1),
# O(n)), written in terms of the preset's own terms.
_ShiftPattern = Callable[[Callable[[int], Scalar], int], tuple[Scalar, Scalar, Scalar]]
REFERENCE_SHIFT_PATTERNS: dict[str, _ShiftPattern] = {
    "tribonacci": lambda f, m: (f(m - 1), f(m - 2) + f(m - 3), f(m - 2)),
    "padovan": lambda f, m: (f(m - 1), f(m), f(m - 2)),
    "narayana": lambda f, m: (f(m - 1), f(m - 3), f(m - 2)),
    "third_order_jacobsthal": lambda f, m: (f(m - 1), f(m - 2) + 2 * f(m - 3), 2 * f(m - 2)),
}

_SIGN_WITNESS = RecurrenceParams(1, 1, 1, 1, 0, 0)


@dataclass(frozen=True)
class SuiteConfig:
    """Grid and tolerances for one suite run."""

    presets: tuple[str, ...] = PRESET_NAMES
    extra_params: tuple[RecurrenceParams, ...] = ()
    random_sets: int = 0
    n_max: int = 40
    m_max: int = 20
    seed: int = 0
    tolerances: Mapping[str, float] = field(default_factory=dict)
    sum_constants_override: Mapping[str, tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        for name in self.presets:
            preset_lookup(name)
        if self.n_max < 3:
            raise ValueError("n_max must be >= 3")
        if self.m_max < 3:
            raise ValueError("m_max must be >= 3")
        if self.deepest > sys.maxsize:
            raise ValueError(
                f"n_max = {self.n_max} and m_max = {self.m_max} read terms past "
                f"the largest supported index, {sys.maxsize}"
            )
        if self.random_sets < 0:
            raise ValueError("random_sets must be >= 0")
        for key, tol in self.tolerances.items():
            if key not in NUMERIC_CATEGORIES:
                raise ValueError(f"unknown tolerance key {key!r}")
            if not 0 < tol < float("inf"):
                raise ValueError(f"tolerance for {key!r} must be positive and finite")
        if self.sum_constants_override:
            for name, comps in self.sum_constants_override.items():
                preset_lookup(name)
                if len(comps) != 8:
                    raise ValueError("sum-constant overrides need 8 components")
                if not all(type(c) is int or isinstance(c, Fraction) for c in comps):
                    raise VariantError(f"sum-constant overrides need int or Fraction components: {comps!r}")

    @property
    def deepest(self) -> int:
        """The deepest term index a family's checks read.

        padovan's tabulated sum form, at offset 3, reads up to term n + 12
        at n = n_max, and the shifts read O(n + m), up to term n + m + 7, at
        n <= min(n_max, 50); no other check reads deeper.
        """
        return max(self.n_max + 12, self.m_max + min(self.n_max, 50) + 7)

    def tolerance(self, category: str) -> float:
        return dict(DEFAULT_TOLERANCES, **self.tolerances)[category]

    def sum_constant(self, preset: str) -> tuple[int, ...]:
        if self.sum_constants_override and preset in self.sum_constants_override:
            return tuple(self.sum_constants_override[preset])
        return REFERENCE_SUM_CONSTANTS[preset]


@dataclass
class CategoryResult:
    run: int = 0
    failed: int = 0
    skipped: int = 0
    max_rel_residual: float = 0.0

    def record_exact(self, ok: bool, rel_residual: float = 0.0) -> None:
        self.run += 1
        if not ok:
            self.failed += 1
            self.max_rel_residual = max(self.max_rel_residual, rel_residual)

    def record_numeric(self, rel_residual: float, tol: float) -> None:
        self.run += 1
        self.max_rel_residual = max(self.max_rel_residual, rel_residual)
        if rel_residual > tol:
            self.failed += 1

    def skip(self) -> None:
        self.skipped += 1


@dataclass
class VerificationReport:
    categories: dict[str, CategoryResult]
    errata: list[str]
    seed: int

    @property
    def total_failures(self) -> int:
        return sum(c.failed for c in self.categories.values())

    def to_json_dict(self) -> dict:
        return {
            "categories": {
                name: {
                    "run": c.run,
                    "failed": c.failed,
                    "skipped": c.skipped,
                    "max_rel_residual": c.max_rel_residual,
                }
                for name, c in self.categories.items()
            },
            "errata": list(self.errata),
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        width = max(len(name) for name in self.categories)
        for name, c in self.categories.items():
            lines.append(
                f"{name:<{width}}  run={c.run:<6d} failed={c.failed:<4d} "
                f"skipped={c.skipped:<4d} max_rel_residual={c.max_rel_residual:.3e}"
            )
        for note in self.errata:
            lines.append(f"erratum: {note}")
        lines.append(f"seed: {self.seed}")
        verdict = "PASS" if self.total_failures == 0 else "FAIL"
        lines.append(f"result: {verdict} ({self.total_failures} failures)")
        return "\n".join(lines) + "\n"


def make_random_params(rng: random.Random) -> RecurrenceParams:
    """One random integer parameter set: coefficients in [-5, 5], seeds in [-3, 3]."""
    return RecurrenceParams(
        rng.randint(-5, 5),
        rng.randint(-5, 5),
        rng.randint(-5, 5),
        rng.randint(-3, 3),
        rng.randint(-3, 3),
        rng.randint(-3, 3),
    )


def _rel_residual(approx: Scalar | Octonion, exact: Scalar | Octonion) -> float:
    """|c(approx) - c(exact)| / max(1, |c(exact)|) with c = as_complex.

    Octonions take the worst of their eight components.
    """
    if isinstance(exact, Octonion):
        return max(0.0, *map(_rel_residual, approx.components, exact.components))
    e = as_complex(exact)
    return abs(as_complex(approx) - e) / max(1.0, abs(e))


def _exact_pair(result: CategoryResult, lhs: object, rhs: object) -> None:
    if lhs == rhs:
        result.record_exact(True)
    else:
        # a coefficient tuple (genfunc_table) has no size to measure a residual by
        result.record_exact(False, 0.0 if isinstance(rhs, tuple) else _rel_residual(lhs, rhs))


def _lifted_verdicts(
    ctx: OctSequenceContext, m: int, weights: tuple[Scalar, Scalar, Scalar], count: int
) -> list[bool]:
    """Whether O(n + m) == a*O(n+2) + b*O(n+1) + c*O(n), (a, b, c) = weights, at n = 0 .. count - 1.

    The lifted identity holds at n exactly when its scalar form
    x(k + m) = a*x(k+2) + b*x(k+1) + c*x(k) holds at the eight indices
    k = n .. n+7, so the term line from m and the weights' line from 0 are
    compared once per index.
    """
    agree = list(map(eq, ctx.line(m, m + count + 7), ctx.line(0, count + 7, weights)))
    if all(agree):
        return [True] * count
    return [all(agree[n : n + 8]) for n in range(count)]


def _companion_verdicts(ctx: OctSequenceContext, u: list[Scalar]) -> list[bool]:
    """Whether term(n+1) == v2*U(n) + (s*v1 + t*v0)*U(n-1) + t*v1*U(n-2) at n = 2 .. len(u) - 1.

    u holds the companion terms U(0), U(1), ...; the terms come from the
    term line.  The right side is companion_identity's, its weights gathered once.
    """
    p = ctx.params
    b, c = p.s * p.v1 + p.t * p.v0, p.t * p.v1
    x = ctx.line(3, len(u) + 1)
    return [y == p.v2 * u2 + b * u1 + c * u0 for y, u0, u1, u2 in zip(x, u, u[1:], u[2:])]


def _sum_verdicts(
    ctx: OctSequenceContext, form: tuple, constant: tuple[Scalar, ...], count: int
) -> list[bool]:
    """Whether a prefix-sum form ((a, b, c), off, d) holds at n = 0 .. count - 1.

    With comb(k) = a*x(k+2) + b*x(k+1) + c*x(k), read from its line, it holds
    at n when (comb(n+off+l) + constant[l]) / d == x(l) + ... + x(n+l) for
    every l < len(constant).  With P(k) = x(0) + ... + x(k), that is
    gap(n+l) == -constant[l] - d*P(l-1) for the gap comb(k+off) - d*P(k),
    computed once per index.
    """
    weights, off, d = form
    width = len(constant)
    x = ctx.line(0, count + width - 1)
    gaps = [c - d * s for c, s in zip(ctx.line(off, off + count + width - 1, weights), accumulate(x))]
    targets = [-k - d * s for k, s in zip(constant, accumulate(x[: width - 1], initial=0))]
    return [gaps[n : n + width] == targets for n in range(count)]


def _genfunc_verdicts(ctx: OctSequenceContext, count: int) -> list[bool]:
    """Whether the generating function's coefficient n equals O(n), at n = 0 .. count - 1.

    Slot l of coefficient n is column l of gf_columns at n, and component l
    of O(n) is term n + l, so each column is compared with the term line
    from l once per index.
    """
    x = ctx.line(0, count + 7)
    agree = (map(eq, column, x[l:]) for l, column in enumerate(gf_columns(build_gf(ctx), count)))
    return list(map(all, zip(*agree)))


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Run every identity over the configured grid; deterministic given seed."""
    rng = random.Random(config.seed)
    cases: list[tuple[str | None, RecurrenceParams]] = [
        (name, preset_lookup(name)) for name in config.presets
    ]
    cases += [(None, p) for p in config.extra_params]
    cases += [(None, make_random_params(rng)) for _ in range(config.random_sets)]

    results = {name: CategoryResult() for name in CATEGORIES}
    count = min(config.n_max, 10) + 1  # the sign note's indices, n <= min(n_max, 10)
    misprint_fails = []  # the sign note's verdict per delta != 0 family, on the checks' context
    for preset, params in cases:
        ctx = OctSequenceContext(params)
        for name, checks in _checks(preset, ctx, config):
            res = results[name]
            if checks is None:
                res.skip()
            elif name in NUMERIC_CATEGORIES:
                tol = config.tolerance(name)
                for residual in checks:
                    res.record_numeric(residual, tol)
            else:
                passed, pairs = checks
                res.run += passed
                for lhs, rhs in pairs:
                    _exact_pair(res, lhs, rhs)
        if params.delta != 0:
            misprint_fails.append(_misprint_fails(ctx, count))

    errata = [_sign_erratum_note(misprint_fails, count), _genfunc_erratum_note()]
    return VerificationReport(categories=results, errata=errata, seed=config.seed)


def _checks(preset: str | None, ctx: OctSequenceContext, config: SuiteConfig) -> Iterator[tuple]:
    """Yield (category, checks) for one family, in CATEGORIES order.

    The checks of an exact category are (passed, pairs): a count of checks
    already known to pass and the (lhs, rhs) pairs still to compare.  Those
    of a numeric one are relative residuals.  Either is None when the family
    is outside the category's hypotheses: delta = 0 for the sum formulas, not
    a preset for the tabulated references and the root-based forms, and a
    cubic without the root data (ctx.roots raises RegimeError) for the
    root-based forms.
    RegimeError, before the first check, when the family's terms at
    config.deepest are past the size cap.
    """
    params, n_max = ctx.params, config.n_max
    check_size_cap(params, config.deepest)
    summable = params.delta != 0
    tabulated = preset is not None
    try:
        rooted = tabulated and ctx.roots is not None
    except RegimeError:
        rooted = False
    # direct sums O(0)+...+O(n), for a failing sum_table or octonion_sum check
    sums = cache(lambda: ctx.oct_prefix_sums(n_max))

    def settle(
        verdicts: list[bool], build: Callable[[int], tuple], first: int = 0
    ) -> tuple[int, Iterator]:
        # the verdicts at n = first, first + 1, ...: a passing n is counted;
        # only a failing n builds its pair
        return verdicts.count(True), (build(n) for n, ok in enumerate(verdicts, first) if not ok)

    def lifted(m: int, count: int, build: Callable[[int], tuple]) -> tuple[int, Iterator]:
        return settle(_lifted_verdicts(ctx, m, ctx.shift_coefficients(m), count), build)

    # the recurrence at n is the shift by m = 3 at n - 1, whose weights are (r, s, t)
    yield "recurrence", lifted(3, n_max, lambda n: ctx.recurrence_check(n + 1))
    u = list(islice(terms(params, companion=True), n_max + 1))
    yield "companion_identity", settle(_companion_verdicts(ctx, u), partial(companion_identity, params), 2)
    if summable:
        form = ((1, 1 - params.r, params.t), 0, params.delta)
        yield "scalar_sum", settle(
            _sum_verdicts(ctx, form, (sum_constant(params, params.s),), n_max + 1),
            lambda n: (partial_sum_formula(params, n), prefix_sum(params, n)),
        )
        yield "octonion_sum", settle(
            _sum_verdicts(ctx, form, ctx.correction, n_max + 1), lambda n: (ctx.sum_octonions(n), sums()[n])
        )
    else:
        yield "scalar_sum", None
        yield "octonion_sum", None
    if not tabulated:
        yield "genfunc_table", None
    else:
        numerator = gf_numerator(ctx)
        table = []
        for slot, printed in enumerate(REFERENCE_GENFUNC_TABLE[preset]):
            computed = numerator.slot_coefficients(slot)
            misprint = GENFUNC_MISPRINTS.get((preset, slot))
            # a listed misprint: the computation must reproduce the corrected
            # coefficients, and the tabulated entry must differ from them
            if misprint is None:
                table.append((computed, printed))
            else:
                table.append(((computed, computed != printed), (misprint, True)))
        yield "genfunc_table", (0, table)
    count = min(n_max + 1, 50)
    expanded = cache(lambda: gf_expand(build_gf(ctx), count))
    yield "genfunc_roundtrip", settle(
        _genfunc_verdicts(ctx, count), lambda n: (expanded()[n], ctx.oct_term(n))
    )
    if not tabulated:
        yield "sum_table", None
    else:
        constant = Octonion(tuple(Fraction(c) for c in config.sum_constant(preset)))
        w, off, d = form = REFERENCE_SUM_FORMS[preset]
        passed, failing = settle(
            _sum_verdicts(ctx, form, (-constant).components, n_max + 1),
            lambda n: ((ctx._combine(n + off, *w).as_rational() - constant) * Fraction(1, d), sums()[n]),
        )
        yield "sum_table", (passed, chain([(sum_correction(params), -constant)], failing))
    shifts = range(3, config.m_max + 1)
    shifted = (lifted(m, min(n_max, 50) + 1, partial(ctx.shift_formula, m=m)) for m in shifts)
    passed, failing = zip(*shifted)
    patterns = (
        zip(REFERENCE_SHIFT_PATTERNS[preset](ctx.seq, m), ctx.shift_coefficients(m))
        for m in shifts if tabulated
    )
    yield "shift_formula", (sum(passed), chain(*failing, *patterns))

    def upto(name: str) -> int:
        # the end of the index window inside which the closed form is contracted to hold
        return min(n_max, NUMERIC_WINDOWS[name]) + 1

    if not rooted:
        yield from ((name, None) for name in NUMERIC_CATEGORIES)
        return
    end = upto("binet_scalar")
    yield "binet_scalar", chain(
        map(_rel_residual, binet_scalars(ctx.roots, 0, end, "v"), ctx.line(0, end)),
        map(_rel_residual, binet_scalars(ctx.roots, 0, end, "u"), u),
    )
    end = upto("binet_octonion")
    # component l of oct_term(n) is term n + l: each term converted once
    z = list(map(as_complex, ctx.line(0, end + 7)))
    yield "binet_octonion", (
        _rel_residual(approx, Octonion._raw(tuple(z[n : n + 8]), COMPLEX))
        for n, approx in enumerate(ctx.oct_binets(0, end))
    )
    end = upto("norm_formula")
    yield "norm_formula", map(_rel_residual, ctx.norm_formulas_complex(0, end), map(ctx.norm_sq, range(end)))
    end = upto("quad_approx")
    yield "quad_approx", chain.from_iterable(ctx.quad_residuals(0, end, line) for line in ctx.roots.lines)


def _misprint_fails(ctx: OctSequenceContext, count: int) -> bool:
    """Whether the misprinted (r-s-1)*v0 sum constant fails at some n < count (delta != 0),
    decided on the scalar sum's form as scalar_sum decides the corrected constant."""
    p = ctx.params
    return not all(_sum_verdicts(ctx, ((1, 1 - p.r, p.t), 0, p.delta), (sum_constant(p, -p.s),), count))


def _sign_erratum_note(fails: list[bool], count: int) -> str:
    """Diagnostic of the misprinted summation constant: fails holds _misprint_fails at
    count for each configured delta != 0 parameter set, and a fixed witness is added."""
    fails = [*fails, _misprint_fails(OctSequenceContext(_SIGN_WITNESS), count)]
    return (
        "summation-constant sign: the (r-s-1)*v0 variant fails on "
        f"{sum(fails)} of {len(fails)} delta!=0 parameter sets "
        "(witness r=1 s=1 t=1 v0=1 v1=0 v2=0, n=0); "
        "the verified (r+s-1)*v0 form is used throughout"
    )


def _genfunc_erratum_note() -> str:
    return (
        "generating-function table: third_order_jacobsthal slot e2 is "
        "tabulated as 1 + x + x^2 but computes to 1 + x + 2x^2; "
        "the computed coefficients are authoritative"
    )
