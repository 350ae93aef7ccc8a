"""Third-order linear recurrence families and their scalar identities.

A family is parameterized by coefficients (r, s, t) and initial values
(v0, v1, v2): term(n) = r*term(n-1) + s*term(n-2) + t*term(n-3).  Everything
here is exact; only nonnegative indices are defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice
from operator import add, mul
from typing import Callable, Iterator

from .scalars import (
    EXACT_VARIANTS,
    RegimeError,
    Scalar,
    VariantError,
    one,
    variant_of,
    zero,
)


@dataclass(frozen=True)
class RecurrenceParams:
    """Coefficients and initial values of one recurrence family.

    All six fields must share one exact scalar variant (int or Fraction).
    """

    r: int | Fraction
    s: int | Fraction
    t: int | Fraction
    v0: int | Fraction
    v1: int | Fraction
    v2: int | Fraction

    def __post_init__(self) -> None:
        kinds = {variant_of(f) for f in self.fields()}
        if len(kinds) != 1:
            raise VariantError("all six parameters must share one scalar variant")
        kind = kinds.pop()
        if kind not in EXACT_VARIANTS:
            raise VariantError(f"parameters must be exact scalars, not {kind}")

    def fields(self) -> tuple[Scalar, ...]:
        return (self.r, self.s, self.t, self.v0, self.v1, self.v2)

    @property
    def variant(self) -> str:
        return variant_of(self.r)

    @property
    def delta(self) -> int | Fraction:
        """r + s + t - 1, the divisor of the closed-form prefix sums."""
        return self.r + self.s + self.t - 1

    @cached_property
    def _ring(self) -> "_CubicQuotient":
        # built once per parameters object; keyed on the object, not on its
        # hash, since an int family equals its Fraction twin
        return _CubicQuotient(self)


PRESETS: dict[str, RecurrenceParams] = {
    "tribonacci": RecurrenceParams(1, 1, 1, 0, 1, 1),
    "padovan": RecurrenceParams(0, 1, 1, 0, 1, 0),
    "narayana": RecurrenceParams(1, 0, 1, 0, 1, 1),
    "third_order_jacobsthal": RecurrenceParams(1, 1, 2, 0, 1, 1),
}

PRESET_NAMES = tuple(PRESETS)


def preset_lookup(name: str) -> RecurrenceParams:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(PRESET_NAMES)
        raise ValueError(f"unknown preset {name!r}; expected one of: {known}") from None


def _check_index(n: int) -> int:
    """Return n if it is a valid sequence index, else raise ValueError."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"sequence index must be a nonnegative integer, got {n!r}")
    return n


# The cap on the coefficients a jump builds, in bits (numerator plus
# denominator for rationals): about 301,000 digits.  Rendering is the real
# limit; str() of a 3*10**5-digit int took 1.8 s on Python 3.11 (2 CPUs).
MAX_TERM_BITS = 1_000_000


def _digits(bits: int) -> int:
    return int(bits * math.log10(2))


class _CubicQuotient:
    """Exact arithmetic in Q[x]/(f), f(x) = x^3 - r*x^2 - s*x - t.

    An element is a coefficient triple (c0, c1, c2) for c0 + c1*x + c2*x^2.
    If x^n = c0 + c1*x + c2*x^2 mod f, then term(n) = c0*v0 + c1*v1 + c2*v2
    for every family with these coefficients (C. M. Fiduccia, "An efficient
    formula for linear recurrences", SIAM J. Comput. 14(1), 1985).
    """

    def __init__(self, params: RecurrenceParams):
        r, s, t = self.r, self.s, self.t = params.r, params.s, params.t
        kind = params.variant
        self.zero = (zero(kind),) * 3
        self.one = (one(kind), zero(kind), zero(kind))
        # With d the common denominator of r, s, t and b = d*max(|r|, |s|, |t|),
        # d**k * x**k has integer coefficients of at most (d + b)**k, so x**k
        # measures at most k*g + 2 bits, g = bitlen(d + b) + bitlen(d): no
        # x**k with k <= fits can fail xpow's size check.
        d = math.lcm(r.denominator, s.denominator, t.denominator)
        b = int(d * max(abs(r), abs(s), abs(t)))
        self.fits = (MAX_TERM_BITS // 2 - 2) // ((d + b).bit_length() + d.bit_length())

    def mul(self, a: tuple, b: tuple) -> tuple:
        """a*b, reduced mod f, in nine big products."""
        r, s, t = self.r, self.s, self.t
        a0, a1, a2 = a
        b0, b1, b2 = b
        d4 = a2 * b2
        # fold x^4 = r*x^3 + s*x^2 + t*x, then x^3 = r*x^2 + s*x + t
        d3 = a1 * b2 + a2 * b1 + r * d4
        d2 = a0 * b2 + a1 * b1 + a2 * b0 + s * d4
        d1 = a0 * b1 + a1 * b0 + t * d4
        return a0 * b0 + t * d3, d1 + s * d3, d2 + r * d3

    def square(self, a: tuple) -> tuple:
        """a*a, reduced mod f, in six big products."""
        r, s, t = self.r, self.s, self.t
        a0, a1, a2 = a
        d01, d02, d12, d4 = a0 * a1, a0 * a2, a1 * a2, a2 * a2
        # fold x^4 = r*x^3 + s*x^2 + t*x, then x^3 = r*x^2 + s*x + t
        d3 = d12 + d12 + r * d4
        d2 = d02 + d02 + a1 * a1 + s * d4
        d1 = d01 + d01 + t * d4
        return a0 * a0 + t * d3, d1 + s * d3, d2 + r * d3

    def shift(self, c: tuple) -> tuple:
        """x*c, reduced mod f."""
        c0, c1, c2 = c
        return self.t * c2, c0 + self.s * c2, c1 + self.r * c2

    def xpow(self, n: int) -> tuple:
        """x^n mod f in O(log n) squarings; RegimeError past MAX_TERM_BITS.

        The bits of n are read from the left: square, then shift on a 1 bit.
        Before each squaring the coefficients built so far are measured, so
        an index whose terms are too large to render fails before the cost
        is spent, while a family whose powers stay small jumps to any index.
        The powers squared are x^k with k <= n >> 1, so when n >> 1 <= fits
        none can pass the cap and the measuring is skipped.
        """
        c = self.one
        measure = n >> 1 > self.fits
        for bit in bin(n)[2:]:
            if measure:
                _check_size(n, c)
            c = self.square(c)
            if bit == "1":
                c = self.shift(c)
        return c

    def series(self, n: int) -> tuple[tuple, tuple]:
        """(1 + x + ... + x^(n-1), x^n) mod f in O(log n) products; RegimeError past MAX_TERM_BITS.

        With G = 1 + ... + x^(k-1) and P = x^k, doubling k gives G + G*P
        and P*P; a 1 bit then gives G + P and x*P.  Applied to the seeds, G
        is term(0) + ... + term(n-1) and P gives term(n) (see sums).  Both are
        measured before every squaring, as in xpow; a series runs once per
        command, so no size bound skips the measuring.
        """
        g, p = self.zero, self.one
        for bit in bin(n)[2:]:
            _check_size(n, g, p)
            g = tuple(map(add, g, self.mul(g, p)))
            p = self.square(p)
            if bit == "1":
                g = tuple(map(add, g, p))
                p = self.shift(p)
        return g, p


def _check_size(n: int, *elements: tuple) -> None:
    """RegimeError when squaring or multiplying the elements could pass MAX_TERM_BITS."""
    bits = 2 * max(x.numerator.bit_length() + x.denominator.bit_length() for c in elements for x in c)
    if bits > MAX_TERM_BITS:
        raise RegimeError(
            f"term {n} is past the size cap: the jump to it would build coefficients "
            f"of about {_digits(bits):,} digits, more than {_digits(MAX_TERM_BITS):,}"
        )


def terms(params: RecurrenceParams, companion: bool = False, start: int = 0) -> Iterator[Scalar]:
    """Yield term start, start+1, ... exactly; companion=True yields U, seeds (0, 1, r).

    The one place the recurrence is stepped.  A start of 3 or more jumps to
    the window (term(start), term(start+1), term(start+2)) through x^start
    mod f (RegimeError past MAX_TERM_BITS) and steps from there; below 3
    the seeds are yielded verbatim.  Every term keeps the parameters'
    scalar variant.
    """
    _check_index(start)
    if companion:
        seeds = (zero(params.variant), one(params.variant), params.r)
    else:
        seeds = (params.v0, params.v1, params.v2)
    if start < 3:
        return islice(_stepped(params, *seeds), start, None)
    return _stepped_from(params, params._ring.xpow(start), seeds)


def sums(params: RecurrenceParams, start: int = 0) -> Iterator[Scalar]:
    """Yield the running sums S(start), S(start+1), ... exactly, S(k) = term(0) + ... + term(k-1).

    S(start) is the seeds weighted by 1 + x + ... + x^(start-1) mod f; the
    terms added from there step from the window of x^start, built by the
    same series (RegimeError past MAX_TERM_BITS).  It holds for every family,
    delta = 0 included, and keeps the parameters' scalar variant.
    """
    seeds = (params.v0, params.v1, params.v2)
    g, p = params._ring.series(_check_index(start))
    return accumulate(_stepped_from(params, p, seeds), initial=sum(map(mul, g, seeds)))


def _stepped_from(params: RecurrenceParams, c: tuple, seeds: tuple) -> Iterator[Scalar]:
    # the terms from k on, for c = x^k mod f: term(k + i) weighs the seeds by x^i * c
    shift = params._ring.shift
    window = (c, shift(c), shift(shift(c)))
    return _stepped(params, *(sum(map(mul, x, seeds)) for x in window))


def check_size_cap(params: RecurrenceParams, n: int) -> None:
    """RegimeError when the jump to term n would pass MAX_TERM_BITS; no jump while xpow skips measuring."""
    if n >> 1 > params._ring.fits:
        seq_term(params, n)


def _stepped(params: RecurrenceParams, a: Scalar, b: Scalar, c: Scalar) -> Iterator[Scalar]:
    r, s, t = params.r, params.s, params.t
    while True:
        yield a
        a, b, c = b, c, r * c + s * b + t * a


def seq_term(params: RecurrenceParams, n: int) -> Scalar:
    """Exact n-th term in O(log n) multiplications (see terms); seeds returned verbatim."""
    return next(terms(params, start=n))


def u_term(params: RecurrenceParams, n: int) -> Scalar:
    """The companion family with seeds (0, 1, r) under the same recurrence, as seq_term."""
    return next(terms(params, companion=True, start=n))


def companion_identity(params: RecurrenceParams, n: int) -> tuple[Scalar, Scalar]:
    """Expand term(n+1) through companion terms; returns (lhs, rhs), equal exactly.

    rhs = v2*U(n) + (s*v1 + t*v0)*U(n-1) + t*v1*U(n-2), needing n >= 2.
    """
    if n < 2:
        raise ValueError("the companion expansion needs n >= 2")
    a, b, c = _expansion_weights(params, n + 1)
    return seq_term(params, n + 1), a * params.v2 + b * params.v1 + c * params.v0


def _expansion_weights(params: RecurrenceParams, m: int) -> tuple[Scalar, Scalar, Scalar]:
    """(U(m-1), s*U(m-2) + t*U(m-3), t*U(m-2)): the weights of x(n+2), x(n+1), x(n) in x(n+m).

    U(m-3), U(m-2), U(m-1) are read from the companion terms from m - 3 on.
    """
    u3, u2, u1 = islice(terms(params, companion=True, start=m - 3), 3)
    return u1, params.s * u2 + params.t * u3, params.t * u2


def prefix_sum(params: RecurrenceParams, n: int) -> Scalar:
    """Direct summation oracle: term(0) + ... + term(n), exact."""
    _check_index(n)
    return sum(islice(terms(params), n + 1), zero(params.variant))


def sum_constant(params: RecurrenceParams, s: Scalar) -> Scalar:
    """(r+s-1)*v0 + (r-1)*v1 - v2, the constant that closes the telescoped prefix sum.

    s is passed in so that partial_sum_formula_uncorrected can rebuild the
    misprinted (r-s-1)*v0 constant with -s.
    """
    return (params.r + s - 1) * params.v0 + (params.r - 1) * params.v1 - params.v2


def partial_sum_formula(params: RecurrenceParams, n: int) -> Fraction:
    """Closed form for the prefix sum term(0)+...+term(n), exact rational.

    (term(n+2) + (1-r)*term(n+1) + t*term(n) + (r+s-1)*v0 + (r-1)*v1 - v2) / delta.
    The (r+s-1)*v0 sign is the verified one; see partial_sum_formula_uncorrected
    for the misprinted variant this replaces.  Undefined when delta == 0.
    """
    return _partial_sum(params, n, sum_constant(params, params.s))


def partial_sum_formula_uncorrected(params: RecurrenceParams, n: int) -> Fraction:
    """The same closed form with the (r-s-1)*v0 constant some tables print.

    Kept only to demonstrate the misprint: it fails whenever s*v0 != 0
    (witness r=s=t=1, v=(1,0,0), n=0).  Use partial_sum_formula.
    """
    return _partial_sum(params, n, sum_constant(params, -params.s))


def _partial_sum(params: RecurrenceParams, n: int, constant: Scalar) -> Fraction:
    _check_index(n)
    # the window is jumped to only when delta != 0
    return _closed_form_sum(
        params, lambda a, b, c: (sum(map(mul, (c, b, a), islice(terms(params, start=n), 3))),), (constant,)
    )[0]


def _closed_form_sum(params: RecurrenceParams, combine: Callable, constant: tuple) -> list[Fraction]:
    """(x(n+2) + (1-r)*x(n+1) + t*x(n) + constant) / delta, the prefix sum x(0) + ... + x(n).

    Componentwise: combine(a, b, c) gives the components of a*x(n+2) +
    b*x(n+1) + c*x(n) and constant one per component.  Of the scalar terms,
    with sum_constant, for the scalar sum; of the octonion lifts, with
    octseq.sum_correction, for the lifted one.  Each component is divided by
    delta once, as an exact Fraction.  RegimeError when delta == 0, before
    combine is called.
    """
    d = params.delta
    if not d:
        raise RegimeError(
            "r + s + t - 1 is zero: the closed-form prefix sum is undefined; "
            "sum the terms directly (prefix_sum, oct_prefix_sum)"
        )
    return [Fraction(x + k, d) for x, k in zip(combine(1, 1 - params.r, params.t), constant)]
