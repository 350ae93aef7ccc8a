"""Rational generating functions with octonion numerators.

The lifted sequence has the generating function

    (O(0) + (O(1) - r*O(0))*x + (O(2) - r*O(1) - s*O(0))*x^2) / (1 - r*x - s*x^2 - t*x^3)

whose numerator has degree at most 2 and whose denominator coefficients are
central scalars.  Expansion is done by the coefficient recurrence rather
than long division; for a central denominator the two agree exactly and the
recurrence is O(1) per coefficient.  Central scalars do not mix the basis
slots, so the expansion is eight scalar columns (gf_columns), one
recurrence per slot; gf_expand builds its octonions from them, or, as an
independent check, multiplies through the full basis product.  The
slot columns and verify's packed check run one recurrence, gf_series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .octonion import Octonion
from .scalars import Scalar, VariantError, one, variant_of, zero
from .octseq import OctSequenceContext


@dataclass(frozen=True)
class OctPolynomial:
    """Polynomial with octonion coefficients, ascending powers, trimmed."""

    coeffs: tuple[Octonion, ...]

    def __post_init__(self) -> None:
        trimmed = list(self.coeffs)
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    def slot_coefficients(self, slot: int) -> tuple[Scalar, ...]:
        """Scalar coefficients of one basis slot, trailing zeros trimmed."""
        coeffs = [c.components[slot] for c in self.coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs)


@dataclass(frozen=True)
class RationalGF:
    """numerator / (1 - r*x - s*x^2 - t*x^3) with central denominator."""

    numerator: OctPolynomial
    denom_coeffs: tuple[Scalar, Scalar, Scalar, Scalar]

    def __post_init__(self) -> None:
        if self.denom_coeffs[0] != one(variant_of(self.denom_coeffs[0])):
            raise ValueError("denominator must have constant coefficient 1")


def gf_numerator(ctx: OctSequenceContext) -> OctPolynomial:
    """Numerator [O(0), O(1) - r*O(0), O(2) - r*O(1) - s*O(0)], exact."""
    r, s = ctx.params.r, ctx.params.s
    return OctPolynomial((ctx.oct_term(0), ctx._combine(0, 0, 1, -r), ctx._combine(0, 1, -r, -s)))


def build_gf(ctx: OctSequenceContext) -> RationalGF:
    """Generating function of the lifted sequence of `ctx`."""
    p = ctx.params
    return RationalGF(gf_numerator(ctx), (one(p.variant), -p.r, -p.s, -p.t))


def gf_columns(gf: RationalGF, count: int) -> list[list[Scalar]]:
    """The first `count` series coefficients of each basis slot, e0 .. e7.

    A central denominator does not mix the slots: slot l's coefficients are
    one scalar recurrence (gf_series) on slot l of the numerator's
    coefficients.  The numerator and the denominator share one scalar
    variant (VariantError otherwise).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    num = gf.numerator.coeffs
    variants = {*map(variant_of, gf.denom_coeffs), *(c.variant for c in num)}
    if len(variants) > 1:
        raise VariantError(f"a generating function's coefficients mix scalar variants: {sorted(variants)}")
    r, s, t = (-c for c in gf.denom_coeffs[1:])
    z = zero(variant_of(gf.denom_coeffs[0]))
    return [gf_series([c.components[slot] for c in num], r, s, t, count, z) for slot in range(8)]


def gf_series(num: Sequence, r: Scalar, s: Scalar, t: Scalar, count: int, z: object) -> list:
    """c(0) .. c(count - 1) with c(n) = num(n) + r*c(n-1) + s*c(n-2) + t*c(n-3).

    num(n) is z past num; the terms are added in that order as far as they
    exist.  gf_columns runs it per slot on scalars, and verify once on the
    numerator's octonions, each packed into one int.
    """
    c: list = []
    for n in range(count):
        value = num[n] if n < len(num) else z
        if n >= 1:
            value = value + r * c[n - 1]
        if n >= 2:
            value = value + s * c[n - 2]
        if n >= 3:
            value = value + t * c[n - 3]
        c.append(value)
    return c


def gf_expand(gf: RationalGF, count: int, scalar_side: str = "scalar") -> list[Octonion]:
    """First `count` series coefficients of the rational generating function.

    Coefficients satisfy c(n) = r*c(n-1) + s*c(n-2) + t*c(n-3) + num(n)
    (num(n) = 0 past the numerator degree).  scalar_side selects how the
    scalar recurrence coefficients multiply the octonion coefficients:
    "scalar" componentwise, through the slot columns of gf_columns, or
    "left"/"right" through a full basis product with the scalar embedded
    as a multiple of e0.  All three agree exactly because the denominator
    scalars are central; the embedded modes exist so tests can verify that.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if scalar_side not in ("scalar", "left", "right"):
        raise ValueError("scalar_side must be 'scalar', 'left' or 'right'")
    kind = variant_of(gf.denom_coeffs[0])
    if scalar_side == "scalar":
        return [Octonion._raw(comps, kind) for comps in zip(*gf_columns(gf, count))]
    r, s, t = (-c for c in gf.denom_coeffs[1:])
    zero_oct = Octonion.zero(kind)

    def times(coeff: Scalar, value: Octonion) -> Octonion:
        embedded = Octonion.from_scalar(coeff)
        return embedded * value if scalar_side == "left" else value * embedded

    num = gf.numerator.coeffs
    out: list[Octonion] = []
    for n in range(count):
        c = num[n] if n < len(num) else zero_oct
        if n >= 1:
            c = c + times(r, out[n - 1])
        if n >= 2:
            c = c + times(s, out[n - 2])
        if n >= 3:
            c = c + times(t, out[n - 3])
        out.append(c)
    return out


def format_polynomial(coeffs: tuple[Scalar, ...] | list[Scalar], var: str = "x") -> str:
    """Human-readable ascending-power polynomial, e.g. "24 + 20x + 13x^2"."""
    terms: list[str] = []
    for power, c in enumerate(coeffs):
        if not c:
            continue
        negative = c < 0
        mag = -c if negative else c
        if power == 0:
            body = _coeff_str(mag)
        else:
            xpart = var if power == 1 else f"{var}^{power}"
            body = xpart if mag == 1 else f"{_coeff_str(mag)}{xpart}"
        if not terms:
            terms.append(f"-{body}" if negative else body)
        else:
            terms.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(terms) if terms else "0"


def _coeff_str(value: Scalar) -> str:
    text = str(value)
    return f"({text})" if "/" in text else text
