"""Scalar coefficient variants shared by every module.

Three closed variants are supported: arbitrary-precision integers (``int``),
exact rationals (:class:`fractions.Fraction`) and double-precision complex
numbers (``complex``).  A value never changes variant implicitly; callers
convert with :func:`as_rational` or :func:`as_complex`.  Plain floats are
rejected at every boundary so the exact code paths stay exact.
"""

from __future__ import annotations

from fractions import Fraction

INT = "int"
RATIONAL = "rational"
COMPLEX = "complex"

EXACT_VARIANTS = (INT, RATIONAL)

Scalar = int | Fraction | complex


class VariantError(TypeError):
    """A scalar is unsupported or two variants were mixed."""


class RegimeError(ValueError):
    """A closed-form identity was requested outside its hypotheses."""


def variant_of(value: Scalar) -> str:
    """Classify ``value`` into one of the three scalar variants."""
    if type(value) is int:
        return INT
    if isinstance(value, Fraction):
        return RATIONAL
    if type(value) is complex:
        return COMPLEX
    raise VariantError(
        f"unsupported scalar {value!r} ({type(value).__name__}); "
        "use int, Fraction or complex, converting floats explicitly"
    )


def zero(variant: str) -> Scalar:
    return _ZEROS[variant]


def one(variant: str) -> Scalar:
    return _ONES[variant]


_ZEROS: dict[str, Scalar] = {INT: 0, RATIONAL: Fraction(0), COMPLEX: 0j}
_ONES: dict[str, Scalar] = {INT: 1, RATIONAL: Fraction(1), COMPLEX: 1 + 0j}


def as_rational(value: Scalar) -> Fraction:
    """Explicit widening to the exact rational variant."""
    kind = variant_of(value)
    if kind == COMPLEX:
        raise VariantError("cannot narrow a complex scalar to an exact rational")
    return value if kind == RATIONAL else Fraction(value)


def as_complex(value: Scalar) -> complex:
    """Explicit (possibly lossy) conversion to the complex-float variant."""
    if type(value) is complex or variant_of(value) == COMPLEX:
        return value
    return complex(float(value))


def format_scalar(value: Scalar) -> str:
    """Canonical string form: decimal int, lowest-terms ``p/q``, or ``re+imi``.

    Complex parts are printed with 17 significant digits, enough to
    round-trip any double.
    """
    kind = variant_of(value)
    if kind in EXACT_VARIANTS:
        return str(value)
    return f"{value.real:.17g}{value.imag:+.17g}i"


def parse_exact(text: str) -> int | Fraction:
    """Parse a decimal integer or a rational ``p/q``; anything else errors.

    Floats are rejected on purpose: exact inputs keep the exact identity
    checks exact.
    """
    s = text.strip()
    if _is_signed_integer(s):
        return int(s)
    num, sep, den = s.partition("/")
    if sep and _is_signed_integer(num) and den.isdigit() and int(den) > 0:
        return Fraction(int(num), int(den))
    raise ValueError(f"expected an integer or rational 'p/q', got {text!r}")


def _is_signed_integer(s: str) -> bool:
    body = s[1:] if s[:1] in "+-" else s
    return body.isdigit()
