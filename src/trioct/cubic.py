"""Numeric root machinery for the characteristic cubic x^3 - r*x^2 - s*x - t.

Only the positive-discriminant regime is supported: one real root and a
conjugate complex pair.  The sign of the discriminant is always decided in
exact rational arithmetic so a borderline value can never flip the branch;
the floating-point discriminant is carried as a value only.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator

from .scalars import RegimeError
from .sequences import RecurrenceParams, _check_index

# relative |vandermonde| floor below which the roots count as repeated
_SEPARATION_FACTOR = 1e-9

_NEEDS_DOUBLES = "out of float range; the root-based closed forms need doubles"


@dataclass(frozen=True)
class CubicRoots:
    """Roots of the characteristic cubic plus the derived closed-form data.

    alpha is the real root; omega1, omega2 the conjugate pair with omega1
    carrying the nonnegative imaginary part (a convention, either choice
    works).  The weights are the initial-value-dependent coefficients that
    attach to each root power in the closed forms; vandermonde is
    (alpha-omega1)*(alpha-omega2)*(omega1-omega2), the factor the norm
    formula divides by.
    """

    alpha: float
    omega1: complex
    omega2: complex
    discriminant: float
    vandermonde: complex
    weight_alpha: complex
    weight_omega1: complex
    weight_omega2: complex

    @cached_property
    def lines(self) -> dict[str, tuple[complex, complex, complex]]:
        """(x, weight, f'(x)) per root line "alpha", "omega1", "omega2".

        f'(x), the product of x minus each other root, is the Binet
        denominator of that root.  Computed once per roots object; treat
        the dict as read-only.
        """
        a = complex(self.alpha)
        w1, w2 = self.omega1, self.omega2
        return {
            "alpha": (a, self.weight_alpha, (a - w1) * (a - w2)),
            "omega1": (w1, self.weight_omega1, (w1 - a) * (w1 - w2)),
            "omega2": (w2, self.weight_omega2, (w2 - a) * (w2 - w1)),
        }


def discriminant_exact(params: RecurrenceParams) -> Fraction:
    """The regime discriminant as an exact rational (used for sign tests)."""
    r, s, t = Fraction(params.r), Fraction(params.s), Fraction(params.t)
    return (
        r**3 * t / 27
        - r**2 * s**2 / 108
        + r * s * t / 6
        - s**3 / 27
        + t**2 / 4
    )


def _real_cbrt(x: float) -> float:
    # sign-preserving real cube root; the radicands are real when disc > 0
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


@contextmanager
def _within_doubles(what: str) -> Iterator[None]:
    # a double overflowing inside the block is out of the closed forms' regime
    try:
        yield
    except OverflowError:
        raise RegimeError(f"{what} {_NEEDS_DOUBLES}") from None


def _out_of_range(n: int, what: str = "the root powers") -> RegimeError:
    return RegimeError(f"{what} at n = {n} are {_NEEDS_DOUBLES}")


def _finite(value, n: int):
    # complex products and sums overflow to inf or nan without raising
    if not all(map(cmath.isfinite, getattr(value, "components", (value,)))):
        raise _out_of_range(n)
    return value


def _double(name: str, value: int | Fraction) -> float:
    with _within_doubles(f"{name} is"):
        return float(value)


def cubic_roots(params: RecurrenceParams) -> CubicRoots:
    """Solve the characteristic cubic in the one-real-two-complex regime.

    Raises RegimeError when the exact discriminant is <= 0, when the
    computed roots are too close to repeated for the closed forms to be
    well conditioned, or when a parameter, the discriminant or the roots
    are out of double-precision range.
    """
    disc = discriminant_exact(params)
    if disc <= 0:
        raise RegimeError(
            f"discriminant {disc} <= 0: need one real and two conjugate "
            "complex roots"
        )
    r, s, t = (_double(f"coefficient {k}", getattr(params, k)) for k in "rst")
    v0, v1, v2 = (complex(_double(f"initial value {k}", getattr(params, k))) for k in ("v0", "v1", "v2"))
    sq = math.sqrt(_double("the discriminant", disc))
    with _within_doubles("the roots or their weights are"):
        base = r**3 / 27 + r * s / 6 + t / 2
        big = _real_cbrt(base + sq)
        small = _real_cbrt(base - sq)
        alpha = r / 3 + big + small
        re = r / 3 - (big + small) / 2
        im = math.sqrt(3.0) / 2 * (big - small)  # big >= small, so im >= 0
        omega1 = complex(re, im)
        omega2 = complex(re, -im)

        a = complex(alpha)
        vandermonde = (a - omega1) * (a - omega2) * (omega1 - omega2)
        scale = (1.0 + max(abs(r), abs(s), abs(t))) ** 3
        weight_alpha = v2 - (omega1 + omega2) * v1 + (omega1 * omega2) * v0
        weight_omega1 = v2 - (a + omega2) * v1 + (a * omega2) * v0
        weight_omega2 = v2 - (a + omega1) * v1 + (a * omega1) * v0
        if not all(map(cmath.isfinite, (vandermonde, weight_alpha, weight_omega1, weight_omega2))):
            raise OverflowError
    if abs(vandermonde) < _SEPARATION_FACTOR * scale:
        raise RegimeError("roots are numerically repeated; closed forms rejected")

    return CubicRoots(
        alpha=alpha,
        omega1=omega1,
        omega2=omega2,
        discriminant=float(disc),
        vandermonde=vandermonde,
        weight_alpha=weight_alpha,
        weight_omega1=weight_omega1,
        weight_omega2=weight_omega2,
    )


def _window(lo: int, hi: int) -> range:
    """The indices lo .. hi - 1 of a closed form's window; ValueError unless 0 <= lo <= hi."""
    _check_index(lo)
    if hi < lo:
        raise ValueError(f"a window needs lo <= hi, got {lo} .. {hi}")
    return range(lo, hi)


def _upto_overflow(f: Callable, items: Iterable) -> list:
    """f of each item, up to the first whose double overflows (OverflowError)."""
    out = []
    try:
        for item in items:
            out.append(f(item))
    except OverflowError:
        pass
    return out


def _complete(values: list, lo: int, hi: int) -> list:
    # a window whose shared values stopped short fails at the first index they miss
    if len(values) < hi - lo:
        raise _out_of_range(lo + len(values))
    return values


def _binet_parts(roots: CubicRoots, lo: int, hi: int, which: str) -> list[tuple[complex, complex, complex]]:
    """The part of each root line at n = lo .. hi - 1, up to the first n whose root power overflows.

    A part is weight*x**n/f'(x) for which="v" and x**(n+1)/f'(x) for "u",
    one power per root and index.
    """
    _window(lo, hi)
    if which not in ("v", "u"):
        raise ValueError(f"which must be 'v' or 'u', got {which!r}")
    shift = which == "u"
    parts = []
    for x, weight, fprime in roots.lines.values():
        powers = _upto_overflow(partial(pow, x), range(lo + shift, hi + shift))
        parts.append([p / fprime for p in powers] if shift else [weight * p / fprime for p in powers])
    return list(zip(*parts))


def binet_scalars(roots: CubicRoots, lo: int, hi: int, which: str = "v") -> list[complex]:
    """Closed-form terms lo .. hi - 1 from root powers (see binet_scalar).

    RegimeError, with binet_scalar's message, at the first index whose
    root power or result leaves double range.
    """
    out = [_finite(a + b + c, n) for n, (a, b, c) in enumerate(_binet_parts(roots, lo, hi, which), lo)]
    return _complete(out, lo, hi)


def binet_scalar(roots: CubicRoots, n: int, which: str = "v") -> complex:
    """Closed-form n-th term from root powers.

    which="v" uses the family weights stored in `roots`; which="u" is the
    companion family (weights reduce to pure root powers).  The result is
    complex with a tiny imaginary residue; the real part approximates the
    exact integer/rational term.  RegimeError once a root power or the
    result leaves double range.  The window of one index of binet_scalars.
    """
    return binet_scalars(roots, n, n + 1, which)[0]


def newton_refine_real_root(params: RecurrenceParams, start: float, sweeps: int = 60) -> float:
    """Independent polishing of a real root of x^3 - r*x^2 - s*x - t.

    Plain Newton iteration from `start`; used as an oracle against the
    closed-form construction, not by it.
    """
    r = float(params.r)
    s = float(params.s)
    t = float(params.t)
    x = start
    for _ in range(sweeps):
        f = ((x - r) * x - s) * x - t
        df = (3 * x - 2 * r) * x - s
        if df == 0:
            break
        step = f / df
        x -= step
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return x
