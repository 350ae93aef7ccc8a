"""Octonion lifts of third-order recurrence sequences and their identities.

The lift of a family at index n is the octonion whose components are the
eight consecutive exact terms (term(n), ..., term(n+7)).  Identities that
hold term by term (recurrence, prefix sums, index shifts) are computed in
exact arithmetic; only the root-based closed forms (Binet, norm, quadratic
approximation) use floating point.

An OctSequenceContext caches lines, each filled lazily: one of the exact
terms, jumped to its first index and stepped up, and one per weight triple
(a, b, c) of the three-term combinations a*x(k+2) + b*x(k+1) + c*x(k).  A
line holds one value per index over a contiguous range that starts at the
first index asked for and grows down or up as later requests need, so each
value is computed once.  The context is otherwise read-only; extending a
line from two threads at once is not safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice
from typing import Callable

from .cubic import CubicRoots, _binet_parts, _finite, _within_doubles, binet_scalar, cubic_roots
from .octonion import Octonion
from .scalars import COMPLEX, INT, RATIONAL, RegimeError, Scalar, as_complex
from .sequences import RecurrenceParams, _check_index, _closed_form_sum, _expansion_weights, _stepped
from .sequences import sum_constant, terms

_TERMS = "terms"  # the term line's key in OctSequenceContext._lines


def sum_correction(params: RecurrenceParams) -> Octonion:
    """The constant octonion closing the prefix-sum formula, exact rational.

    Component l is lam - delta*(term(0)+...+term(l-1)) with
    lam = sum_constant (empty sum at l = 0).
    """
    lam = Fraction(sum_constant(params, params.s))
    d = Fraction(params.delta)
    running = accumulate(islice(terms(params), 7), initial=0)
    return Octonion._raw(tuple(lam - d * x for x in running), RATIONAL)


class OctSequenceContext:
    """The lines of one family's exact terms and three-term combinations (see the
    module docstring), plus its lazy sum correction and root data."""

    def __init__(self, params: RecurrenceParams):
        self.params = params
        self._kind = params.variant
        self._weights: dict[int, tuple[Scalar, Scalar, Scalar]] = {}
        # key -> [start, values]: values[i] belongs to index start + i (see _span)
        self._lines: dict[object, list] = {}

    @cached_property
    def roots(self) -> CubicRoots:
        """Cubic-root data for the family; RegimeError outside disc > 0, on every access."""
        return cubic_roots(self.params)

    @cached_property
    def correction(self) -> tuple[Scalar, ...]:
        """The components of sum_correction that sum_octonions adds; ints for an int family."""
        correction = sum_correction(self.params).components
        return tuple(map(int, correction)) if self._kind == INT else correction

    def _span(self, key: object, n: int, width: int, values: Callable[..., list], *args) -> list:
        """The values of key's line at n .. n + width - 1.

        A new line starts at n.  values(lo, hi, *args) computes the line at
        lo .. hi - 1; a request past either end extends the line to it,
        gap included, so the line stays contiguous and no value is computed
        twice.  If values raises, the line keeps the values it held.
        """
        span = self._lines.get(key)
        if span is None:
            span = self._lines[key] = [_check_index(n), values(n, n + width, *args)]
        start, line = span
        i = n - start
        if i < 0 or i + width > len(line):
            _check_index(n)
            end = start + len(line)
            if n + width > end:
                line += values(end, n + width, *args)
            if i < 0:
                line[:0] = values(n, start, *args)
                span[0], i = n, 0
        return line[i : i + width]

    def line(self, lo: int, hi: int, weights: tuple[Scalar, Scalar, Scalar] | None = None) -> list[Scalar]:
        """A stretch of one of the context's lines: its values at lo .. hi - 1.

        Without weights, the exact terms; with weights (a, b, c), which share
        the family's variant, the combinations a*x(k+2) + b*x(k+1) + c*x(k).
        A stretch the line already covers is read, not computed.
        """
        if hi < lo:
            raise ValueError(f"a stretch needs lo <= hi, got {lo} .. {hi}")
        if weights is None:
            return self._span(_TERMS, lo, hi - lo, self._term_values)
        return self._span(weights, lo, hi - lo, self._combination, *weights)

    def _term_values(self, lo: int, hi: int) -> list[Scalar]:
        # the term line's values: stepped on from its last three as it grows up, else jumped to
        span = self._lines.get(_TERMS)
        if span is not None and span[0] + len(span[1]) == lo and len(span[1]) >= 3:
            return list(islice(_stepped(self.params, *span[1][-3:]), 3, 3 + hi - lo))
        return list(islice(terms(self.params, start=lo), hi - lo))

    def seq(self, n: int) -> Scalar:
        """Exact n-th term of the family (cached)."""
        # three terms, so that the line has three to step on from
        return self.line(n, n + 3)[0]

    # -- the lift and its exact identities ---------------------------------

    def oct_term(self, n: int) -> Octonion:
        """Octonion with components (term(n), ..., term(n+7)), exact."""
        # cached terms share the validated parameters' variant
        return Octonion._raw(tuple(self.line(n, n + 8)), self._kind)

    def norm_sq(self, n: int) -> Scalar:
        """Exact squared norm of the lift: sum of the eight squared terms."""
        return self.oct_term(n).norm_sq()

    def _combine(self, n: int, a: Scalar, b: Scalar, c: Scalar) -> Octonion:
        """a*O(n+2) + b*O(n+1) + c*O(n), exact; a, b, c share the family's variant.

        Component l is a*x(k+2) + b*x(k+1) + c*x(k) at k = n + l, read from
        the line of (a, b, c), which computes it once per index.
        """
        return Octonion._raw(tuple(self.line(n, n + 8, (a, b, c))), self._kind)

    def _combination(self, lo: int, hi: int, a: Scalar, b: Scalar, c: Scalar) -> list[Scalar]:
        x = self.line(lo, hi + 2)
        # a loop, not a comprehension: most calls add one value
        out = []
        for k in range(hi - lo):
            out.append(a * x[k + 2] + b * x[k + 1] + c * x[k])
        return out

    def recurrence_check(self, n: int) -> tuple[Octonion, Octonion]:
        """(r*O(n+1) + s*O(n) + t*O(n-1), O(n+2)) for n >= 1; equal exactly.

        (r, s, t) are the shift weights at m = 3 (see shift_coefficients) and are read from there.
        """
        if n < 1:
            raise ValueError("the lifted recurrence is stated for n >= 1")
        return self._combine(n - 1, *self.shift_coefficients(3)), self.oct_term(n + 2)

    def oct_prefix_sums(self, n: int) -> list[Octonion]:
        """Direct summation oracle [O(0), O(0)+O(1), ..., O(0)+...+O(n)], exact rational.

        Component l of the k-th sum is term(l) + ... + term(k+l), accumulated once from the term line.
        """
        x = self.line(0, _check_index(n) + 8)
        columns = (accumulate(x[l : n + l + 1]) for l in range(8))
        return [Octonion._raw(sums, self._kind).as_rational() for sums in zip(*columns)]

    def oct_prefix_sum(self, n: int) -> Octonion:
        """Direct summation oracle O(0) + ... + O(n), exact rational (see oct_prefix_sums)."""
        return self.oct_prefix_sums(n)[n]

    def sum_octonions(self, n: int) -> Octonion:
        """Closed form for O(0) + ... + O(n), exact rational.

        (O(n+2) + (1-r)*O(n+1) + t*O(n) + sum_correction) / delta; undefined
        when delta == 0.
        """
        sums = _closed_form_sum(
            self.params, lambda a, b, c: self._combine(n, a, b, c).components, self.correction
        )
        return Octonion._raw(tuple(sums), RATIONAL)

    def shift_formula(self, n: int, m: int) -> tuple[Octonion, Octonion]:
        """Index-shift convolution: O(n+m) from O(n), O(n+1), O(n+2).

        rhs = U(m-1)*O(n+2) + (s*U(m-2) + t*U(m-3))*O(n+1) + t*U(m-2)*O(n)
        with U the companion family; needs m >= 3 (U at negative indices is
        undefined).  Returns (lhs, rhs), equal exactly.
        """
        weights = self.shift_coefficients(m)
        return self.oct_term(n + m), self._combine(n, *weights)

    def shift_coefficients(self, m: int) -> tuple[Scalar, Scalar, Scalar]:
        """The weights of O(n+2), O(n+1), O(n) in O(n+m), for any n.

        (U(m-1), s*U(m-2) + t*U(m-3), t*U(m-2)); needs m >= 3.
        """
        if m < 3:
            raise RegimeError("the shift convolution is stated for m >= 3")
        if m not in self._weights:
            self._weights[m] = _expansion_weights(self.params, m)
        return self._weights[m]

    # -- root-based closed forms (floating point) ---------------------------

    def oct_binet(self, n: int) -> Octonion:
        """Closed form of the lift from root powers, complex variant.

        Componentwise it approximates oct_term(n): scalars commute with the
        basis, so component l is the scalar Binet form (see
        cubic.binet_scalar) with each root x's part times x**l.
        """
        (a, p_a), (b, p_b), (c, p_c) = _binet_parts(self.roots, n, "v")
        # the omega1 line is subtracted with its part negated back: adding
        # it gives the same values, but a component that cancels to zero
        # inside the product (x*y - x*y is +0.0) could flip its zero's sign
        comps = tuple(p_a * a**l - -p_b * b**l + p_c * c**l for l in range(8))
        return _finite(Octonion._raw(comps, COMPLEX), n)

    def binet_term(self, n: int, which: str = "v") -> complex:
        """Scalar closed form (see cubic.binet_scalar) for this context."""
        return binet_scalar(self.roots, n, which)

    def norm_formula_complex(self, n: int) -> complex:
        """Closed form of norm_sq(n) before dropping the imaginary residue.

        Its real part is the closed form; the imaginary part shows how much
        the floating evaluation leaked.
        """
        ro = self.roots
        (a, wa, _), (w1, wq, _), (w2, wr, _) = ro.lines.values()
        d12, da1, da2 = w1 - w2, a - w1, a - w2

        def even_powers(x: complex) -> complex:
            return sum(x ** (2 * l) for l in range(8))

        def geometric8(x: complex) -> complex:
            return sum(x**l for l in range(8))

        with _within_doubles(f"the root powers at n = {n} are"):
            main = (
                d12**2 * wa**2 * even_powers(a) * a ** (2 * n)
                + da2**2 * wq**2 * even_powers(w1) * w1 ** (2 * n)
                + da1**2 * wr**2 * even_powers(w2) * w2 ** (2 * n)
            )
            # cross terms carry the signs of the squared three-term expansion:
            # the alpha/omega2 pair enters positively, so it is subtracted inside
            # the bracket below (the whole bracket is then subtracted twice)
            cross = (
                d12 * da2 * wa * wq * geometric8(a * w1) * (a * w1) ** n
                - d12 * da1 * wa * wr * geometric8(a * w2) * (a * w2) ** n
                + da1 * da2 * wq * wr * geometric8(w1 * w2) * (w1 * w2) ** n
            )
            return _finite((main - 2 * cross) / ro.vandermonde**2, n)

    def quad_residual(self, n: int, which_root: str) -> float:
        """Worst componentwise residual of the quadratic three-term approximation.

        Component l compares weight * x**(n+2) * x**l, x the named line's
        root, with component l of x^2*O(n+2) + x*(s*O(n+1) + t*O(n)) +
        t*O(n+1), the terms promoted to complex.  On the conjugate-root
        lines these addends, comparable to the dominant root's n-th power,
        cancel down to nearly nothing, so each residual is normalized by the
        largest addend entering it, the natural scale for a cancellation check.
        """
        lines = self.roots.lines
        if which_root not in lines:
            raise ValueError(f"which_root must be one of {tuple(lines)}, got {which_root!r}")
        x, weight, _ = lines[which_root]
        s, t = as_complex(self.params.s), as_complex(self.params.t)
        with _within_doubles(f"the root powers or terms at n = {n} are"):
            scale = weight * x ** (n + 2)
            lhs = [scale * x**l for l in range(8)]
            z = [as_complex(v) for v in self.line(n, n + 10)]
            parts = [(x * x * z[l + 2], x * (s * z[l + 1] + t * z[l]), t * z[l + 1]) for l in range(8)]
            rhs = [p + q + r for p, q, r in parts]
            for value in lhs + rhs:
                _finite(value, n)
            worst = 0.0
            for a, b, addends in zip(lhs, rhs, parts):
                worst = max(worst, abs(a - b) / max(1.0, abs(a), *map(abs, addends)))
            return _finite(worst, n)
