"""Octonion lifts of third-order recurrence sequences and their identities.

The lift of a family at index n is the octonion whose components are the
eight consecutive exact terms (term(n), ..., term(n+7)).  Identities that
hold term by term (recurrence, prefix sums, index shifts) are computed in
exact arithmetic; only the root-based closed forms (Binet, norm, quadratic
approximation) use floating point.  Each of those is one window evaluator
over the indices lo .. hi - 1 that computes what its indices share once
(root powers, the terms as complex, the quadratic form's right side per
term); its single-index method is the window of one, with the same bits.

An OctSequenceContext caches one line of the exact terms, filled lazily:
jumped to the first index asked for and stepped up, it holds one value
per index over a contiguous range that grows down or up as later
requests need, so each term is computed once.  Every three-term
combination a*O(n+2) + b*O(n+1) + c*O(n) is computed from the ten terms
it reads.  verify decides every family's exact identities on packed
windows of that line.  The shift weights for m = 3, 4, ... come from one
companion stream, read on by one value per m.  The context is otherwise
read-only; extending the line or the stream from two threads at once is
not safe.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice
from typing import Iterator

from .cubic import CubicRoots, _binet_parts, _complete, _finite, _out_of_range, _upto_overflow, _window
from .cubic import binet_scalar, cubic_roots
from .octonion import Octonion
from .scalars import COMPLEX, INT, RATIONAL, RegimeError, Scalar, as_complex
from .sequences import RecurrenceParams, _check_index, _closed_form_sum, _companion_windows
from .sequences import _expansion_weights, _stepped, sum_constant, terms


def sum_correction(params: RecurrenceParams) -> Octonion:
    """The constant octonion closing the prefix-sum formula, exact rational.

    Component l is lam - delta*(term(0)+...+term(l-1)) with
    lam = sum_constant (empty sum at l = 0).
    """
    lam, d = sum_constant(params, params.s), params.delta
    running = accumulate(islice(terms(params), 7), initial=0)
    # computed in the family's variant, each component converted once
    return Octonion._raw(tuple(Fraction(lam - d * x) for x in running), RATIONAL)


class OctSequenceContext:
    """The line of one family's exact terms (see the module docstring), plus
    its lazy sum correction and root data."""

    def __init__(self, params: RecurrenceParams):
        self.params = params
        self._kind = params.variant
        self._weights: dict[int, tuple[Scalar, Scalar, Scalar]] = {}
        # the last m the weights were computed for and the companion windows after its own
        self._companion: tuple[int, Iterator] = (0, iter(()))
        # [start, values]: values[i] is the term at index start + i (see line)
        self._line: list | None = None

    @cached_property
    def roots(self) -> CubicRoots:
        """Cubic-root data for the family; RegimeError outside disc > 0, on every access."""
        return cubic_roots(self.params)

    @cached_property
    def correction(self) -> tuple[Scalar, ...]:
        """The components of sum_correction that sum_octonions adds; ints for an int family."""
        correction = sum_correction(self.params).components
        return tuple(map(int, correction)) if self._kind == INT else correction

    def line(self, lo: int, hi: int) -> list[Scalar]:
        """The exact terms at lo .. hi - 1, from the context's line.

        A new line starts at lo.  _term_values(lo, hi) computes the terms at
        lo .. hi - 1; a request past either end extends the line to it, gap
        included, so the line stays contiguous and no term is computed
        twice.  If _term_values raises, the line keeps the terms it held.
        """
        if hi < lo:
            raise ValueError(f"a stretch needs lo <= hi, got {lo} .. {hi}")
        if self._line is None:
            self._line = [_check_index(lo), self._term_values(lo, hi)]
        start, line = span = self._line
        end = start + len(line)
        if lo < start or hi > end:
            _check_index(lo)
            if hi > end:
                line += self._term_values(end, hi)
            if lo < start:
                line[:0] = self._term_values(lo, start)
                span[0] = start = lo
        return line[lo - start : hi - start]

    def _term_values(self, lo: int, hi: int) -> list[Scalar]:
        # the line's values: stepped on from its last three as it grows up, else jumped to
        span = self._line
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

        Component l is a*x(k+2) + b*x(k+1) + c*x(k) at k = n + l, from the
        terms n .. n + 9.
        """
        x = self.line(n, n + 10)
        return Octonion._raw(tuple(a * x[k + 2] + b * x[k + 1] + c * x[k] for k in range(8)), self._kind)

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
            # U(m-3) .. U(m-1): one companion stream's next window while m grows by one, else jumped to
            last, windows = self._companion
            if m != last + 1:
                windows = _companion_windows(self.params, m)
            u = next(windows)
            self._companion = m, windows
            self._weights[m] = _expansion_weights(self.params, m, u)
        return self._weights[m]

    # -- root-based closed forms (floating point) ---------------------------

    def oct_binets(self, lo: int, hi: int) -> list[Octonion]:
        """Closed forms of the lifts at lo .. hi - 1 from root powers, complex variant.

        Componentwise each approximates its oct_term: scalars commute with the
        basis, so component l is the scalar Binet form (see
        cubic.binet_scalar) with each root x's part times x**l.  RegimeError
        at the first index whose root powers or components leave double range.
        """
        a8, b8, c8 = ([x**l for l in range(8)] for x, _, _ in self.roots.lines.values())
        out = []
        for n, (p_a, p_b, p_c) in enumerate(_binet_parts(self.roots, lo, hi, "v"), lo):
            # the omega1 line is subtracted with its part negated back: adding
            # it gives the same values, but a component that cancels to zero
            # inside the product (x*y - x*y is +0.0) could flip its zero's sign
            comps = tuple(p_a * a - -p_b * b + p_c * c for a, b, c in zip(a8, b8, c8))
            out.append(_finite(Octonion._raw(comps, COMPLEX), n))
        return _complete(out, lo, hi)

    def oct_binet(self, n: int) -> Octonion:
        """Closed form of the lift at n: the window of one index of oct_binets."""
        return self.oct_binets(n, n + 1)[0]

    def binet_term(self, n: int, which: str = "v") -> complex:
        """Scalar closed form (see cubic.binet_scalar) for this context."""
        return binet_scalar(self.roots, n, which)

    def norm_formulas_complex(self, lo: int, hi: int) -> list[complex]:
        """Closed forms of norm_sq at lo .. hi - 1 before dropping the imaginary residue.

        Each real part is the closed form; the imaginary part shows how much
        the floating evaluation leaked.  RegimeError at the first index whose
        root powers or result leave double range.
        """
        ro = self.roots
        (a, wa, _), (w1, wq, _), (w2, wr, _) = ro.lines.values()
        d12, da1, da2 = w1 - w2, a - w1, a - w2
        aw1, aw2, w12 = a * w1, a * w2, w1 * w2

        def even_powers(x: complex) -> complex:
            return sum(x ** (2 * l) for l in range(8))

        def geometric8(x: complex) -> complex:
            return sum(x**l for l in range(8))

        indices, out = _window(lo, hi), []
        if not indices:
            return out
        n = lo
        try:
            # each addend's factors but its power of n, multiplied left to right as at every index
            main_a = d12**2 * wa**2 * even_powers(a)
            main_q = da2**2 * wq**2 * even_powers(w1)
            main_r = da1**2 * wr**2 * even_powers(w2)
            cross_a = d12 * da2 * wa * wq * geometric8(aw1)
            cross_q = d12 * da1 * wa * wr * geometric8(aw2)
            cross_r = da1 * da2 * wq * wr * geometric8(w12)
            vandermonde2 = ro.vandermonde**2
            for n in indices:
                main = main_a * a ** (2 * n) + main_q * w1 ** (2 * n) + main_r * w2 ** (2 * n)
                # cross terms carry the signs of the squared three-term expansion:
                # the alpha/omega2 pair enters positively, so it is subtracted inside
                # the bracket below (the whole bracket is then subtracted twice)
                cross = cross_a * aw1**n - cross_q * aw2**n + cross_r * w12**n
                out.append(_finite((main - 2 * cross) / vandermonde2, n))
        except OverflowError:
            raise _out_of_range(n) from None
        return out

    def norm_formula_complex(self, n: int) -> complex:
        """Closed form of norm_sq(n): the window of one index of norm_formulas_complex."""
        return self.norm_formulas_complex(n, n + 1)[0]

    def quad_residuals(self, lo: int, hi: int, which_root: str) -> list[float]:
        """Worst componentwise residuals of the quadratic three-term approximation at lo .. hi - 1.

        Component l at n compares weight * x**(n+2) * x**l, x the named line's
        root, with component l of x^2*O(n+2) + x*(s*O(n+1) + t*O(n)) +
        t*O(n+1), the terms promoted to complex.  On the conjugate-root
        lines these addends, comparable to the dominant root's n-th power,
        cancel down to nearly nothing, so each residual is normalized by the
        largest addend entering it, the natural scale for a cancellation check.
        The addends depend on k = n + l only and are computed once per k.

        RegimeError at the first index whose root powers, terms or residual
        leave double range, with the message quad_residual gives there.
        """
        lines = self.roots.lines
        if which_root not in lines:
            raise ValueError(f"which_root must be one of {tuple(lines)}, got {which_root!r}")
        x, weight, _ = lines[which_root]
        s, t = as_complex(self.params.s), as_complex(self.params.t)
        # each up to its first overflow: weight * x**(n+2) per n, then the terms
        # those indices read, as complex
        scales = _upto_overflow(lambda n: weight * x ** (n + 2), _window(lo, hi))
        z = _upto_overflow(as_complex, self.line(lo, lo + len(scales) + 9) if scales else ())
        # per k - lo: the right side and the largest size of its addends
        xx, rhs, sizes = x * x, [], []
        for k in range(len(z) - 2):
            p, q, r = xx * z[k + 2], x * (s * z[k + 1] + t * z[k]), t * z[k + 1]
            rhs.append(p + q + r)
            try:
                sizes.append(max(abs(p), abs(q), abs(r)))
            except OverflowError:
                sizes.append(math.inf)  # fails each index that reads it, once its sides are finite
        powers, out = [x**l for l in range(8)], []
        n = lo
        try:
            for i, n in enumerate(range(lo, hi)):
                if i >= len(scales) or i + 10 > len(z):
                    raise OverflowError
                lhs, right, size = [scales[i] * power for power in powers], rhs[i : i + 8], sizes[i : i + 8]
                if not all(map(cmath.isfinite, lhs + right)):
                    raise _out_of_range(n)
                if math.inf in size:
                    raise OverflowError
                residuals = [abs(a - b) / max(1.0, abs(a), c) for a, b, c in zip(lhs, right, size)]
                out.append(_finite(max(0.0, *residuals), n))
        except OverflowError:
            raise _out_of_range(n, "the root powers or terms") from None
        return out

    def quad_residual(self, n: int, which_root: str) -> float:
        """The quadratic approximation's residual at n: the window of one index of quad_residuals."""
        return self.quad_residuals(n, n + 1, which_root)[0]
