"""Octonion algebra over a pluggable scalar variant.

Elements live on the ordered basis (e0, e1, ..., e7) with e0 the identity
and every other basis unit squaring to -1.  Basis products are stored as a
literal signed lookup table so all 64 cases can be audited entry by entry;
the table is validated against its structural invariants at import time.
The table is the only source of the product: both plans below are derived
from it at import and checked there.  Integer products run on plain ints;
rational products run the same code on numerators scaled to a common
denominator and build one normalised Fraction per component.  When both
operands have a component of at least 384 bits (``_WIDE``), a product takes
36 big products instead of 64.  e_i*e_j and e_j*e_i land in the same slot,
with equal signs when 0 is in {i, j} and opposite signs otherwise, so the
eight a_l*b_l and one product per unordered pair {i, j} give every slot.
Below the cutoff each slot sums its eight signed ``(i, j)`` terms, 64 in
all, which costs less there.  Complex products sum the same 64 terms in
row order and skip a term when either factor is zero, which fixes the
order and the rounding of the floating-point sums.

All values are immutable after construction and every operation is a pure
function, so octonions are safe to share freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .scalars import (
    COMPLEX,
    INT,
    RATIONAL,
    Scalar,
    VariantError,
    as_complex,
    as_rational,
    one,
    variant_of,
    zero,
)

# e_i * e_j = sign * e_k, written as (sign, k); row i, column j.
_BASIS_PRODUCTS = (
    ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2), (1, 5), (-1, 4), (-1, 7), (1, 6)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1), (1, 6), (1, 7), (-1, 4), (-1, 5)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0), (1, 7), (-1, 6), (1, 5), (-1, 4)),
    ((1, 4), (-1, 5), (-1, 6), (-1, 7), (-1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 5), (1, 4), (-1, 7), (1, 6), (-1, 1), (-1, 0), (-1, 3), (1, 2)),
    ((1, 6), (1, 7), (1, 4), (-1, 5), (-1, 2), (1, 3), (-1, 0), (-1, 1)),
    ((1, 7), (-1, 6), (1, 5), (1, 4), (-1, 3), (-1, 2), (1, 1), (-1, 0)),
)


@dataclass(frozen=True)
class MultiplicationTable:
    """Signed basis-product lookup: ``e_i * e_j = sign[i][j] * e_index[i][j]``."""

    sign: tuple[tuple[int, ...], ...]
    index: tuple[tuple[int, ...], ...]

    def validate(self) -> None:
        """Check the structural invariants of a basis table.

        Identity row and column, imaginary units squaring to -1,
        anti-commutativity off the diagonal, and each row being a signed
        permutation of the basis.
        """
        for j in range(8):
            if self.sign[0][j] != 1 or self.index[0][j] != j:
                raise ValueError(f"row 0 must be the identity, broken at column {j}")
            if self.sign[j][0] != 1 or self.index[j][0] != j:
                raise ValueError(f"column 0 must be the identity, broken at row {j}")
        for i in range(1, 8):
            if self.sign[i][i] != -1 or self.index[i][i] != 0:
                raise ValueError(f"e{i}^2 must be -e0")
            if set(self.index[i]) != set(range(8)):
                raise ValueError(f"row {i} is not a signed permutation of the basis")
        for i in range(1, 8):
            for j in range(1, 8):
                if self.sign[i][j] not in (-1, 1) or not 0 <= self.index[i][j] <= 7:
                    raise ValueError(f"malformed entry at ({i}, {j})")
                if i != j:
                    if self.index[i][j] != self.index[j][i]:
                        raise ValueError(f"index symmetry broken at ({i}, {j})")
                    if self.sign[i][j] != -self.sign[j][i]:
                        raise ValueError(f"anti-commutativity broken at ({i}, {j})")


MULTIPLICATION_TABLE = MultiplicationTable(
    sign=tuple(tuple(s for s, _ in row) for row in _BASIS_PRODUCTS),
    index=tuple(tuple(k for _, k in row) for row in _BASIS_PRODUCTS),
)
MULTIPLICATION_TABLE.validate()


_Terms = tuple[tuple[int, int], ...]


def _slot_terms(table: MultiplicationTable) -> tuple[tuple[_Terms, _Terms], ...]:
    """Per output slot k: the ``(i, j)`` with ``e_i * e_j = +e_k``, then with ``-e_k``."""
    slots: list[tuple[list, list]] = [([], []) for _ in range(8)]
    for i in range(8):
        for j in range(8):
            slots[table.index[i][j]][table.sign[i][j] < 0].append((i, j))
    for k, (pos, neg) in enumerate(slots):
        if sorted(i for i, _ in pos + neg) != list(range(8)):
            raise ValueError(f"slot {k} does not take exactly one term from each row")
    return tuple((tuple(pos), tuple(neg)) for pos, neg in slots)


_SLOTS = _slot_terms(MULTIPLICATION_TABLE)

# the indices of the products a slot adds, then of those it subtracts
_Signed = tuple[tuple[int, ...], tuple[int, ...]]


def _pair_plan(table: MultiplicationTable) -> tuple[tuple[tuple[int, int, bool], ...], tuple[_Signed, ...]]:
    """The pairs (i, j, same), i < j, and per slot the products it adds and subtracts.

    Products 0..7 are d_l = a_l*b_l; product 8 + m belongs to pair m.  When
    e_i*e_j and e_j*e_i have the same sign it is (a_i + a_j)*(b_i + b_j) =
    a_i*b_j + a_j*b_i + d_i + d_j, otherwise (a_i + a_j)*(b_j - b_i) =
    a_i*b_j - a_j*b_i - d_i + d_j.
    """
    pairs: list[tuple[int, int, bool]] = []
    slots: list[tuple[list, list]] = [([], []) for _ in range(8)]
    for i in range(8):
        if table.index[i][i] != 0:
            raise ValueError(f"e{i}*e{i} does not land in slot 0")
        slots[0][table.sign[i][i] < 0].append(i)
    for i in range(8):
        for j in range(i + 1, 8):
            k, sign = table.index[i][j], table.sign[i][j]
            if table.index[j][i] != k:
                raise ValueError(f"e{i}*e{j} and e{j}*e{i} land in different slots")
            same = table.sign[j][i] == sign
            if same != (i == 0):
                raise ValueError(f"e{i}*e{j} and e{j}*e{i} have the wrong relative sign")
            pos, neg = slots[k] if sign > 0 else slots[k][::-1]
            pos.append(8 + len(pairs))
            pairs.append((i, j, same))
            if same:
                neg += [i, j]
            else:
                pos.append(i)
                neg.append(j)
    for k in range(1, 8):
        if sum(table.index[i][j] == k for i, j, _ in pairs) != 4:
            raise ValueError(f"slot {k} does not get exactly four pairs")
    return tuple(pairs), tuple((tuple(pos), tuple(neg)) for pos, neg in slots)


_PAIRS, _PAIR_SLOTS = _pair_plan(MULTIPLICATION_TABLE)

# An operand is wide when one of its components has at least 384 bits.  The
# 36 products pay for their extra additions only when both operands are: on
# random ints (2 CPUs, Python 3.11.7) they took 1.10x the time of the 64
# terms at 256 bits, 1.00x at 320, 0.96x at 384, 0.62x at 2,636 bits, and
# 1.34x at 2,636 x 16 bits.
_WIDE = 1 << 383


def _int_slots(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The eight components of the product of two integer component tuples."""
    if (max(a) >= _WIDE or min(a) <= -_WIDE) and (max(b) >= _WIDE or min(b) <= -_WIDE):
        return _paired_slots(a, b)
    out = []
    for pos, neg in _SLOTS:
        acc = 0
        for i, j in pos:
            acc += a[i] * b[j]
        for i, j in neg:
            acc -= a[i] * b[j]
        out.append(acc)
    return tuple(out)


def _paired_slots(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """`_int_slots` in 36 big products: the d_l, then one product per pair."""
    t = [x * y for x, y in zip(a, b)]
    t += [(a[i] + a[j]) * (b[i] + b[j] if same else b[j] - b[i]) for i, j, same in _PAIRS]
    out = []
    for pos, neg in _PAIR_SLOTS:
        acc = 0
        for m in pos:
            acc += t[m]
        for m in neg:
            acc -= t[m]
        out.append(acc)
    return tuple(out)


def _scaled(comps: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    """Integer numerators over the lcm of the denominators, and that lcm."""
    den = math.lcm(*(c.denominator for c in comps))
    return tuple(c.numerator * (den // c.denominator) for c in comps), den


def basis_product(i: int, j: int) -> tuple[int, int]:
    """Return ``(sign, index)`` with ``e_i * e_j = sign * e_index``."""
    return MULTIPLICATION_TABLE.sign[i][j], MULTIPLICATION_TABLE.index[i][j]


class Octonion:
    """An octonion with eight components sharing one scalar variant."""

    __slots__ = ("components", "variant")

    components: tuple[Scalar, ...]
    variant: str

    def __init__(self, components: Iterable[Scalar]):
        comps = tuple(components)
        if len(comps) != 8:
            raise ValueError(f"an octonion needs exactly 8 components, got {len(comps)}")
        kind = variant_of(comps[0])
        for c in comps[1:]:
            if variant_of(c) != kind:
                raise VariantError(
                    f"components mix scalar variants ({kind} with {variant_of(c)})"
                )
        _set_components(self, comps)
        _set_variant(self, kind)

    @classmethod
    def _raw(cls, comps: tuple[Scalar, ...], kind: str) -> "Octonion":
        # internal fast path: comps already validated by construction
        o = object.__new__(cls)
        _set_components(o, comps)
        _set_variant(o, kind)
        return o

    @classmethod
    def zero(cls, variant: str = INT) -> "Octonion":
        return cls._raw((zero(variant),) * 8, variant)

    @classmethod
    def basis(cls, index: int, variant: str = INT) -> "Octonion":
        if not 0 <= index <= 7:
            raise ValueError("basis index must be in 0..7")
        z, u = zero(variant), one(variant)
        return cls._raw(tuple(u if k == index else z for k in range(8)), variant)

    @classmethod
    def from_scalar(cls, value: Scalar) -> "Octonion":
        """Embed a scalar as ``value * e0``."""
        kind = variant_of(value)
        z = zero(kind)
        return cls._raw((value,) + (z,) * 7, kind)

    # -- plumbing ---------------------------------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Octonion values are immutable")

    def __iter__(self) -> Iterator[Scalar]:
        return iter(self.components)

    def __getitem__(self, index: int) -> Scalar:
        return self.components[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Octonion):
            return NotImplemented
        return self.variant == other.variant and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.variant, self.components))

    def __repr__(self) -> str:
        return f"Octonion({list(self.components)!r})"

    def __bool__(self) -> bool:
        return any(self.components)

    def _require_same(self, other: "Octonion") -> None:
        if self.variant != other.variant:
            raise VariantError(
                f"cannot combine {self.variant} and {other.variant} octonions; "
                "convert explicitly"
            )

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Octonion") -> "Octonion":
        if not isinstance(other, Octonion):
            return NotImplemented
        self._require_same(other)
        return Octonion._raw(
            tuple(a + b for a, b in zip(self.components, other.components)),
            self.variant,
        )

    def __sub__(self, other: "Octonion") -> "Octonion":
        if not isinstance(other, Octonion):
            return NotImplemented
        self._require_same(other)
        return Octonion._raw(
            tuple(a - b for a, b in zip(self.components, other.components)),
            self.variant,
        )

    def __neg__(self) -> "Octonion":
        return Octonion._raw(tuple(-a for a in self.components), self.variant)

    def __mul__(self, other: "Octonion | Scalar") -> "Octonion":
        if isinstance(other, Octonion):
            self._require_same(other)
            return self._table_product(other)
        return self.scalar_mul(other)

    def __rmul__(self, other: Scalar) -> "Octonion":
        return self.scalar_mul(other)

    def scalar_mul(self, value: Scalar) -> "Octonion":
        """Central scalar multiple; the scalar must match the variant."""
        if variant_of(value) != self.variant:
            raise VariantError(
                f"scalar variant {variant_of(value)} does not match octonion "
                f"variant {self.variant}"
            )
        return Octonion._raw(tuple(value * a for a in self.components), self.variant)

    def _table_product(self, other: "Octonion") -> "Octonion":
        a, b = self.components, other.components
        if self.variant == INT:
            return Octonion._raw(_int_slots(a, b), INT)
        if self.variant == RATIONAL:
            (na, la), (nb, lb) = _scaled(a), _scaled(b)
            den = la * lb
            return Octonion._raw(
                tuple(Fraction(n, den) for n in _int_slots(na, nb)), RATIONAL
            )
        # complex: each slot in row order, skipping zero factors; this fixes the rounding
        out = []
        for pos, neg in _SLOTS:
            acc = zero(COMPLEX)
            for i, j in sorted(pos + neg):
                if a[i] and b[j]:
                    acc = acc + a[i] * b[j] if (i, j) in pos else acc - a[i] * b[j]
            out.append(acc)
        return Octonion._raw(tuple(out), COMPLEX)

    def conjugate(self) -> "Octonion":
        """Keep the real part, negate the seven imaginary components."""
        c = self.components
        return Octonion._raw((c[0],) + tuple(-a for a in c[1:]), self.variant)

    def norm_sq(self) -> Scalar:
        """Sum of squared components; equals the real part of conj(p)*p.

        Defined for real coefficients only: a complex-variant octonion must
        have exactly zero imaginary parts.
        """
        if self.variant == COMPLEX:
            if any(c.imag != 0.0 for c in self.components):
                raise ValueError(
                    "norm_sq needs real coefficients; some imaginary parts are nonzero"
                )
        return sum(c * c for c in self.components)

    # -- conversions ------------------------------------------------------

    def as_rational(self) -> "Octonion":
        if self.variant == RATIONAL:
            return self
        return Octonion._raw(tuple(as_rational(c) for c in self.components), RATIONAL)

    def as_complex(self) -> "Octonion":
        if self.variant == COMPLEX:
            return self
        return Octonion._raw(tuple(as_complex(c) for c in self.components), COMPLEX)


# the slots' own setters, which Octonion.__setattr__ does not go through
_set_components = Octonion.components.__set__
_set_variant = Octonion.variant.__set__
