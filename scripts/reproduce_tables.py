#!/usr/bin/env python3
"""Recompute the three preset tables exactly and flag catalog discrepancies.

Prints, for each named preset: the generating-function numerator (eight
slot polynomials over the cubic denominator), the summation constant with
its closed form and the catalog's summation formula, and the first few
shift-convolution coefficient triples.
Entries that disagree with the tabulated reference catalog are marked;
the exact computation is authoritative.

Usage: python scripts/reproduce_tables.py
"""

from fractions import Fraction

from trioct import (
    OctSequenceContext,
    Octonion,
    PRESET_NAMES,
    build_gf,
    format_polynomial,
    gf_numerator,
    preset_lookup,
    sum_correction,
)
from trioct.verify import REFERENCE_GENFUNC_TABLE, REFERENCE_SUM_CONSTANTS, REFERENCE_SUM_FORMS, _sum_verdicts


def show_generating_functions() -> None:
    print("== generating functions ==")
    for name in PRESET_NAMES:
        ctx = OctSequenceContext(preset_lookup(name))
        numerator = gf_numerator(ctx)
        print(f"[{name}]  denominator: {format_polynomial(build_gf(ctx).denom_coeffs)}")
        for slot in range(8):
            computed = numerator.slot_coefficients(slot)
            line = f"  e{slot}: {format_polynomial(computed)}"
            tabulated = REFERENCE_GENFUNC_TABLE[name][slot]
            if computed != tabulated:
                line += f"   <-- catalog prints {format_polynomial(tabulated)}; computed value is correct"
            print(line)


def format_sum_form(weights: tuple[int, int, int], offset: int, divisor: int) -> str:
    """A tabulated summation form as text, e.g. (O(n+2) + O(n) - c) / 2."""
    lifts = [f"{'' if w == 1 else f'{w}*'}O(n+{offset + k})" for w, k in zip(weights, (2, 1, 0)) if w]
    text = " + ".join(lifts).replace("O(n+0)", "O(n)") + " - c"
    return text if divisor == 1 else f"({text}) / {divisor}"


def show_summation_constants() -> None:
    print("\n== summation formulas ==")
    for name in PRESET_NAMES:
        params = preset_lookup(name)
        correction = sum_correction(params)
        catalog = -Octonion(tuple(Fraction(c) for c in REFERENCE_SUM_CONSTANTS[name]))
        marker = "" if correction == catalog else "   <-- disagrees with catalog"
        comps = ", ".join(str(c) for c in correction.components)
        print(f"[{name}]  delta = {params.delta}")
        print(f"  sum(0..n) = (O(n+2) + {1 - params.r}*O(n+1) + {params.t}*O(n) + w) / {params.delta}")
        print(f"  w = ({comps}){marker}")
        # the catalog's form and constant against the direct sums at n <= 20, as verify decides them
        catalog = REFERENCE_SUM_CONSTANTS[name]
        form = REFERENCE_SUM_FORMS[name]
        holds = all(_sum_verdicts(OctSequenceContext(params), form, tuple(-c for c in catalog), 21))
        marker = "" if holds else "   <-- disagrees with the direct sums"
        constant = ", ".join(map(str, catalog))
        print(f"  catalog: sum(0..n) = {format_sum_form(*form)}, c = ({constant}){marker}")


def show_shift_coefficients() -> None:
    print("\n== shift convolution coefficients (m = 3..8) ==")
    for name in PRESET_NAMES:
        ctx = OctSequenceContext(preset_lookup(name))
        print(f"[{name}]  O(n+m) = A*O(n+2) + B*O(n+1) + C*O(n)")
        for m in range(3, 9):
            a, b, c = ctx.shift_coefficients(m)
            print(f"  m={m}: A={a} B={b} C={c}")


if __name__ == "__main__":
    show_generating_functions()
    show_summation_constants()
    show_shift_coefficients()
