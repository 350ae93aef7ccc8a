"""Reference computations the benchmark checks the program against.

Nothing here imports trioct.  Every expected value is computed from the
benchmark's own plain data (ints, Fractions, tuples and strings) by the
most direct method: forward iteration for terms, direct summation for
prefix sums, a product built from the seven oriented Fano-plane triples
for octonions, and the octonion laws for products.
"""

from __future__ import annotations

import contextlib
import sys
from fractions import Fraction

# (r, s, t, v0, v1, v2) of the four named families.
PRESETS = {
    "tribonacci": (1, 1, 1, 0, 1, 1),
    "padovan": (0, 1, 1, 0, 1, 0),
    "narayana": (1, 0, 1, 0, 1, 1),
    "third_order_jacobsthal": (1, 1, 2, 0, 1, 1),
}

# e_i * e_j = e_k for each oriented triple (i, j, k) and its cyclic shifts;
# reversing the order flips the sign.
FANO_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))


def _basis_products() -> tuple[tuple[int, int, int, int], ...]:
    table = {}
    for i in range(8):
        table[0, i] = (1, i)
        table[i, 0] = (1, i)
    for i in range(1, 8):
        table[i, i] = (-1, 0)
    for a, b, c in FANO_TRIPLES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            table[i, j] = (1, k)
            table[j, i] = (-1, k)
    return tuple((i, j, sign, k) for (i, j), (sign, k) in sorted(table.items()))


BASIS_PRODUCTS = _basis_products()


def oct_mul(a: tuple, b: tuple) -> tuple:
    """Reference octonion product of two component tuples."""
    acc = [0] * 8
    for i, j, sign, k in BASIS_PRODUCTS:
        acc[k] += sign * a[i] * b[j]
    return tuple(acc)


def iterate(params: tuple, seeds: tuple, count: int) -> list:
    """The first ``count`` terms of the recurrence from three seeds."""
    r, s, t = params[:3]
    out = list(seeds[:count])
    while len(out) < count:
        out.append(r * out[-1] + s * out[-2] + t * out[-3])
    return out


def terms(params: tuple, count: int) -> list:
    return iterate(params, params[3:], count)


def term_at(params: tuple, n: int, companion: bool = False) -> int | Fraction:
    """Term n by forward iteration, keeping three values; companion seeds are (0, 1, r)."""
    r, s, t = params[:3]
    a, b, c = (0, 1, r) if companion else params[3:]
    for _ in range(n):
        a, b, c = b, c, r * c + s * b + t * a
    return a


def oct_prefix_sums(params: tuple, count: int) -> list[tuple]:
    """O(0) + ... + O(n) for n < count by direct summation, as Fractions."""
    values = terms(params, count + 7)
    running = [Fraction(0)] * 8
    out = []
    for n in range(count):
        running = [acc + v for acc, v in zip(running, values[n : n + 8])]
        out.append(tuple(running))
    return out


@contextlib.contextmanager
def unlimited_int_str():
    """Lift the int-to-str digit limit while the oracle renders huge terms."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# -- CLI text, rendered as the documented csv formats -------------------------

OCT_HEADER = "n," + ",".join(f"e{l}" for l in range(8)) + "\n"


def seq_csv(params: tuple, lo: int, hi: int) -> bytes:
    values = terms(params, hi + 1)
    with unlimited_int_str():
        return ("n,value\n" + "".join(f"{n},{values[n]}\n" for n in range(lo, hi + 1))).encode()


def oct_csv(params: tuple, lo: int, hi: int) -> bytes:
    values = terms(params, hi + 8)
    with unlimited_int_str():
        rows = "".join(
            f"{n}," + ",".join(str(v) for v in values[n : n + 8]) + "\n" for n in range(lo, hi + 1)
        )
    return (OCT_HEADER + rows).encode()


def sum_csv(params: tuple, lo: int, hi: int) -> bytes:
    sums = oct_prefix_sums(params, hi + 1)
    rows = "".join(
        f"{n}," + ",".join(str(v) for v in sums[n]) + "\n" for n in range(lo, hi + 1)
    )
    return (OCT_HEADER + rows).encode()


def polynomial(coeffs) -> str:
    """Ascending-power polynomial text, e.g. ``24 + 20x + 13x^2`` or ``1 - x``."""
    parts = []
    for power, c in enumerate(coeffs):
        if not c:
            continue
        mag = -c if c < 0 else c
        text = str(mag)
        text = f"({text})" if "/" in text else text
        if power:
            xpart = "x" if power == 1 else f"x^{power}"
            text = xpart if mag == 1 else text + xpart
        if not parts:
            parts.append("-" + text if c < 0 else text)
        else:
            parts.append(("- " if c < 0 else "+ ") + text)
    return " ".join(parts) if parts else "0"


def genfunc_text(params: tuple) -> bytes:
    """Numerator slots of (O0 + (O1 - r O0) x + (O2 - r O1 - s O0) x^2) and the denominator."""
    r, s, t = params[:3]
    v = terms(params, 10)
    lines = []
    for slot in range(8):
        o0, o1, o2 = v[slot], v[slot + 1], v[slot + 2]
        coeffs = [o0, o1 - r * o0, o2 - r * o1 - s * o0]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        lines.append(f"e{slot}: {polynomial(coeffs)}")
    lines.append(f"denominator: {polynomial((1, -r, -s, -t))}")
    return ("\n".join(lines) + "\n").encode()


def roots_ok(params: tuple, text: str, tol: float = 1e-9) -> bool:
    """The printed roots solve x^3 - r x^2 - s x - t and the weights match them."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            return False
        fields[key] = value
    try:
        alpha = complex(float(fields["alpha"]))
        w1 = _parse_complex(fields["omega1"])
        w2 = _parse_complex(fields["omega2"])
        weights = [_parse_complex(fields[k]) for k in ("weight_alpha", "weight_omega1", "weight_omega2")]
    except (KeyError, ValueError):
        return False
    r, s, t, v0, v1, v2 = (float(p) for p in params)
    scale = 1.0 + max(abs(r), abs(s), abs(t))
    roots = (alpha, w1, w2)
    if any(abs(((x - r) * x - s) * x - t) > tol * scale**3 for x in roots):
        return False
    if abs(w1 - w2.conjugate()) > tol * scale or w1.imag <= 0:
        return False
    for k, weight in enumerate(weights):
        x, y = (roots[m] for m in range(3) if m != k)
        if abs(weight - (v2 - (x + y) * v1 + x * y * v0)) > tol * scale**2 * (1 + abs(v0) + abs(v1) + abs(v2)):
            return False
    return True


def _parse_complex(text: str) -> complex:
    if not text.endswith("i"):
        raise ValueError(text)
    return complex(text[:-1] + "j")


# -- the identity-verification suite ------------------------------------------

def expected_suite_runs(preset_count: int, sets: list[tuple], n_max: int, m_max: int) -> dict[str, int]:
    """Checks each category must run for the presets plus ``sets``.

    All four presets have one real root and a conjugate pair, so every
    numeric category runs on them; extra parameter sets skip those.
    """
    cases = preset_count + len(sets)
    with_delta = preset_count + sum(1 for p in sets if p[0] + p[1] + p[2] != 1)
    n_shift = min(n_max, 50) + 1
    return {
        "recurrence": cases * n_max,
        "companion_identity": cases * (n_max - 1),
        "scalar_sum": with_delta * (n_max + 1),
        "octonion_sum": with_delta * (n_max + 1),
        "genfunc_table": preset_count * 8,
        "genfunc_roundtrip": cases * min(n_max + 1, 50),
        "sum_table": preset_count * (n_max + 2),
        "shift_formula": cases * (m_max - 2) * n_shift + preset_count * 3 * (m_max - 2),
        "binet_scalar": preset_count * 2 * (min(n_max, 40) + 1),
        "binet_octonion": preset_count * (min(n_max, 40) + 1),
        "norm_formula": preset_count * (min(n_max, 25) + 1),
        "quad_approx": preset_count * 3 * (min(n_max, 30) + 1),
    }


def suite_report_ok(report: dict, expected_runs: dict[str, int]) -> bool:
    """No failing check, and every category ran exactly its full grid."""
    categories = report.get("categories", {})
    if any(c.get("failed") != 0 for c in categories.values()):
        return False
    return all(categories.get(name, {}).get("run") == runs for name, runs in expected_runs.items())


# -- octonion laws ------------------------------------------------------------

def laws_ok(p: tuple, q: tuple, sides: dict[str, tuple]) -> bool:
    """The criterion-8 laws on one pair, plus p*q against the reference product.

    ``sides`` holds the program's component tuples (and norms) named as in
    ``LAW_SIDES``.
    """
    pq = oct_mul(p, q)
    norm = lambda x: sum(c * c for c in x)
    scalar = lambda v: (v,) + (0,) * 7
    return (
        sides["pq"] == pq
        and sides["norm_pq"] == norm(pq) == norm(p) * norm(q)
        and sides["norm_p"] == norm(p)
        and sides["p(pq)"] == sides["(pp)q"]
        and sides["(pq)q"] == sides["p(qq)"]
        and sides["(pq)p"] == sides["p(qp)"]
        and sides["conj(pq)"] == sides["conj(q)conj(p)"]
        and sides["p conj(p)"] == sides["conj(p)p"] == scalar(norm(p))
    )
