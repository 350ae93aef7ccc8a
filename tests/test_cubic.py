"""Characteristic-cubic roots, discriminant regimes, and scalar closed forms."""

import math
import random
from fractions import Fraction

import pytest

from trioct import (
    PRESET_NAMES,
    RecurrenceParams,
    RegimeError,
    binet_scalar,
    cubic_roots,
    discriminant_exact,
    newton_refine_real_root,
    preset_lookup,
    seq_term,
    u_term,
)


def test_discriminant_exact_values():
    assert discriminant_exact(preset_lookup("tribonacci")) == Fraction(11, 27)
    assert discriminant_exact(preset_lookup("padovan")) == Fraction(23, 108)
    assert discriminant_exact(preset_lookup("narayana")) == Fraction(31, 108)
    assert discriminant_exact(preset_lookup("third_order_jacobsthal")) == Fraction(49, 36)
    assert discriminant_exact(RecurrenceParams(0, 3, 0, 0, 1, 1)) == -1
    assert discriminant_exact(RecurrenceParams(0, 0, 0, 0, 1, 1)) == 0


def test_nonpositive_discriminant_rejected():
    with pytest.raises(RegimeError):
        cubic_roots(RecurrenceParams(0, 3, 0, 0, 1, 1))
    with pytest.raises(RegimeError):
        cubic_roots(RecurrenceParams(0, 0, 0, 0, 1, 1))


def test_tribonacci_root_against_newton_oracle():
    params = preset_lookup("tribonacci")
    roots = cubic_roots(params)
    refined = newton_refine_real_root(params, 2.0)
    assert abs(roots.alpha - refined) <= 1e-12
    assert abs(roots.alpha - 1.8392867552141612) <= 1e-12


def test_jacobsthal_roots_from_exact_factorization():
    # x^3 - x^2 - x - 2 = (x - 2)(x^2 + x + 1)
    roots = cubic_roots(preset_lookup("third_order_jacobsthal"))
    assert abs(roots.alpha - 2.0) <= 1e-12
    expected = complex(-0.5, math.sqrt(3) / 2)
    assert abs(roots.omega1 - expected) <= 1e-12


def test_conjugate_pair_convention():
    for name in PRESET_NAMES:
        roots = cubic_roots(preset_lookup(name))
        assert roots.omega1.imag >= 0
        assert abs(roots.omega2 - roots.omega1.conjugate()) <= 1e-12



def test_root_lines_are_computed_once_per_roots_object():
    roots = cubic_roots(preset_lookup("tribonacci"))
    lines = roots.lines
    assert roots.lines is lines
    a = complex(roots.alpha)
    assert lines["alpha"] == (a, roots.weight_alpha, (a - roots.omega1) * (a - roots.omega2))
    assert cubic_roots(preset_lookup("tribonacci")) == roots

def _vieta_residuals(params, roots):
    a, w1, w2 = complex(roots.alpha), roots.omega1, roots.omega2
    r, s, t = (float(x) for x in (params.r, params.s, params.t))
    return (
        abs(a + w1 + w2 - r) / max(1.0, abs(r)),
        abs(a * w1 + a * w2 + w1 * w2 + s) / max(1.0, abs(s)),
        abs(a * w1 * w2 - t) / max(1.0, abs(t)),
    )


def test_vieta_on_presets():
    for name in PRESET_NAMES:
        params = preset_lookup(name)
        roots = cubic_roots(params)
        assert max(_vieta_residuals(params, roots)) <= 1e-12


def test_vieta_on_random_positive_discriminant_sets():
    rng = random.Random(7)
    checked = 0
    while checked < 150:
        params = RecurrenceParams(
            rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5), 0, 1, 1
        )
        if discriminant_exact(params) <= 0:
            continue
        try:
            roots = cubic_roots(params)
        except RegimeError:
            continue  # numerically repeated roots are out of regime
        assert max(_vieta_residuals(params, roots)) <= 1e-12
        checked += 1


def test_weights_reconstruct_initial_values():
    for name in PRESET_NAMES:
        params = preset_lookup(name)
        roots = cubic_roots(params)
        for n in (0, 1, 2):
            value = binet_scalar(roots, n, "v")
            assert abs(value - float(seq_term(params, n))) <= 1e-10


@pytest.mark.parametrize("name", sorted(PRESET_NAMES))
def test_binet_scalar_matches_exact_terms(name):
    params = preset_lookup(name)
    roots = cubic_roots(params)
    for n in range(41):
        exact = float(seq_term(params, n))
        approx = binet_scalar(roots, n, "v")
        assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact))
        exact_u = float(u_term(params, n))
        approx_u = binet_scalar(roots, n, "u")
        assert abs(approx_u - exact_u) <= 1e-9 * max(1.0, abs(exact_u))


def test_binet_scalar_examples():
    trib = cubic_roots(preset_lookup("tribonacci"))
    assert binet_scalar(trib, 10, "v").real == pytest.approx(149, abs=1e-7)
    assert abs(binet_scalar(trib, 0, "u")) <= 1e-10
    pado = cubic_roots(preset_lookup("padovan"))
    assert binet_scalar(pado, 10, "v").real == pytest.approx(5, abs=1e-9)


def test_binet_scalar_argument_validation():
    roots = cubic_roots(preset_lookup("tribonacci"))
    with pytest.raises(ValueError):
        binet_scalar(roots, -1, "v")
    with pytest.raises(ValueError):
        binet_scalar(roots, 3, "w")


def test_rational_parameters_accepted():
    params = RecurrenceParams(*(Fraction(x, 2) for x in (1, 1, 1, 0, 2, 2)))
    assert discriminant_exact(params) > 0
    roots = cubic_roots(params)
    f = ((roots.alpha - 0.5) * roots.alpha - 0.5) * roots.alpha - 0.5
    assert abs(f) <= 1e-12


def test_root_magnitudes_vs_characteristic_polynomial():
    # every returned root must nearly annihilate x^3 - r x^2 - s x - t
    for name in PRESET_NAMES:
        params = preset_lookup(name)
        roots = cubic_roots(params)
        r, s, t = (complex(float(x)) for x in (params.r, params.s, params.t))
        for x in (complex(roots.alpha), roots.omega1, roots.omega2):
            residual = abs(((x - r) * x - s) * x - t)
            assert residual <= 1e-11 * max(1.0, abs(x) ** 3)
