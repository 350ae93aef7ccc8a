"""Exact and numeric kernel for third-order recurrence sequences lifted to octonions."""

from .scalars import (
    COMPLEX,
    INT,
    RATIONAL,
    RegimeError,
    Scalar,
    VariantError,
    as_complex,
    as_rational,
    format_scalar,
    parse_exact,
)
from .octonion import MULTIPLICATION_TABLE, MultiplicationTable, Octonion, basis_product
from .sequences import (
    PRESET_NAMES,
    PRESETS,
    RecurrenceParams,
    companion_identity,
    partial_sum_formula,
    partial_sum_formula_uncorrected,
    prefix_sum,
    preset_lookup,
    seq_term,
    u_term,
)
from .cubic import (
    CubicRoots,
    binet_scalar,
    cubic_roots,
    discriminant_exact,
    newton_refine_real_root,
)
from .octseq import OctSequenceContext, power_octonion, sum_correction
from .genfunc import (
    OctPolynomial,
    RationalGF,
    build_gf,
    format_polynomial,
    gf_expand,
    gf_numerator,
)
from .verify import (
    CATEGORIES,
    SuiteConfig,
    VerificationReport,
    make_random_params,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "COMPLEX",
    "INT",
    "RATIONAL",
    "Scalar",
    "VariantError",
    "RegimeError",
    "as_complex",
    "as_rational",
    "format_scalar",
    "parse_exact",
    "Octonion",
    "MultiplicationTable",
    "MULTIPLICATION_TABLE",
    "basis_product",
    "RecurrenceParams",
    "PRESETS",
    "PRESET_NAMES",
    "preset_lookup",
    "seq_term",
    "u_term",
    "companion_identity",
    "prefix_sum",
    "partial_sum_formula",
    "partial_sum_formula_uncorrected",
    "CubicRoots",
    "discriminant_exact",
    "cubic_roots",
    "binet_scalar",
    "newton_refine_real_root",
    "OctSequenceContext",
    "power_octonion",
    "sum_correction",
    "OctPolynomial",
    "RationalGF",
    "gf_numerator",
    "build_gf",
    "gf_expand",
    "format_polynomial",
    "SuiteConfig",
    "VerificationReport",
    "CATEGORIES",
    "run_suite",
    "make_random_params",
    "__version__",
]
