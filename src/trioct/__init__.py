"""Exact and numeric kernel for third-order recurrence sequences lifted to octonions.

The layers load on first use (PEP 562): ``import trioct`` imports none of
them, and ``trioct.seq_term`` imports only the layers that name needs.
"""

from importlib import import_module

# each layer and the names the package exports from it
_EXPORTS = {
    "scalars": (
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
    ),
    "octonion": ("Octonion", "MultiplicationTable", "MULTIPLICATION_TABLE", "basis_product"),
    "sequences": (
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
    ),
    "cubic": ("CubicRoots", "discriminant_exact", "cubic_roots", "binet_scalar", "newton_refine_real_root"),
    "octseq": ("OctSequenceContext", "sum_correction"),
    "genfunc": (
        "OctPolynomial",
        "RationalGF",
        "gf_numerator",
        "build_gf",
        "gf_columns",
        "gf_expand",
        "format_polynomial",
    ),
    "verify": ("SuiteConfig", "VerificationReport", "CATEGORIES", "run_suite", "make_random_params"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_LAYER_OF, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:  # a layer not imported yet
        return import_module(f".{name}", __name__)
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAYER_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
