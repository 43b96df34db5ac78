"""Numerical models for Dirichlet-type spaces, de Branges-Rovnyak spaces,
and the hyperexpansive shift correspondence between them."""

from importlib import import_module

# each public name and the module that defines it; a name is imported on
# first access (PEP 562), so `import dbrlab` alone loads no numpy
_MODULES = {
    "Certificate": "symbols",
    "MoebiusSymbol": "symbols",
    "PythagoreanPair": "symbols",
    "SymbolError": "symbols",
    "SynthesisOutput": "symbols",
    "pythagorean_mate": "symbols",
    "synthesize_symbol": "symbols",
    "validate_symbol": "symbols",
    "difference_quotient": "hardy",
    "h2_inner": "hardy",
    "monomial": "hardy",
    "normalize": "hardy",
    "powers": "hardy",
    "FactoredForm": "dirichlet",
    "GramMatrix": "dirichlet",
    "PointMassMeasure": "dirichlet",
    "dmu_cauchy_norm": "dirichlet",
    "dmu_gram": "dirichlet",
    "dmu_inner": "dirichlet",
    "moment_matrix": "dirichlet",
    "truncated_cauchy_kernel": "dirichlet",
    "fplus": "debranges",
    "hb_cauchy_norm": "debranges",
    "hb_gram": "debranges",
    "hb_inner": "debranges",
    "certify_nsd": "operators",
    "defect_matrix": "operators",
    "hyperexpansive_form": "operators",
    "numerical_rank": "operators",
    "rank1_defect_check": "operators",
    "ratio_identity_check": "operators",
    "RecoveryError": "moments",
    "RecoveryResult": "moments",
    "recover_atoms": "moments",
    "roundtrip_check": "moments",
    "synthesized_pair": "synthesis",
    "verify_norm_equality": "synthesis",
}

__version__ = "0.1.0"

__all__ = sorted(_MODULES)


def __getattr__(name):
    try:
        module = _MODULES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)
