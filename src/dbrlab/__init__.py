"""Numerical models for Dirichlet-type spaces, de Branges-Rovnyak spaces,
and the hyperexpansive shift correspondence between them."""

from .hardy import (
    difference_quotient,
    h2_inner,
    monomial,
    normalize,
    powers,
)
from .dirichlet import (
    GramMatrix,
    PointMassMeasure,
    dmu_cauchy_norm,
    dmu_gram,
    dmu_inner,
    moment_matrix,
    truncated_cauchy_kernel,
)
from .debranges import (
    MoebiusSymbol,
    PythagoreanPair,
    SymbolError,
    fplus,
    hb_cauchy_norm,
    hb_gram,
    hb_inner,
    pythagorean_mate,
    validate_symbol,
)
from .operators import (
    Certificate,
    FactoredForm,
    certify_nsd,
    defect_matrix,
    hyperexpansive_form,
    numerical_rank,
    rank1_defect_check,
    ratio_identity_check,
)
from .moments import RecoveryError, RecoveryResult, recover_atoms, roundtrip_check
from .synthesis import (
    SynthesisOutput,
    synthesize_symbol,
    synthesized_pair,
    verify_norm_equality,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "FactoredForm",
    "GramMatrix",
    "MoebiusSymbol",
    "PointMassMeasure",
    "PythagoreanPair",
    "RecoveryError",
    "RecoveryResult",
    "SymbolError",
    "SynthesisOutput",
    "certify_nsd",
    "defect_matrix",
    "difference_quotient",
    "dmu_cauchy_norm",
    "dmu_gram",
    "dmu_inner",
    "fplus",
    "h2_inner",
    "hb_cauchy_norm",
    "hb_gram",
    "hb_inner",
    "hyperexpansive_form",
    "moment_matrix",
    "monomial",
    "normalize",
    "numerical_rank",
    "powers",
    "pythagorean_mate",
    "rank1_defect_check",
    "ratio_identity_check",
    "recover_atoms",
    "roundtrip_check",
    "synthesize_symbol",
    "synthesized_pair",
    "truncated_cauchy_kernel",
    "validate_symbol",
    "verify_norm_equality",
]
