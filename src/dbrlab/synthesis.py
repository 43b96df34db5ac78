"""The one-atom correspondence checked on Grams: the D(mu) Gram of
mu = |alpha|^2 delta_lam against the H(b) Gram of its synthesized symbol.

The symbol constants themselves (`synthesize_symbol`, `SynthesisOutput`) are
closed-form scalars and live in `symbols`, which has no numpy; this module
re-exports them.
"""

import numpy as np

from .debranges import hb_gram
from .dirichlet import PointMassMeasure, dmu_gram
from .symbols import (  # noqa: F401  (SynthesisOutput is re-exported here)
    Certificate,
    SynthesisOutput,
    pythagorean_mate,
    synthesize_symbol,
)


def point_mass(alpha, lam):
    """mu = |alpha|^2 delta_lam; the zero measure when alpha = 0."""
    if abs(alpha) == 0:
        return PointMassMeasure.empty()
    return PointMassMeasure.single(lam, abs(alpha) ** 2)


def synthesized_pair(alpha, lam):
    """Symbol plus Pythagorean mate for mu = |alpha|^2 delta_lam."""
    return pythagorean_mate(synthesize_symbol(alpha, lam).symbol())


def equality_certificate(alpha, lam, G, G_b, tol):
    """Norm-equality certificate of the D(mu) Gram G against the H(b) Gram G_b
    on their generator rows U and V (at most one each: one atom, one f+ row).

    With E = U - V, G - G_b = T_E T_U^H + T_V T_E^H, and each row of a T is a
    reversed prefix of its generator, so by Cauchy-Schwarz the witness
    ||E|| (||U|| + ||V||) bounds every entry of G - G_b. The scale max|G| is
    its last diagonal entry 1 + sum_l |U_l|^2, summed as `_toeplitz_gram` does.
    """
    alpha, lam = complex(alpha), complex(lam)
    U, V = G.generators.sum(axis=0), G_b.generators.sum(axis=0)
    tol = tol * (float(np.cumsum(U.real**2 + U.imag**2)[-1]) + 1)
    dev = float(np.linalg.norm(U - V) * (np.linalg.norm(U) + np.linalg.norm(V)))
    return Certificate(
        kind="norm-equality",
        passed=dev <= tol,
        witness=dev,
        tolerance=tol,
        context={
            "alpha": {"re": alpha.real, "im": alpha.imag},
            "lambda": {"re": lam.real, "im": lam.imag},
            "N": len(U),
            "route": "generators",
        },
    )


def verify_norm_equality(alpha, lam, n, tol=1e-9):
    """Compare the D(mu) and H(b) monomial Grams on their generator rows: the
    witness bounds their largest entry deviation (`equality_certificate`). tol
    is relative: the witness is compared with tol * max|G_dmu| (>= 1, the H^2
    part), because the entries, and their roundoff, grow like |alpha|^2 N.
    n must be >= 2."""
    if int(n) < 2:
        raise ValueError("need Gram size >= 2")
    G, G_b = dmu_gram(point_mass(alpha, lam), n), hb_gram(synthesized_pair(alpha, lam), n)
    return equality_certificate(alpha, lam, G, G_b, tol)

