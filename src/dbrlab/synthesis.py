"""Symbol synthesis for the measure-symbol correspondence.

For mu = |alpha|^2 delta_lam on the closed disk there is a unique (up to a
unimodular gauge) Moebius symbol b(z) = A z / (1 - B z) with D(mu) = H(b)
and equal norms:

    A^2 = (|alpha|^2 / (2|lam|^2)) (S - sqrt(S^2 - 4|lam|^2)),
            S = 1 + |alpha|^2 + |lam|^2       (lam != 0)
    A^2 = |alpha|^2 / (1 + |alpha|^2)         (lam == 0)
    B   = A^2 conj(lam) / |alpha|^2.

The lam = 0 branch is the continuous limit of the general formula and is
forced by the norm equality (the D(mu) Gram diagonal is 1 + |alpha|^2 from
degree one on, so A^2/(1 - A^2) = |alpha|^2).

The minus branch is forced: the plus branch gives |B| > 1. A is gauge-fixed
real nonnegative.
"""

import math
from dataclasses import dataclass

import numpy as np

from .debranges import MoebiusSymbol, _s_and_p, hb_gram, pythagorean_mate, validate_symbol
from .dirichlet import PointMassMeasure, dmu_gram
from .operators import Certificate

TWO_ISOMETRY_TOL = 1e-10


@dataclass(frozen=True)
class SynthesisOutput:
    A: float  # gauge-fixed real >= 0
    B: complex

    def symbol(self):
        return MoebiusSymbol(c=0, gamma=self.A, beta=self.B)


def synthesize_symbol(alpha, lam):
    """Synthesize the symbol constants for mu = |alpha|^2 delta_lam.

    The lam != 0 branch is evaluated in the fused form
    2|alpha|^2 / (S + sqrt(S^2 - 4|lam|^2)) to avoid cancellation for
    small |lam|. alpha = 0 yields the zero symbol (H(b) = H^2).
    """
    alpha = complex(alpha)
    lam = complex(lam)
    if abs(lam) > 1 + 1e-12:
        raise ValueError(f"|lambda| = {abs(lam)} must be <= 1")
    aa = abs(alpha) ** 2
    if aa == 0:
        return SynthesisOutput(A=0.0, B=0j)
    ll = abs(lam) ** 2
    if ll == 0:
        return SynthesisOutput(A=math.sqrt(aa / (1 + aa)), B=0j)
    S = 1 + aa + ll
    A2 = 2 * aa / (S + math.sqrt(S * S - 4 * ll))
    return SynthesisOutput(A=math.sqrt(A2), B=A2 * np.conj(lam) / aa)


def point_mass(alpha, lam):
    """mu = |alpha|^2 delta_lam; the zero measure when alpha = 0."""
    if abs(alpha) == 0:
        return PointMassMeasure.empty()
    return PointMassMeasure.single(lam, abs(alpha) ** 2)


def synthesized_pair(alpha, lam):
    """Symbol plus Pythagorean mate for mu = |alpha|^2 delta_lam."""
    return pythagorean_mate(synthesize_symbol(alpha, lam).symbol())


def _equality_grams(alpha, lam, n):
    """The D(mu) and H(b) monomial Grams of size n >= 2 for mu = |alpha|^2 delta_lam."""
    n = int(n)
    if n < 2:
        raise ValueError("need Gram size >= 2")
    pair = synthesized_pair(alpha, lam)
    return dmu_gram(point_mass(alpha, lam), n).entries, hb_gram(pair, n).entries


def _equality_certificate(alpha, lam, G, G_b, tol):
    """Norm-equality certificate of the D(mu) Gram G against the H(b) Gram G_b.

    G is overwritten with G - G_b, so the comparison needs no third N x N array.
    """
    alpha = complex(alpha)
    lam = complex(lam)
    # a Gram matrix's largest entry is on its diagonal: |G_ij|^2 <= G_ii G_jj
    tol = tol * max(1.0, float(G.diagonal().real.max()))
    G -= G_b
    dev = float(np.abs(G).max())
    return Certificate(
        kind="norm-equality",
        passed=dev <= tol,
        witness=dev,
        tolerance=tol,
        context={
            "alpha": {"re": alpha.real, "im": alpha.imag},
            "lambda": {"re": lam.real, "im": lam.imag},
            "N": len(G),
        },
    )


def verify_norm_equality(alpha, lam, n, tol=1e-9):
    """Entrywise comparison of the D(mu) and H(b) monomial Gram matrices.

    tol is relative: the largest entry deviation is compared with
    tol * max(1, max|G_dmu|), because the Gram entries, and with them the
    roundoff of both routes, grow like |alpha|^2 * N.
    """
    return _equality_certificate(alpha, lam, *_equality_grams(alpha, lam, n), tol)


def corollary_params(beta, gamma, tol=1e-10):
    """Invert the circle specialization: (beta, gamma) -> (weight, unit atom).

    Requires |beta| + |gamma| = 1 with beta != 0; then the measure is
    weight * delta_lam with weight = |gamma|^2 / |beta| and
    lam = conj(beta)/|beta| on the unit circle.
    """
    beta = complex(beta)
    gamma = complex(gamma)
    if abs(beta) == 0:
        raise ValueError("beta must be nonzero")
    if abs(abs(beta) + abs(gamma) - 1) > tol:
        raise ValueError(
            f"|beta| + |gamma| = {abs(beta) + abs(gamma)} must equal 1"
        )
    return abs(gamma) ** 2 / abs(beta), np.conj(beta) / abs(beta)


@dataclass(frozen=True)
class SymbolClassification:
    completely_hyperexpansive: bool
    two_isometry: bool


def classify_symbol(b):
    """Classify a valid nonextreme Moebius symbol's shift.

    Every such symbol gives a completely hyperexpansive shift; the shift is
    a 2-isometry exactly when 1 + |beta|^2 - |c|^2 - |gamma|^2 equals
    2 |beta + conj(c) gamma| (equivalently rho = |sigma| in the mate).
    """
    flags = validate_symbol(b.c, b.gamma, b.beta)
    if not flags.nonextreme:
        raise ValueError("classification requires a valid nonextreme symbol")
    s, _, root = _s_and_p(b.c, b.gamma, b.beta)
    two_iso = abs(s - 2 * abs(root)) <= TWO_ISOMETRY_TOL
    return SymbolClassification(completely_hyperexpansive=True, two_isometry=two_iso)
