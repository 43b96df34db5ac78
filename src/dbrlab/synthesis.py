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

from .debranges import MoebiusSymbol, hb_gram, pythagorean_mate
from .dirichlet import DISK_TOL, PointMassMeasure, dmu_gram
from .operators import Certificate


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
    if abs(lam) > 1 + DISK_TOL:
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

