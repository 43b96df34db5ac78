"""The one-atom correspondence checked on Grams and on Cauchy kernels: the
D(mu) Gram of mu = |alpha|^2 delta_lam against the H(b) Gram of its
synthesized symbol, and each space's kernel norms against their closed forms.

The symbol constants themselves (`synthesize_symbol`, `SynthesisOutput`) are
closed-form scalars and live in `symbols`, which has no numpy; this module
re-exports them.
"""

import math

import numpy as np

from .debranges import hb_cauchy_norm, hb_gram, hb_inner
from .dirichlet import (
    PointMassMeasure,
    dirichlet_integral,
    dmu_cauchy_norm,
    dmu_gram,
    truncated_cauchy_kernel,
)
from .symbols import (  # noqa: F401  (SynthesisOutput is re-exported here)
    TOLERANCES,
    Certificate,
    PythagoreanPair,
    SynthesisOutput,
    synthesize_symbol,
)


def point_mass(alpha, lam):
    """mu = |alpha|^2 delta_lam; the zero measure when alpha = 0."""
    if abs(alpha) == 0:
        return PointMassMeasure.empty()
    return PointMassMeasure.single(lam, abs(alpha) ** 2)


def synthesized_pair(alpha, lam):
    """Symbol plus Pythagorean mate for mu = |alpha|^2 delta_lam, in closed form:
    the z coefficient of |a|^2 + |b|^2 = 1 on the circle gives rho sigma = B =
    conj(lam) / h, and rho^2 = 1 / h (`synthesize_symbol`), so rho = A / |alpha|
    and sigma = conj(lam) rho. The mate of the rounded symbol would take
    s = 1 + |B|^2 - A^2, of order 1 / |alpha|^2, which cancels. alpha = 0 gives
    b = 0 with a = 1."""
    alpha = complex(alpha)
    out = synthesize_symbol(alpha, lam)
    # the |alpha| that A was computed from, so that its rounding cancels
    a = math.hypot(alpha.real, alpha.imag)
    if not a:
        return PythagoreanPair(out.symbol(), 1.0, 0j)
    rho = out.A / a
    return PythagoreanPair(out.symbol(), rho, complex(lam).conjugate() * rho)


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


def verify_norm_equality(alpha, lam, n, tol=TOLERANCES["equality"]):
    """Compare the D(mu) and H(b) monomial Grams on their generator rows: the
    witness bounds their largest entry deviation (`equality_certificate`). tol
    is relative: the witness is compared with tol * max|G_dmu| (>= 1, the H^2
    part), because the entries, and their roundoff, grow like |alpha|^2 N.
    n must be >= 2."""
    if int(n) < 2:
        raise ValueError("need Gram size >= 2")
    G, G_b = dmu_gram(point_mass(alpha, lam), n), hb_gram(synthesized_pair(alpha, lam), n)
    return equality_certificate(alpha, lam, G, G_b, tol)


def kernel_norm_certificates(alpha, lam, points, degree, radius, seed, tol=TOLERANCES["kernel"]):
    """`dmu-kernel-norm` and `hb-kernel-norm` at `points` points w, uniform on the
    disk of the given radius (numpy generator of the given seed): the squared
    norm of the Cauchy kernel k_w truncated at `degree`, in D(mu) less its H^2
    part and in H(b) of the synthesized pair, against its closed form; the
    witness is the relative deviation. The D(mu) part is the atom term
    itself (`dirichlet_integral`), not a difference of the two norms, which
    would lose eps / |alpha|^2 of it."""
    pair, mu = synthesized_pair(alpha, lam), point_mass(alpha, lam)
    rng = np.random.default_rng(seed)
    certs = []
    for _ in range(points):
        w = radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        k = truncated_cauchy_kernel(w, degree)
        direct_dmu = float(np.real(dirichlet_integral(k, k, mu)))
        closed_dmu = dmu_cauchy_norm(alpha, lam, w)
        rel_dmu = abs(direct_dmu - closed_dmu) / closed_dmu if closed_dmu else 0.0
        direct_hb = float(np.real(hb_inner(k, k, pair)))
        closed_hb = hb_cauchy_norm(pair, w)
        rel_hb = abs(direct_hb - closed_hb) / closed_hb
        context = {"w": {"re": float(w.real), "im": float(w.imag)}, "degree": degree}
        certs.append(Certificate("dmu-kernel-norm", rel_dmu <= tol, rel_dmu, tol, context))
        certs.append(Certificate("hb-kernel-norm", rel_hb <= tol, rel_hb, tol, context))
    return certs
