"""Reference implementations the tests check the package against.

Each is the plain, slow form of something the package computes another
way, so none of them belongs to the runtime.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from dbrlab import hardy
from dbrlab.symbols import _s_and_p, validate_symbol
from dbrlab.operators import defect_matrix


def poly_eval(f, z):
    """Evaluate sum_k f_k z^k by Horner's scheme."""
    acc = 0j
    for c in hardy.as_poly(f)[::-1]:
        acc = acc * z + c
    return acc


def local_dirichlet(f, zeta):
    """|| (f - f(zeta)) / (z - zeta) ||^2 in H^2; local smoothness of f at zeta."""
    q = hardy.difference_quotient(f, zeta)
    return float(np.real(hardy.h2_inner(q, q)))


def difference_quotient_loop(f, zeta):
    """Synthetic division of f by (z - zeta) on numpy scalars, one array
    entry at a time: q_(d-1) = f_d, q_k = f_(k+1) + zeta q_(k+1)."""
    f = hardy.normalize(f)
    d = len(f) - 1
    if d < 1:
        return f[:0]
    q = np.empty(d, dtype=complex)
    q[d - 1] = f[d]
    for k in range(d - 2, -1, -1):
        q[k] = f[k + 1] + zeta * q[k + 1]
    return q


def difference_quotient_mp(f, zeta, dps=50):
    """Synthetic division of f by (z - zeta) by its back-substitution
    q_(d-1) = f_d, q_k = f_(k+1) + zeta q_(k+1) at dps digits, f and zeta taken
    as exact. Returns one coefficient per entry of f[1:] (d of them for d + 1
    entries), each rounded once to a double."""
    f = hardy.as_poly(f)
    q = np.empty(max(len(f) - 1, 0), dtype=complex)
    with mpmath.workdps(dps):
        z, acc = mpmath.mpc(complex(zeta)), mpmath.mpc(0)
        for k in range(len(q) - 1, -1, -1):
            acc = mpmath.mpc(complex(f[k + 1])) + z * acc
            q[k] = complex(acc)
    return q


def fplus_loop(f, pair):
    """f+ by the back-substitution of T_conj(a) f+ = T_conj(b) f on numpy
    scalars, dividing by rho, with the geometric tails kept as running sums."""
    f = hardy.normalize(f)
    d = len(f) - 1
    if d < 0:
        return f[:0]
    b = pair.b
    bc = np.conj(b.c)
    btop = np.conj(b.c * b.beta + b.gamma)
    atop = np.conj(pair.rho * b.beta - pair.sigma)
    bb = np.conj(b.beta)
    x = np.empty(d + 1, dtype=complex)
    t = 0j
    s = 0j
    for i in range(d, -1, -1):
        g_i = bc * f[i] + btop * t
        x[i] = (g_i - atop * s) / pair.rho
        t = f[i] + bb * t
        s = x[i] + bb * s
    return hardy.normalize(x)


def fplus_mp(f, pair, dps=50):
    """f+ by the back-substitution of T_conj(a) f+ = T_conj(b) f at dps digits,
    with the geometric tails of beta kept as running sums, as `fplus_loop`
    does; the pair's double constants and f are taken as exact. Returns one
    coefficient per entry of f, each rounded once to a double."""
    f = hardy.as_poly(f)
    b = pair.b
    with mpmath.workdps(dps):
        c, gamma, beta, sigma = (mpmath.mpc(z) for z in (b.c, b.gamma, b.beta, pair.sigma))
        rho = mpmath.mpf(pair.rho)
        bc, bb = mpmath.conj(c), mpmath.conj(beta)
        btop = mpmath.conj(c * beta + gamma)
        atop = mpmath.conj(rho * beta - sigma)
        x = np.empty(len(f), dtype=complex)
        t = s = mpmath.mpc(0)
        for i in range(len(f) - 1, -1, -1):
            f_i = mpmath.mpc(complex(f[i]))
            x_i = (bc * f_i + btop * t - atop * s) / rho
            x[i] = complex(x_i)
            t = f_i + bb * t
            s = x_i + bb * s
    return x


def pencil_top_dense(G, d=None):
    """Top pencil eigenvalue d^H G_(N-1)^-1 d of a rank-1 H(b) defect d d^H
    against the leading N - 1 block of the Gram G, by one dense LU solve.
    d defaults to the column of the defect of G through its largest
    diagonal entry, over that entry's square root."""
    A = np.asarray(G, dtype=complex)
    if d is None:
        D = defect_matrix(A)
        j = int(np.argmax(D.diagonal().real))
        d = D[:, j] / np.sqrt(D[j, j].real)
    return float(np.vdot(d, np.linalg.solve(A[:-1, :-1], d)).real)


def pencil_top_mp(pair, d, dps=50):
    """theta = d^H G^-1 d for the leading len(d) block G of the pair's H(b)
    Gram by the LDL^H recurrence of K = A^H A + B^H B (`operators._pencil_top`)
    at dps digits: z_i = y_i - (e / D_(i-1)) z_(i-1), D_i = k1 - |e|^2 / D_(i-1)
    and theta = sum_i |z_i|^2 / D_i, one step per entry of d. The pair's double
    constants and d are taken as exact; theta is rounded once to a double."""
    b = pair.b
    with mpmath.workdps(dps):
        c, gamma, sigma = (mpmath.mpc(z) for z in (b.c, b.gamma, pair.sigma))
        rho = mpmath.mpf(pair.rho)
        e = mpmath.conj(c) * gamma - rho * sigma  # K[i, i-1]
        e2 = abs(e) ** 2
        k1 = rho**2 + abs(sigma) ** 2 + abs(c) ** 2 + abs(gamma) ** 2
        x = [mpmath.conj(mpmath.mpc(complex(z))) for z in d]
        z, D = rho * x[0], rho**2 + abs(c) ** 2
        theta = abs(z) ** 2 / D
        for prev, cur in zip(x, x[1:]):
            z = rho * cur - sigma * prev - e / D * z
            D = k1 - e2 / D
            theta += abs(z) ** 2 / D
        return float(theta)


def coanalytic_toeplitz_apply(symbol_coeffs, f):
    """Apply T_conj(u) to a polynomial: (T_conj(u) f)_i = sum_{j>=i} conj(u_{j-i}) f_j.

    Generic dense application, used as the independent residual check for
    the triangular solve in fplus.
    """
    u = hardy.as_poly(symbol_coeffs)
    f = hardy.as_poly(f)
    d = len(f) - 1
    out = np.zeros(d + 1, dtype=complex)
    for i in range(d + 1):
        m = min(len(u), d + 1 - i)
        out[i] = np.dot(np.conj(u[:m]), f[i : i + m])
    return out


def moebius_taylor(c, gamma, beta, n):
    """First n Taylor coefficients of (c + gamma*z)/(1 - beta*z).

    coeff_0 = c and coeff_k = beta^(k-1) (c*beta + gamma) for k >= 1.
    Requires |beta| < 1 so the coefficients are square summable.
    """
    if abs(beta) >= 1:
        raise ValueError(f"|beta| = {abs(beta)} must be < 1")
    n = int(n)
    if n < 1:
        raise ValueError("need at least one coefficient")
    coeffs = np.empty(n, dtype=complex)
    coeffs[0] = c
    if n > 1:
        coeffs[1:] = (c * beta + gamma) * np.asarray(beta, dtype=complex) ** np.arange(n - 1)
    return coeffs


def symbol_taylor(b, n):
    """First n Taylor coefficients of the Moebius symbol b."""
    return moebius_taylor(b.c, b.gamma, b.beta, n)


def mate_taylor(pair, n):
    """First n Taylor coefficients of the mate a(z) = (rho - sigma z)/(1 - beta z)."""
    return moebius_taylor(pair.rho, -pair.sigma, pair.b.beta, n)


def unit_circle_deviation_np(pair):
    """max | |a|^2 + |b|^2 - 1 | over the 64th roots of unity, vectorized in
    numpy: the form `PythagoreanPair.unit_circle_deviation` had before it ran
    on Python complex scalars."""
    om = np.exp(2j * np.pi * np.arange(64) / 64)
    vals = np.abs(pair.mate_eval(om)) ** 2 + np.abs(pair.b(om)) ** 2
    return float(np.abs(vals - 1).max())


def synthesis_mp(alpha, lam, dps=80):
    """(A, B) of the one-atom synthesis, as mpmath numbers at dps digits, from
    the textbook formulas A^2 = 2|alpha|^2 / (S + sqrt(S^2 - 4|lam|^2)),
    S = 1 + |alpha|^2 + |lam|^2, and B = A^2 conj(lam) / |alpha|^2."""
    with mpmath.workdps(dps):
        aa = abs(mpmath.mpc(complex(alpha))) ** 2
        ll = mpmath.mpc(complex(lam))
        S = 1 + aa + abs(ll) ** 2
        A2 = 2 * aa / (S + mpmath.sqrt(S * S - 4 * abs(ll) ** 2))
        return mpmath.sqrt(A2), A2 * mpmath.conj(ll) / aa


def synthesized_mate_mp(alpha, lam, dps=400):
    """(rho, sigma) of the one-atom synthesized pair as mpmath numbers at dps
    digits: the Pythagorean mate of the exact symbol A z / (1 - B z) of
    `synthesis_mp`, rho^2 the larger root of t^2 - s t + |B|^2 with
    s = 1 + |B|^2 - A^2, and sigma = B / rho. s is of order 1 / |alpha|^2, so
    dps must exceed the 2 log10 |alpha| digits that it cancels."""
    with mpmath.workdps(dps):
        A, B = synthesis_mp(alpha, lam, dps)
        if A == 0:
            return mpmath.mpf(1), mpmath.mpc(0)
        s, p = 1 + abs(B) ** 2 - A**2, abs(B) ** 2
        rho = mpmath.sqrt((s + mpmath.sqrt(max(s * s - 4 * p, 0))) / 2)
        return rho, B / rho


def exact_powers(z, n):
    """z^0 .. z^(n-1) of the double z, each rounded once from 40-digit mpmath."""
    out = np.empty(n, dtype=complex)
    with mpmath.workdps(40):
        zz, p = mpmath.mpc(complex(z)), mpmath.mpc(1)
        for l in range(n):
            out[l] = complex(p)
            p *= zz
    return out


def dmu_forms_closed(mu, N, n_max):
    """Yield B_1 .. B_n_max of the size-N D(mu) Gram by their closed form
    B_n = -(sum_k w_k (1 - |z_k|^2)^(n-1) p_k p_k^H)^T, p_k = exact_powers(z_k, N - n)."""
    atoms = [(exact_powers(z, N - 1), w, 1 - abs(z) ** 2) for z, w in mu.atoms]
    for n in range(1, n_max + 1):
        m = N - n
        B = np.zeros((m, m), dtype=complex)
        for p, w, d in atoms:
            B -= w * d ** (n - 1) * np.outer(p[:m], p[:m].conj()).T
        yield B


def binomial_form(G, n):
    """Order-n hyperexpansivity form by its alternating binomial sum,
    B_n[j][k] = sum_i (-1)^i C(n,i) G[k+i][j+i]."""
    A = np.asarray(G, dtype=complex)
    m = A.shape[0] - n
    B = np.zeros((m, m), dtype=complex)
    for i in range(n + 1):
        B += (-1) ** i * math.comb(n, i) * A[i : i + m, i : i + m].T
    return B


def pascal_forms(G, n_max):
    """Yield the forms B_1 .. B_n_max of a plain Gram array by Pascal's rule,
    B_(n+1) = B_n[:-1, :-1] - B_n[1:, 1:] from B_0 = G^T, one subtraction
    per order."""
    B = np.asarray(G, dtype=complex).T
    for _ in range(n_max):
        B = B[:-1, :-1] - B[1:, 1:]
        yield B


def ratio_witness_dense(G, r, n_max):
    """(worst, scale) of the ratio identity B_n = r^(n-2) B_2 from full dense
    forms, by Pascal's rule on the Gram's entries: worst = max ||B_n - r^(n-2) B_2||_F over 3 <= n <= n_max and
    scale = max(1, ||B_2||_F), all on the common block m = N - n_max."""
    worst = 0.0
    for n, B in enumerate(pascal_forms(G, n_max), 1):
        m = B.shape[0] + n - n_max
        if n == 2:
            B2 = B[:m, :m]
            scale = max(1.0, float(np.linalg.norm(B2)))
        elif n > 2:
            worst = max(worst, float(np.linalg.norm(B[:m, :m] - r ** (n - 2) * B2)))
    return worst, scale


def validate_gram(G, herm_tol=1e-12, psd_tol=1e-10):
    """Check the Gram invariants: Hermitian, PSD, real diagonal >= 1; raises on violation."""
    G = np.asarray(G, dtype=complex)
    scale = max(1.0, float(np.abs(G).max()))
    if np.abs(G - G.conj().T).max() > herm_tol * scale:
        raise ValueError("Gram matrix not Hermitian")
    w = np.linalg.eigvalsh((G + G.conj().T) / 2)
    if w[0] < -psd_tol * scale:
        raise ValueError(f"Gram matrix not PSD ({w[0]})")
    d = np.diag(G)
    if np.abs(d.imag).max() > herm_tol * scale or d.real.min() < 1 - herm_tol * scale:
        raise ValueError("Gram diagonal must be real and >= 1")


def moment_matrix_outer(mu, n):
    """M = sum_k w_k p_k p_k^H, p_k = (z_k^i)_i, one outer product per atom."""
    M = np.zeros((n, n), dtype=complex)
    for z, w in mu.atoms:
        p = np.asarray(z, dtype=complex) ** np.arange(n)
        M += w * np.outer(p, p.conj())
    return M


TWO_ISOMETRY_TOL = 1e-10


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
        raise ValueError(f"|beta| + |gamma| = {abs(beta) + abs(gamma)} must equal 1")
    return abs(gamma) ** 2 / abs(beta), np.conj(beta) / abs(beta)
