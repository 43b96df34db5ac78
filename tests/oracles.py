"""Reference implementations the tests check the package against.

Each is the plain, slow form of something the package computes another
way, so none of them belongs to the runtime.
"""

import math

import numpy as np

from dbrlab import hardy


def poly_eval(f, z):
    """Evaluate sum_k f_k z^k by Horner's scheme."""
    acc = 0j
    for c in hardy.as_poly(f)[::-1]:
        acc = acc * z + c
    return acc


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


def binomial_form(G, n):
    """Order-n hyperexpansivity form by its alternating binomial sum,
    B_n[j][k] = sum_i (-1)^i C(n,i) G[k+i][j+i]."""
    A = np.asarray(G, dtype=complex)
    m = A.shape[0] - n
    B = np.zeros((m, m), dtype=complex)
    for i in range(n + 1):
        B += (-1) ** i * math.comb(n, i) * A[i : i + m, i : i + m].T
    return B


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
